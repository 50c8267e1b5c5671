import json
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from flattori import jsonio
from flattori._rational import Q, QZERO, rat
from flattori.errors import GradeError
from flattori.exactlinear import RatMatrix
from flattori.exterior import ExtElement, apply_linear, merge_sign, wedge
from flattori.torus import TorusData


def diag(values):
    """The diagonal matrix with the given entries."""
    vals = [rat(v) for v in values]
    return RatMatrix([[v if i == j else QZERO for j in range(len(vals))]
                      for i, v in enumerate(vals)])


def standard_complex_structure(d):
    """Block-diagonal rotation J on each coordinate pair (the square torus I)."""
    n = 2 * d
    rows = [[QZERO] * n for _ in range(n)]
    for k in range(d):
        rows[2 * k][2 * k + 1] = Q(-1)
        rows[2 * k + 1][2 * k] = Q(1)
    return RatMatrix(rows)


def square_torus(d, label=""):
    """Product of unit square tori: I standard, G identity, B zero."""
    n = 2 * d
    return TorusData(d=d, I=standard_complex_structure(d), G=RatMatrix.identity(n),
                     B=RatMatrix.zero(n, n), label=label or f"square-{d}")


def random_valid_torus(rng, d, steps=6, b_bound=2, scale_bound=3):
    """A random valid torus: conjugate the square data by a unimodular S.

    With ``I = S^-1 I0 S`` and ``G = S^t D S`` (D positive, constant on each
    coordinate pair so it commutes with I0 appropriately), all invariants
    hold exactly by construction; B is a random rational skew form.
    """
    n = 2 * d
    s = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            s[i][k] += c * s[j][k]
    S = RatMatrix(s)
    scales = []
    for _ in range(d):
        c = Q(rng.randint(1, scale_bound), rng.randint(1, scale_bound))
        scales.extend([c, c])
    I = S.inverse() * standard_complex_structure(d) * S
    G = S.transpose() * diag(scales) * S
    b = [[QZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = Q(rng.randint(-b_bound, b_bound), rng.randint(1, 2))
            b[i][j] = c
            b[j][i] = -c
    return TorusData(d=d, I=I, G=G, B=RatMatrix(b), label="random")


@pytest.fixture
def square1():
    return square_torus(1, "square")


@pytest.fixture
def square2():
    return square_torus(2, "square2")


@pytest.fixture
def stretched1():
    # G = diag(1,4) with the compatible rational complex structure
    return TorusData(
        d=1,
        I=RatMatrix([[0, -2], [Q(1, 2), 0]]),
        G=diag([1, 4]),
        B=RatMatrix.zero(2, 2),
        label="stretched",
    )


@pytest.fixture
def rng():
    return random.Random(20240817)


class Gaussian:
    """A Gaussian rational ``re + im*i`` with exact field operations.

    The oracles' own Q(i) arithmetic: the package carries a Q(i) value as a
    ``(re, im)`` pair of rationals and has no such type.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, Gaussian) else Gaussian(x)

    def pair(self):
        return self.re, self.im

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        return self.pair() == Gaussian.of(other).pair()

    def __add__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __sub__(self, other):
        return self + -Gaussian.of(other)

    def __rsub__(self, other):
        return Gaussian.of(other) - self

    def __mul__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Gaussian.of(other)
        n = other.re * other.re + other.im * other.im
        return self * Gaussian(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        return Gaussian.of(other) / self

    def __repr__(self):
        return f"({self.re}+{self.im}i)"


def _gauss_eigenvectors(rows, lam):
    """Echelon kernel basis of ``M - lam 1`` over Q(i): the reference oracle.

    Plain Gauss-Jordan elimination on :class:`Gaussian` scalars, independent
    of RatMatrix, which holds rationals only.  Each basis vector is 1 at its
    own free column and 0 at the other free columns.
    """
    m = [[Gaussian.of(x) - (lam if a == b else 0) for b, x in enumerate(row)]
         for a, row in enumerate(rows)]
    ncols = len(m[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                m[i] = [a - f * b for a, b in zip(row, m[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Gaussian(int(c == fc)) for c in range(ncols)]
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


@pytest.fixture(scope="session")
def gauss_eigenvectors():
    return _gauss_eigenvectors


def unit_splitting(d):
    """Z^{2d} split into its first d and its last d unit vectors: a mirror's
    dualized factor, so dualizing a mirror along it is the round trip."""
    from flattori.tduality import LagrangianSplitting
    units = [tuple(int(i == k) for i in range(2 * d)) for k in range(2 * d)]
    return LagrangianSplitting.from_vectors(units[:d], units[d:])


def ext_scaled(a, c):
    """The exterior element ``c a``."""
    return ExtElement(a.base_rank, {i: c * v for i, v in a.terms.items()})


def mono(rank, indices, c=1):
    """The monomial ``c e_S`` of the exterior algebra of the given rank."""
    return ExtElement(rank, {tuple(indices): c})


def derivation_map(m, grade):
    """Fraction matrix of the degree-0 derivation extending ``m`` to the grade
    component, the oracle of ``hodge.derivation``.

    Sends ``e_S`` to ``sum_t e_{s_1}^..^(m e_{s_t})^..^e_{s_k}``.  Each
    ``e_i`` of ``m e_{s_t}`` carries the contraction sign (-1)^t times
    :func:`flattori.exterior.merge_sign` of ``(i,)`` and the rest of S.
    """
    n = m.rows
    basis = list(combinations(range(n), grade))
    pos = {s: a for a, s in enumerate(basis)}
    cols = []
    for s in basis:
        col = {}
        for t, gen in enumerate(s):
            rest = s[:t] + s[t + 1:]
            parity = -1 if t % 2 else 1
            for i in range(n):
                c = m.entries[i][gen]
                if not c:
                    continue
                idx, sign = merge_sign((i,), rest)
                if idx is None:
                    continue
                key = pos[idx]
                col[key] = col.get(key, QZERO) + (c if sign == parity else -c)
        cols.append(col)
    dim = len(basis)
    return RatMatrix([[cols[j].get(i, QZERO) for j in range(dim)] for i in range(dim)])


def wedge_matrix(form, grade):
    """Fraction matrix of ``wedge(form, .)`` for a 2-form, from the grade
    component to the one two above: the oracle of ``hodge.lefschetz_map``."""
    n = form.base_rank
    cols = [wedge(form, mono(n, s)) for s in combinations(range(n), grade)]
    return RatMatrix([[col.coefficient(t) for col in cols]
                      for t in combinations(range(n), grade + 2)])


def exp_grade2(a):
    """Exponential ``sum a^k / k!`` of a pure grade-2 element (finite sum)."""
    if a.terms and not a.is_homogeneous(2):
        raise GradeError("exponential argument must be of pure grade 2")
    total = ExtElement.scalar(a.base_rank, 1)
    power = ExtElement.scalar(a.base_rank, 1)
    k = 0
    while True:
        power = wedge(power, a)
        k += 1
        if not power:
            return total
        total = total + ext_scaled(power, Fraction(1, math.factorial(k)))


def fm_product_model(s, alpha):
    """The product-model transform: the reference for ``fm_transform``.

    Rewrite the class in the splitting basis, include it into the exterior
    algebra on (A-duals, A-directions, B-duals), multiply by
    ``exp(sum eta_i ^ etahat_i)`` and extract the coefficient of the A-volume
    form from the left.  Returns the image as an element of rank 2d.
    """
    d, n = alpha.torus.d, alpha.torus.rank
    in_split = apply_linear(alpha.element, s.change_of_basis.transpose())
    # ambient indices: 0..d-1 the A-duals, d..2d-1 the A-directions,
    # 2d..3d-1 the B-duals
    embed = {i: (i if i < d else d + i) for i in range(n)}
    embedded = ExtElement(3 * d, {
        tuple(embed[i] for i in idx): c for idx, c in in_split.terms.items()
    })
    pairing = ExtElement(3 * d, {(i, d + i): 1 for i in range(d)})
    total = wedge(embedded, exp_grade2(pairing))
    # the A-duals 0..d-1 sort first in every term, so the left A-volume costs no sign
    a_set = tuple(range(d))
    return ExtElement(n, {tuple(i - d for i in idx[d:]): c
                          for idx, c in total.terms.items() if idx[:d] == a_set})


@pytest.fixture
def torus_file(tmp_path):
    def write(t, name):
        path = tmp_path / name
        path.write_text(json.dumps(jsonio.torus_to_json(t)))
        return str(path)

    return write


@pytest.fixture
def torus_work(monkeypatch):
    """Record the work each torus costs: validations (by label), doubled builds
    and matrix inversions (the inverted matrices)."""
    from flattori import torus
    work = SimpleNamespace(validated=[], built=0, inverted=[])
    validate, structure, inverse = torus.validate, torus.DoubledStructure, RatMatrix.inverse

    def counted_validate(t):
        work.validated.append(t.label)
        return validate(t)

    def counted_structure(*args):
        work.built += 1
        return structure(*args)

    def counted_inverse(m):
        work.inverted.append(m)
        return inverse(m)

    monkeypatch.setattr(torus, "validate", counted_validate)
    monkeypatch.setattr(torus, "DoubledStructure", counted_structure)
    monkeypatch.setattr(RatMatrix, "inverse", counted_inverse)
    return work


def _reference_oscillator(space, kind, i, s, key_index):
    """``(scale, columns)`` of one oscillator on the columns whose level leaves
    room for its mode, each column found by splicing the variable into, or
    out of, the monomial's key."""
    keys, levels, n_even, n = space._keys, space._levels, space._n_even, space.rank
    bosonic = kind in ("alpha", "alphabar")
    family = {"alpha": "a", "alphabar": "abar", "psi": "th", "psibar": "thbar"}[kind]
    first = space._variables.index((family, abs(s), 0))
    prefix = range(bisect_right(levels, space._cap2 - int(2 * abs(s))))
    if s < 0:
        r = first + i
        columns = []
        for col in prefix:
            key = keys[col]
            pos = bisect_left(key, r)
            if not bosonic and key[pos:pos + 1] == (r,):  # an odd variable squares to zero
                columns.append(())
                continue
            # moving the new variable past the odd ones before it gives a sign
            sign = -1 if (pos - bisect_left(key, n_even, 0, pos)) % 2 else 1
            columns.append(((key_index[key[:pos] + (r,) + key[pos:]], sign),))
        return 1, columns
    scale = math.lcm(*(x.denominator for row in space.ginv.entries for x in row))
    coeffs = [int((s if bosonic else 1) * x * scale) for x in space.ginv.entries[i]]
    columns = []
    for col in prefix:
        key = keys[col]
        lo, hi = bisect_left(key, first), bisect_left(key, first + n)
        odd_start = bisect_left(key, n_even)
        entries = []
        for t in range(lo, hi):
            r = key[t]
            c = coeffs[r - first]
            if c and (t == lo or key[t - 1] != r):
                # times its multiplicity and (-1)^max(t - odd_start, 0), the odd ones before it
                c *= bisect_right(key, r, t) - t
                if t > odd_start and (t - odd_start) % 2:
                    c = -c
                entries.append((key_index[key[:t] + key[t + 1:]], c))
        columns.append(tuple(entries))
    return scale, columns


def _reference_bracket_is(op1, op2, sign, testable, expected):
    """Whether ``op1 op2 + sign op2 op1`` is ``expected`` times the identity on
    the testable columns, checked column by column at scale ``scale1 scale2``."""
    (scale1, cols1), (scale2, cols2) = op1, op2
    target = expected * scale1 * scale2
    if target.denominator != 1:
        return False
    target = target.numerator
    for col in testable:
        acc = {}
        for mid, c1 in cols2[col]:       # op1 after op2
            for row, c2 in cols1[mid]:
                acc[row] = acc.get(row, 0) + c1 * c2
        for mid, c1 in cols1[col]:       # sign * op2 after op1
            for row, c2 in cols2[mid]:
                acc[row] = acc.get(row, 0) + sign * c1 * c2
        if acc.pop(col, 0) != target or any(acc.values()):
            return False
    return True


def reference_sweep(space):
    """The rows of ``fock.ccr_car_sweep``, from the reference a test pins it to.

    Every oscillator is spliced column by column, and every row computes its
    three brackets itself, the swapped index/mode pairs included, against
    its own expected value in Fraction arithmetic.
    """
    key_index = {key: col for col, key in enumerate(space._keys)}
    ginv = space.ginv.entries
    rows = []
    for algebra, start, (left, right), sign in (("ccr", 2, ("alpha", "alphabar"), -1),
                                                ("car", 1, ("psi", "psibar"), +1)):
        modes = [Fraction(e * t, 2) for t in range(start, space._cap2 + 1, 2) for e in (1, -1)]
        ops = {}

        def oscillator(kind, index, mode):
            if (kind, index, mode) not in ops:
                ops[kind, index, mode] = _reference_oscillator(space, kind, index, mode, key_index)
            return ops[kind, index, mode]

        for i in range(space.rank):
            for j in range(space.rank):
                for s in modes:
                    for p in modes:
                        room = space._cap2 - int(2 * abs(s)) - int(2 * abs(p))
                        testable = range(bisect_right(space._levels, room))
                        expected = (s if algebra == "ccr" else 1) * ginv[i][j] if s == -p else 0
                        if not testable:
                            status = "inconclusive"
                        elif all(_reference_bracket_is(oscillator(k1, i, s), oscillator(k2, j, p),
                                                       sign, testable, e)
                                 for k1, k2, e in ((left, left, expected),
                                                   (right, right, expected),
                                                   (left, right, Fraction(0)))):
                            status = "pass"
                        else:
                            status = "fail"
                        rows.append({"algebra": algebra, "i": i, "j": j, "s": str(s),
                                     "p": str(p), "status": status,
                                     "tested_dimension": len(testable)})
    return rows


class FractionMatrix:
    """The plain-Fraction reference for :class:`~flattori.exactlinear.RatMatrix`.

    A tuple of Fraction rows, every operation done entry by entry in field
    arithmetic with Gauss-Jordan elimination: no common denominator, no int
    rows and no fraction-free step, so it shares no code path with the
    package's cleared form.
    """

    def __init__(self, rows):
        self.entries = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self.rows, self.cols = len(self.entries), len(self.entries[0])

    def __eq__(self, other):
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        return FractionMatrix([[a + b for a, b in zip(r, s)]
                               for r, s in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return FractionMatrix([[a - b for a, b in zip(r, s)]
                               for r, s in zip(self.entries, other.entries)])

    def __neg__(self):
        return FractionMatrix([[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, FractionMatrix):
            return FractionMatrix([[sum((a * b for a, b in zip(row, col)), Fraction(0))
                                    for col in zip(*other.entries)] for row in self.entries])
        return FractionMatrix([[Fraction(other) * a for a in row] for row in self.entries])

    def transpose(self):
        return FractionMatrix(list(zip(*self.entries)))

    def block(self, r0, r1, c0, c1):
        return FractionMatrix([row[c0:c1] for row in self.entries[r0:r1]])

    @staticmethod
    def from_blocks(blocks):
        return FractionMatrix([sum((b.entries[i] for b in brow), ())
                               for brow in blocks for i in range(brow[0].rows)])

    def is_integral(self):
        return all(x.denominator == 1 for row in self.entries for x in row)

    def rref(self):
        """Gauss-Jordan with the first nonzero entry of a column as its pivot."""
        m = [list(row) for row in self.entries]
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            pr = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            m[r] = [x / m[r][c] for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
        return FractionMatrix(m), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def det(self):
        m = [list(row) for row in self.entries]
        det = Fraction(1)
        for c in range(self.rows):
            pr = next((i for i in range(c, self.rows) if m[i][c]), None)
            if pr is None:
                return Fraction(0)
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = -det
            det *= m[c][c]
            for i in range(c + 1, self.rows):
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    def kernel_basis(self):
        red, pivots = self.rref()
        basis = []
        for fc in (c for c in range(self.cols) if c not in pivots):
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc]
            basis.append(tuple(v))
        return basis

    def inverse(self):
        n = self.rows
        eye = FractionMatrix([[int(i == j) for j in range(n)] for i in range(n)])
        red, pivots = FractionMatrix.from_blocks([[self, eye]]).rref()
        if pivots[:n] != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return red.block(0, n, n, 2 * n)

    def solve(self, rhs):
        red, pivots = FractionMatrix.from_blocks(
            [[self, FractionMatrix([[x] for x in rhs])]]).rref()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.entries[r][self.cols]
        return tuple(x)
