import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from flattori import jsonio
from flattori.errors import GradeError
from flattori.exactlinear import Q, RatMatrix
from flattori.exterior import ExtElement, apply_linear, wedge
from flattori.torus import TorusData, square_torus


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
        G=RatMatrix.diag([1, 4]),
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
