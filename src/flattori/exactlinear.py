"""Exact linear and exterior algebra over the rationals.

Everything in this module is exact: matrices are dense tuples of tuples of
`fractions.Fraction`, and exterior-algebra elements store their coefficients
on strictly increasing index tuples.  No floating point enters any
computation.  :class:`GaussRational` (a pair of fractions representing
``re + im*i``) is a scalar only: it may be an exterior-algebra coefficient or
a reported value, never a matrix entry.  A question about a rational complex
structure that lives over Q(i) is answered by its callers over Q.

Conventions fixed here and relied on everywhere else:

* exterior basis monomials are indexed by strictly increasing tuples of
  0-based generator indices, ordered lexicographically;
* ``interior(e_i^e_j, e_i^e_j) == +1`` for ``i < j`` (contract ``e_i``
  first, then ``e_j``, each as a left derivation of degree -1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul

from .errors import DimensionError, GradeError

Q = Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, string like ``"3/4"``, or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class GaussRational:
    """A Gaussian rational ``re + im*i`` with exact field operations.

    A scalar only: exterior-algebra coefficients such as the holomorphic
    volume's, and report values.  :class:`RatMatrix` rejects it as an entry.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", rat(re))
        object.__setattr__(self, "im", rat(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussRational is immutable")

    @staticmethod
    def coerce(x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        return GaussRational(rat(x))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRational(other)
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # equal to its real part when im == 0, so it must hash like it
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __add__(self, other):
        other = GaussRational.coerce(other)
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussRational.coerce(other))

    def __rsub__(self, other):
        return GaussRational.coerce(other) + (-self)

    def __mul__(self, other):
        other = GaussRational.coerce(other)
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRational.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussRational(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        return GaussRational.coerce(other) / self

    def __repr__(self):
        if self.im == 0:
            return rat_str(self.re)
        return f"({rat_str(self.re)}+{rat_str(self.im)}i)"


GAUSS_I = GaussRational(0, 1)


class RatMatrix:
    """Dense exact matrix of Fractions; instances are immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(rat(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise DimensionError("matrix must have at least one row and one column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged matrix rows")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, *a):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[QONE if i == j else QZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix([[QZERO] * cols for _ in range(rows)])

    @staticmethod
    def diag(values) -> "RatMatrix":
        vals = [rat(v) for v in values]
        n = len(vals)
        return RatMatrix([[vals[i] if i == j else QZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_blocks(blocks) -> "RatMatrix":
        """Assemble a matrix from a 2-d list of equally aligned blocks."""
        rows = []
        for brow in blocks:
            height = brow[0].rows
            if any(b.rows != height for b in brow):
                raise DimensionError("block row heights differ")
            for i in range(height):
                rows.append([e for b in brow for e in b.entries[i]])
        return RatMatrix(rows)

    # -- basic accessors -------------------------------------------------

    def block(self, r0, r1, c0, c1) -> "RatMatrix":
        return RatMatrix([row[c0:c1] for row in self.entries[r0:r1]])

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"RatMatrix[{body}]"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return RatMatrix([
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        ])

    def __sub__(self, other):
        self._same_shape(other)
        return RatMatrix([
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        ])

    def __neg__(self):
        return RatMatrix([[-a for a in row] for row in self.entries])

    def minus_scalar(self, c) -> "RatMatrix":
        """``self - c 1`` for a square matrix, subtracting c on the diagonal only."""
        if not self.is_square():
            raise DimensionError("scalar shift of a non-square matrix")
        return RatMatrix([row[:i] + (row[i] - c,) + row[i + 1:] for i, row in enumerate(self.entries)])

    def __mul__(self, other):
        """Matrix product, or the scaling ``self.scale(other)`` by a scalar.

        The factors are multiplied in Python ints: each is cleared of its
        denominators once by :func:`cleared` (``A = a / D_a``, ``B = b / D_b``
        with int rows a, b), the int dot products of a and b are taken, and
        each entry is built once as ``Fraction(n, D_a D_b)``.
        """
        if not isinstance(other, RatMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        da, a = cleared(self)
        db, b = cleared(other)
        den = da * db
        bt = list(zip(*b))
        return RatMatrix([[Fraction(sum(map(mul, row, col)), den) for col in bt] for row in a])

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix([[c * a for a in row] for row in self.entries])

    def transpose(self) -> "RatMatrix":
        return RatMatrix(list(zip(*self.entries)))

    def apply(self, vec):
        """Multiply by a column vector given as a sequence; returns a tuple."""
        if len(vec) != self.cols:
            raise DimensionError("vector length does not match column count")
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix shapes differ")

    # -- predicates ------------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and self == self.transpose()

    def is_skew(self) -> bool:
        return self.is_square() and self == -self.transpose()

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self.entries for e in row)

    def is_positive_definite(self) -> bool:
        """Sylvester criterion: all leading principal minors positive.

        Only meaningful for symmetric rational matrices.
        """
        if not self.is_square():
            return False
        for k in range(1, self.rows + 1):
            if self.block(0, k, 0, k).det() <= 0:
                return False
        return True

    # -- elimination-based computations ----------------------------------

    def rref(self):
        """Reduced row echelon form; returns ``(matrix, pivot_columns)``.

        Row updates touch only the nonzero positions of the pivot row, which
        keeps sparse systems (such as Kronecker-form constraints) cheap; the
        reduced form is unique, so this changes no result.
        """
        m = [list(row) for row in self.entries]
        nrows, ncols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(ncols):
            pr = next((i for i in range(r, nrows) if m[i][c]), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = m[r][c]
            prow = m[r] = [e / inv for e in m[r]]
            support = [(j, b) for j, b in enumerate(prow) if b]
            for i in range(nrows):
                row = m[i]
                if i != r and row[c]:
                    f = row[c]
                    for j, b in support:
                        row[j] = row[j] - f * b
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return RatMatrix(m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right kernel, as a list of coordinate tuples.

        Each basis vector has entry 1 at "its" free column and 0 at the
        other free columns (standard echelon parametrization).
        """
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        basis = []
        for fc in free:
            v = [QZERO] * self.cols
            v[fc] = QONE
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc]
            basis.append(tuple(v))
        return basis

    def det(self):
        if not self.is_square():
            raise DimensionError("determinant of a non-square matrix")
        m = [list(row) for row in self.entries]
        n = self.rows
        det = QONE
        for c in range(n):
            pr = next((i for i in range(c, n) if m[i][c]), None)
            if pr is None:
                return QZERO
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = -det
            det = det * m[c][c]
            inv = m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] / inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    def inverse(self) -> "RatMatrix":
        if not self.is_square():
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(row) + [QONE if i == j else QZERO for j in range(n)]
               for i, row in enumerate(self.entries)]
        red, pivots = RatMatrix(aug).rref()
        if list(pivots[:n]) != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return red.block(0, n, n, 2 * n)

    def solve(self, rhs):
        """Solve ``self @ x = rhs`` exactly; returns a tuple or None."""
        if len(rhs) != self.rows:
            raise DimensionError("rhs length does not match row count")
        aug = [list(row) + [rhs[i]] for i, row in enumerate(self.entries)]
        red, pivots = RatMatrix(aug).rref()
        if self.cols in pivots:
            return None
        x = [QZERO] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.entries[r][self.cols]
        return tuple(x)


def cleared(*matrices):
    """``(D, D m_1, D m_2, ...)`` for rational matrices ``m_i``.

    D is the lcm of every denominator in the given matrices, and each
    ``D m_i`` is a list of int rows: the one place the package clears
    denominators.
    """
    den = math.lcm(*(x.denominator for m in matrices for row in m.entries for x in row))
    return (den, *([[x.numerator * (den // x.denominator) for x in row] for row in m.entries]
                   for m in matrices))


# ---------------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------------


class ExtElement:
    """Element of the exterior algebra on a based vector space.

    ``terms`` maps strictly increasing tuples of generator indices to
    nonzero coefficients; the empty tuple indexes the scalar part.
    Coefficients may be Fractions or Gaussian rationals.
    """

    __slots__ = ("base_rank", "terms")

    def __init__(self, base_rank: int, terms=None):
        clean = {}
        for idx, c in (terms or {}).items():
            idx = tuple(idx)
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ValueError(f"index tuple {idx} is not strictly increasing")
            if idx and (idx[0] < 0 or idx[-1] >= base_rank):
                raise DimensionError(f"index tuple {idx} out of range for rank {base_rank}")
            if not isinstance(c, GaussRational):
                c = rat(c)
            if c:
                clean[idx] = c
        object.__setattr__(self, "base_rank", base_rank)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("ExtElement is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(base_rank: int) -> "ExtElement":
        return ExtElement(base_rank, {})

    @staticmethod
    def scalar(base_rank: int, c) -> "ExtElement":
        return ExtElement(base_rank, {(): c})

    @staticmethod
    def generator(base_rank: int, i: int) -> "ExtElement":
        return ExtElement(base_rank, {(i,): QONE})

    @staticmethod
    def monomial(base_rank: int, indices, c=QONE) -> "ExtElement":
        return ExtElement(base_rank, {tuple(indices): c})

    @staticmethod
    def two_form(mat: RatMatrix) -> "ExtElement":
        """The 2-form sum of ``mat[i][j] e_i^e_j`` over ``i < j`` (mat skew)."""
        n = mat.rows
        return ExtElement(n, {(i, j): mat.entries[i][j] for i in range(n) for j in range(i + 1, n)})

    # -- structure -------------------------------------------------------

    def is_homogeneous(self, k: int) -> bool:
        return all(len(i) == k for i in self.terms)

    def coefficient(self, indices):
        return self.terms.get(tuple(indices), QZERO)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.base_rank == other.base_rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.base_rank, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for idx in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[idx]
            mono = "^".join(f"e{i}" for i in idx) if idx else "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)

    # -- linear operations -------------------------------------------------

    def __add__(self, other):
        self._check_rank(other)
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, QZERO) + c
        return ExtElement(self.base_rank, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExtElement(self.base_rank, {i: -c for i, c in self.terms.items()})

    def scale(self, c) -> "ExtElement":
        return ExtElement(self.base_rank, {i: c * v for i, v in self.terms.items()})

    def _check_rank(self, other):
        if not isinstance(other, ExtElement):
            raise TypeError("expected an ExtElement")
        if self.base_rank != other.base_rank:
            raise DimensionError("base ranks differ")


def merge_sign(a, b):
    """Concatenate two strictly increasing tuples; Koszul sign or None if they clash."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i factors of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def wedge(a: ExtElement, b: ExtElement) -> ExtElement:
    """Exterior product; bilinear, associative, graded-anticommutative."""
    a._check_rank(b)
    terms = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            idx, sign = merge_sign(ia, ib)
            if idx is None:
                continue
            c = terms.get(idx, QZERO) + (ca * cb if sign > 0 else -(ca * cb))
            if c:
                terms[idx] = c
            else:
                terms.pop(idx, None)
    return ExtElement(a.base_rank, terms)


def interior(bivector: ExtElement, a: ExtElement) -> ExtElement:
    """Contraction with a grade-2 element of the dual space.

    Convention: ``interior(e_i^e_j, .)`` contracts ``e_i`` first, then
    ``e_j``, each as a left derivation; on ``e_i^e_j`` itself this gives +1.
    Terms of ``a`` with grade below 2 contract to zero.
    """
    bivector._check_rank(a)
    if not bivector.is_homogeneous(2):
        raise GradeError("contraction bivector must be of pure grade 2")
    terms = {}
    for (i, j), cb in bivector.terms.items():
        for idx, ca in a.terms.items():
            if len(idx) < 2 or i not in idx or j not in idx:
                continue
            pos_i = idx.index(i)
            rest = idx[:pos_i] + idx[pos_i + 1:]
            sign = -1 if pos_i % 2 else 1
            pos_j = rest.index(j)
            if pos_j % 2:
                sign = -sign
            out = rest[:pos_j] + rest[pos_j + 1:]
            c = terms.get(out, QZERO) + (cb * ca if sign > 0 else -(cb * ca))
            if c:
                terms[out] = c
            else:
                terms.pop(out, None)
    return ExtElement(a.base_rank, terms)


def exp_grade2(a: ExtElement) -> ExtElement:
    """Exponential ``sum a^k / k!`` of a pure grade-2 element (finite sum)."""
    if a.terms and not a.is_homogeneous(2):
        raise GradeError("exponential argument must be of pure grade 2")
    total = ExtElement.scalar(a.base_rank, QONE)
    power = ExtElement.scalar(a.base_rank, QONE)
    k = 0
    while True:
        power = wedge(power, a)
        k += 1
        if not power:
            return total
        total = total + power.scale(Fraction(1, math.factorial(k)))


def induced_map(m: RatMatrix, grade: int) -> RatMatrix:
    """Matrix of the functorial action of ``m`` on the grade component.

    Basis of the grade component: strictly increasing index tuples in
    lexicographic order.  Entry ``[T, S]`` is the ``T x S`` minor of ``m``.
    """
    if not m.is_square():
        raise DimensionError("induced_map requires a square matrix")
    n = m.rows
    if grade < 0 or grade > n:
        raise GradeError(f"grade {grade} out of range for rank {n}")
    basis = list(combinations(range(n), grade))
    if grade == 0:
        return RatMatrix.identity(1)
    rows = []
    for t in basis:
        row = []
        for s in basis:
            row.append(RatMatrix([[m.entries[i][j] for j in s] for i in t]).det())
        rows.append(row)
    return RatMatrix(rows)


def derivation_map(m: RatMatrix, grade: int) -> RatMatrix:
    """Matrix of the degree-0 derivation extending ``m`` to the grade component.

    Sends ``e_S`` to ``sum_t e_{s_1}^..^(m e_{s_t})^..^e_{s_k}``; this is the
    infinitesimal (Lie-algebra) counterpart of :func:`induced_map`.
    """
    if not m.is_square():
        raise DimensionError("derivation_map requires a square matrix")
    n = m.rows
    basis = list(combinations(range(n), grade))
    pos = {s: a for a, s in enumerate(basis)}
    cols = []
    for s in basis:
        col = {}
        for t, gen in enumerate(s):
            for i in range(n):
                c = m.entries[i][gen]
                if not c:
                    continue
                if i in s and i != gen:
                    continue
                replaced = s[:t] + (i,) + s[t + 1:]
                srt = tuple(sorted(replaced))
                inv = sum(1 for x in replaced[:t] if x > i) + sum(1 for x in replaced[t + 1:] if x < i)
                key = pos[srt]
                col[key] = col.get(key, QZERO) + (c if inv % 2 == 0 else -c)
        cols.append(col)
    dim = len(basis)
    return RatMatrix([[cols[j].get(i, QZERO) for j in range(dim)] for i in range(dim)])


def apply_linear(element: ExtElement, m: RatMatrix) -> ExtElement:
    """Push an element through the algebra map sending ``e_i`` to column i of ``m``.

    ``m`` may be rectangular; the result lives on a base of rank
    ``m.rows``.  Used for basis changes and for restricting forms to
    subspaces.
    """
    if m.cols != element.base_rank:
        raise DimensionError("matrix column count must equal the element's base rank")
    out_rank = m.rows
    images = [
        ExtElement(out_rank, {(i,): m.entries[i][j] for i in range(out_rank) if m.entries[i][j]})
        for j in range(element.base_rank)
    ]
    one = QONE
    total = ExtElement.zero(out_rank)
    for idx, c in element.terms.items():
        term = ExtElement.scalar(out_rank, one)
        for g in idx:
            term = wedge(term, images[g])
            if not term:
                break
        total = total + term.scale(c)
    return total
