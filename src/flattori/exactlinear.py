"""Exact linear algebra over the rationals.

Everything in this module is exact: matrices are dense tuples of tuples of
`fractions.Fraction`.  No floating point enters any computation.  Every
determinant, rank, reduced echelon form, inverse, solution and kernel basis
comes from one fraction-free integer forward elimination, :func:`bareiss`,
on the int rows that :func:`cleared` returns; the reduced echelon form
completes it upward.  A matrix entry is always rational; a question about a
rational complex structure that lives over Q(i) is answered by its callers
over Q, and a Q(i) value is the ``(re, im)`` pair of its rational parts.
The exterior algebra lives in :mod:`flattori.exterior`, which the commands
that need it import, so that the others do not compile it on start-up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import DimensionError

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

        :func:`bareiss` leaves echelon rows E_r whose pivot entries are the
        successive pivots; the last one, p, times the reduced rows is an
        integer matrix (Cramer), and it is completed upward from the last
        pivot row: ``p R_r = (p E_r - sum_(s>r) E_r[c_s] p R_s) / E_r[c_r]``,
        each division exact.  A matrix with no pivot comes back unchanged.
        """
        pivots, _, rows = bareiss(cleared(self)[1])
        p = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            row = rows[r]
            done = [p * x for x in row[c:]]
            for s in range(r + 1, len(pivots)):
                f = row[pivots[s]]
                if f:
                    done = [x - f * y for x, y in zip(done, rows[s][c:])]
            rows[r] = row[:c] + [x // row[c] for x in done]
        return RatMatrix([[Fraction(x, p) for x in row] for row in rows]), pivots

    def rank(self) -> int:
        return len(bareiss(cleared(self)[1])[0])

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
        """``p / D^n`` for the signed last pivot p of :func:`bareiss` on the
        rows cleared by D, or 0 when there are fewer than n pivots."""
        if not self.is_square():
            raise DimensionError("determinant of a non-square matrix")
        den, a = cleared(self)
        pivots, last, _ = bareiss(a)
        return Fraction(last, den ** self.rows) if len(pivots) == self.rows else QZERO

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


def bareiss(rows):
    """``(pivot columns, signed last pivot, echelon rows)`` of the
    fraction-free forward elimination of integer rows: the one elimination
    over Q, which :meth:`RatMatrix.rref` completes upward.

    Bareiss (Math. Comp. 22, 1968): a pivot p in row r turns every row x
    below it into ``(x p - x_c y) / p'``, y the pivot row and p' the previous
    pivot, and every division is exact.  A column with no pivot left is
    passed over, so the pivots count the rank; a square matrix of full rank
    has determinant the last pivot times the sign of the row swaps.  A row
    whose entry in the pivot column is zero would only be scaled by
    ``p / p'``, and those factors telescope, so it is left alone: ``base[i]``
    is the pivot of the last step that changed row i, its true entries are
    the stored ones times ``prev / base[i]``, and the next step that changes
    it divides by ``base[i]``.  Sparse rows then cost far less than a sweep
    per step.  A pivot row is caught up when it is chosen, and no later step
    touches it, so echelon row r holds the r-th pivot in its pivot column;
    the rows past the last pivot end up zero.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    base = [1] * nrows
    pivots = []
    sign, prev = 1, 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        swap = next((i for i in range(r, nrows) if a[i][c]), None)
        if swap is None:
            continue
        if swap != r:
            a[r], a[swap] = a[swap], a[r]
            base[r], base[swap] = base[swap], base[r]
            sign = -sign
        top = a[r]
        if base[r] != prev:
            top[c:] = [x * prev // base[r] for x in top[c:]]
        base[r] = pivot = top[c]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[c]
            if f:
                # a row below is zero left of c, like the pivot row
                b = base[i]
                row[c:] = [(x * pivot - f * y) // b for x, y in zip(row[c:], top[c:])]
                base[i] = pivot
        pivots.append(c)
        prev = pivot
    return tuple(pivots), sign * prev, a


def __getattr__(name):
    # perfbench/traced_cli.py's trace plan still looks these two up here.
    if name in ("wedge", "induced_map"):
        from . import exterior
        return getattr(exterior, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
