"""Exact linear algebra over the rationals.

Everything in this module is exact, and no floating point enters any
computation.  A matrix is kept cleared: int rows over one positive
denominator, the lcm of its entries' denominators (:class:`RatMatrix`).
Products, sums, transposes, blocks and eliminations work on those rows.
Every determinant, rank, reduced echelon form, inverse, solution and kernel
basis comes from one fraction-free integer forward elimination,
:func:`bareiss`, on the int rows; the reduced echelon form completes it
upward.  A matrix entry is always rational; a question about a rational
complex structure that lives over Q(i) is answered by its callers over Q,
and a Q(i) value is the ``(re, im)`` pair of its rational parts.

This module does not import :mod:`fractions`.  A ``Fraction`` is built only
where a caller asks for one: the entries, the determinant of a matrix that
is not integral, a kernel basis or a solution, and a matrix made from
Fraction or string entries.  Those paths import :mod:`flattori._rational`,
which holds the scalar helpers ``Q``, ``QZERO``, ``QONE`` and ``rat``.  An
integral determinant is an int, definiteness reads integer leading minors,
and :func:`ratio_str` writes a rational from its int numerator and
denominator, so the start-up core and the search never load ``fractions``.
The exterior algebra lives in :mod:`flattori.exterior`, which the commands
that need it import, so that the others do not compile it on start-up.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import add, mul

from .errors import DimensionError


def ratio_str(p: int, q: int) -> str:
    """The rational ``p / q`` (ints, q > 0) in lowest terms, as ``"p/q"``,
    or ``"p"`` when its denominator is 1."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def rat_str(x) -> str:
    """Serialize a rational (a Fraction or an int) by :func:`ratio_str`."""
    return ratio_str(x.numerator, x.denominator)


class RatMatrix:
    """Dense exact rational matrix, ``num / den``; instances are immutable.

    ``den`` is positive and ``num`` is a tuple of int rows whose gcd with
    ``den`` is 1, so ``den`` is the lcm of the entries' denominators and
    equal matrices have equal ``(den, num)``.  Every operation below works
    on those rows and returns the same form; ``entries``, the Fractions,
    are built when first read.  A matrix is made from rows of ints,
    Fractions or strings like ``"3/4"``, or by :meth:`over` from its
    cleared form.
    """

    __slots__ = ("rows", "cols", "den", "num", "_entries")

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        if not all(type(e) is int for row in rows for e in row):
            from ._rational import rat
            rows = [[e if type(e) is int else rat(e) for e in row] for row in rows]
        if len({*map(len, rows)}) != 1 or not rows[0]:
            raise DimensionError("matrix rows must be non-empty and of equal length")
        den = math.lcm(*(x.denominator for row in rows for x in row))
        self._set(den, [[x.numerator * (den // x.denominator) for x in row] for row in rows])

    def _set(self, den, num):
        """Hold ``num / den`` (den a nonzero int, num int rows), divided by
        the signed gcd that leaves den positive and coprime to the rows."""
        g = math.gcd(den, *chain.from_iterable(num))
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            num = [[x // g for x in row] for row in num]
        for name, value in zip(self.__slots__, (len(num), len(num[0]), den,
                                                tuple(map(tuple, num)), None)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, *a):
        raise AttributeError("RatMatrix is immutable")

    @property
    def entries(self):
        """The entries as tuples of Fractions, built on the first read."""
        if self._entries is None:
            from ._rational import Q
            object.__setattr__(self, "_entries", tuple(
                tuple(Q(x, self.den) for x in row) for row in self.num))
        return self._entries

    # -- constructors ----------------------------------------------------

    @staticmethod
    def over(den, rows) -> "RatMatrix":
        """The matrix ``rows / den`` for a nonzero int den and non-empty int
        rows of one length, brought to lowest terms."""
        return object.__new__(RatMatrix)._set(den, rows)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix.over(1, [[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix.over(1, [[0] * cols for _ in range(rows)])

    @staticmethod
    def from_blocks(blocks) -> "RatMatrix":
        """Assemble a matrix from a 2-d list of equally aligned blocks."""
        den = math.lcm(*(b.den for brow in blocks for b in brow))
        rows = []
        for brow in blocks:
            if any(b.rows != brow[0].rows for b in brow):
                raise DimensionError("block row heights differ")
            rows += [list(chain(*parts)) for parts in zip(*[_scaled(b, den) for b in brow])]
        return RatMatrix.over(den, rows)

    # -- basic accessors -------------------------------------------------

    def block(self, r0, r1, c0, c1) -> "RatMatrix":
        return RatMatrix.over(self.den, [row[c0:c1] for row in self.num[r0:r1]])

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash(self.num)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"RatMatrix[{body}]"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix shapes differ")
        den, a, b = cleared(self, other)
        return RatMatrix.over(den, [list(map(add, r, s)) for r, s in zip(a, b)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return RatMatrix.over(self.den, [[-x for x in row] for row in self.num])

    def minus_scalar(self, c) -> "RatMatrix":
        """``self - c 1`` for a square matrix."""
        if not self.is_square():
            raise DimensionError("scalar shift of a non-square matrix")
        return self - RatMatrix.identity(self.rows).scale(c)

    def __mul__(self, other):
        """Matrix product, or the scaling ``self.scale(other)`` by a scalar.

        ``(a / D_a)(b / D_b) = ab / (D_a D_b)``: the dot products of the int
        rows are taken in ints, and the product is reduced once.
        """
        if not isinstance(other, RatMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = list(zip(*other.num))
        return RatMatrix.over(self.den * other.den,
                              [[sum(map(mul, row, col)) for col in cols] for row in self.num])

    def scale(self, c) -> "RatMatrix":
        if type(c) is not int:
            from ._rational import rat
            c = rat(c)
        return RatMatrix.over(self.den * c.denominator,
                              [[c.numerator * x for x in row] for row in self.num])

    __rmul__ = scale

    def transpose(self) -> "RatMatrix":
        return RatMatrix.over(self.den, list(zip(*self.num)))

    def apply(self, vec):
        """Multiply by a column vector given as a sequence; returns a tuple."""
        if len(vec) != self.cols:
            raise DimensionError("vector length does not match column count")
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    # -- predicates ------------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and self == self.transpose()

    def is_skew(self) -> bool:
        return self.is_square() and self == -self.transpose()

    def is_integral(self) -> bool:
        return self.den == 1

    def is_positive_definite(self) -> bool:
        """Sylvester criterion: all leading principal minors positive.

        Only meaningful for symmetric rational matrices.  The k-th leading
        minor of the int rows is ``den^k`` times that of the matrix, so it
        has the same sign, and :func:`int_det` reads it off :func:`bareiss`.
        """
        num = self.num
        return self.is_square() and all(int_det([row[:k] for row in num[:k]]) > 0
                                        for k in range(1, self.rows + 1))

    # -- elimination-based computations ----------------------------------

    def rref(self):
        """Reduced row echelon form; returns ``(matrix, pivot_columns)``.

        :func:`bareiss` leaves echelon rows E_r whose pivot entries are the
        successive pivots; the last one, p, times the reduced rows is an
        integer matrix (Cramer), and it is completed upward from the last
        pivot row: ``p R_r = (p E_r - sum_(s>r) E_r[c_s] p R_s) / E_r[c_r]``,
        each division exact.  A matrix with no pivot comes back unchanged.
        """
        pivots, _, rows = bareiss(self.num)
        p = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
        for r, c in reversed([*enumerate(pivots)]):
            row = rows[r]
            done = [p * x for x in row[c:]]
            for s, cs in enumerate(pivots[r + 1:], r + 1):
                if row[cs]:
                    done = [x - row[cs] * y for x, y in zip(done, rows[s][c:])]
            rows[r] = row[:c] + [x // row[c] for x in done]
        return RatMatrix.over(p, rows), pivots

    def rank(self) -> int:
        return len(bareiss(self.num)[0])

    def kernel_basis(self):
        """Basis of the right kernel, as a list of coordinate tuples.

        Each basis vector has entry 1 at "its" free column and 0 at the
        other free columns (standard echelon parametrization).
        """
        from ._rational import QONE, QZERO
        red, pivots = self.rref()
        basis = []
        for fc in (c for c in range(self.cols) if c not in pivots):
            v = [QZERO] * self.cols
            v[fc] = QONE
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc]
            basis.append(tuple(v))
        return basis

    def det(self):
        """``p / den^n`` for p the :func:`int_det` of the int rows: an int
        for an integral matrix, else a Fraction."""
        if not self.is_square():
            raise DimensionError("determinant of a non-square matrix")
        p = int_det(self.num)
        if self.den == 1:
            return p
        from ._rational import Q
        return Q(p, self.den ** self.rows)

    def inverse(self) -> "RatMatrix":
        if not self.is_square():
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        red, pivots = RatMatrix.from_blocks([[self, RatMatrix.identity(n)]]).rref()
        if pivots[:n] != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return red.block(0, n, n, 2 * n)

    def solve(self, rhs):
        """Solve ``self @ x = rhs`` exactly; returns a tuple or None."""
        # the kernel vector of [A | -b] that is 1 at the last column, if any
        basis = RatMatrix.from_blocks([[self, -RatMatrix([[x] for x in rhs])]]).kernel_basis()
        return basis[-1][:-1] if basis and basis[-1][-1] else None


def _scaled(m, den):
    """The int rows of ``den * m``, for a multiple den of ``m.den``."""
    f = den // m.den
    return [[f * x for x in row] for row in m.num]


def cleared(*matrices):
    """``(D, D m_1, D m_2, ...)`` for rational matrices ``m_i``.

    D is the lcm of the matrices' denominators, and each ``D m_i`` is a
    list of int rows: a matrix's own ``(den, num)`` rescaled to the common D.
    """
    den = math.lcm(*(m.den for m in matrices))
    return (den, *(_scaled(m, den) for m in matrices))


def int_det(rows):
    """The determinant of a square integer matrix given by its rows: the
    signed last pivot of :func:`bareiss`, or 0 when it finds fewer pivots
    than rows."""
    pivots, last, _ = bareiss(rows)
    return last if len(pivots) == len(rows) else 0


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
