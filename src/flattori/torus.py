"""Flat-torus data and the doubled-lattice structures.

A torus is given by exact rational matrices: a complex structure ``I`` with
``I^2 = -1``, a flat Kaehler metric ``G`` compatible with ``I``, and a
constant skew 2-form ``B``.  The winding lattice is ``Z^{2d}`` in the chosen
basis and its dual is the momentum lattice.

On the doubled space (windings plus momenta, in that block order) we carry:

* the split pairing ``q = [[0, 1], [1, 0]]``;
* the complex structure ``calI`` built from ``(I, B)``;
* the structure ``calJ`` built from ``(omega, B)`` with ``omega = G I``;
* the product structure ``calItilde = diag(I, -I^t)``.

All reported zero-mode quantities are the exact rationals ``p^2/2`` and
``pbar^2/2``; the overall ``1/sqrt(2)`` in the momentum operators is never
materialized (it cancels in every statement the package checks).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import mul

from ._record import Check, Record, failures
from .errors import DimensionError, ValidationError
from .exactlinear import Q, QZERO, RatMatrix

BLOCK_CONVENTION = "winding-then-momentum"

HALF = Fraction(1, 2)


class TorusData(Record):
    """A flat Kaehler torus with B-field, in a fixed lattice basis."""

    d: int
    I: RatMatrix
    G: RatMatrix
    B: RatMatrix
    label: str = ""

    def __post_init__(self):
        n = 2 * self.d
        for name in ("I", "G", "B"):
            m = getattr(self, name)
            if m.rows != n or m.cols != n:
                raise DimensionError(f"{name} must be {n}x{n} for d={self.d}")

    @property
    def rank(self) -> int:
        return 2 * self.d

    # Derived data: each is computed on first use and cached on the instance
    # (cached_property writes the instance dict, which a Record keeps and
    # does not guard), so a torus is validated, has G inverted and has its
    # Kaehler form, Narain form and doubled structures built at most once.
    # Everything past ``validation`` requires valid data and raises the
    # ValidationError of :func:`require_valid`.

    @cached_property
    def validation(self) -> tuple:
        return validate(self)

    @cached_property
    def ginv(self) -> RatMatrix:
        require_valid(self)
        return self.G.inverse()

    @cached_property
    def _omega(self) -> RatMatrix:
        require_valid(self)
        return self.G * self.I

    @cached_property
    def _narain(self) -> RatMatrix:
        ginv, B = self.ginv, self.B
        bg = B * ginv
        return RatMatrix.from_blocks([[self.G - bg * B, bg], [-(ginv * B), ginv]])

    @cached_property
    def _doubled(self) -> DoubledStructure:
        require_valid(self)
        n = self.rank
        I, G, B = self.I, self.G, self.B
        It = I.transpose()
        z = RatMatrix.zero(n, n)
        cal_i = RatMatrix.from_blocks([[I, z], [B * I + It * B, -It]])
        ig = I * self.ginv
        cal_j = RatMatrix.from_blocks([[-(ig * B), ig], [G * I - B * ig * B, B * ig]])
        cal_it = RatMatrix.from_blocks([[I, z], [z, -It]])
        minus_id = -RatMatrix.identity(2 * n)
        if cal_i * cal_i != minus_id or cal_j * cal_j != minus_id:
            raise ValidationError("doubled structures fail to square to -id (internal error)")
        return DoubledStructure(q_matrix(self.d), cal_i, cal_j, cal_it)


def validate(t: TorusData) -> tuple:
    """Check the structural invariants of a torus, one :class:`Check` each."""
    n = t.rank
    ident = RatMatrix.identity(n)
    return (
        Check("I_squares_to_minus_id", t.I * t.I == -ident),
        Check("G_symmetric", t.G.is_symmetric()),
        Check("G_positive_definite", t.G.is_symmetric() and t.G.is_positive_definite()),
        Check("G_hermitian_for_I", t.I.transpose() * t.G * t.I == t.G),
        Check("B_skew", t.B.is_skew()),
    )


def require_valid(t: TorusData) -> None:
    bad = failures(t.validation)
    if bad:
        raise ValidationError(f"invalid torus {t.label!r}: {', '.join(bad)}")


def omega(t: TorusData) -> RatMatrix:
    """The Kaehler form ``G I``; skew and invertible for valid data."""
    return t._omega


def q_matrix(d: int) -> RatMatrix:
    """The split symmetric pairing on windings + momenta."""
    n = 2 * d
    z = RatMatrix.zero(n, n)
    i = RatMatrix.identity(n)
    return RatMatrix.from_blocks([[z, i], [i, z]])


class DoubledStructure(Record):
    q: RatMatrix
    calI: RatMatrix
    calJ: RatMatrix
    calItilde: RatMatrix


def doubled(t: TorusData) -> DoubledStructure:
    """Assemble q, calI, calJ, calItilde for a valid torus (built once per torus).

    Block formulas (winding block first):

    * ``calI = [[I, 0], [B I + I^t B, -I^t]]``
    * ``calJ = [[-I G^-1 B, I G^-1], [G I - B I G^-1 B, B I G^-1]]``
    * ``calItilde = [[I, 0], [0, -I^t]]``

    The squares are re-checked on the build; a failure would be a bug, not
    bad input.
    """
    return t._doubled


def zero_mode_momenta(t: TorusData, w, m):
    """``(p, pbar, p^2/2, pbar^2/2)`` of the charge with windings w, momenta m.

    ``p = m - (B+G)w`` and ``pbar = m + (G-B)w`` are sqrt(2) times the
    physical momenta, and ``p^2/2 = G^-1(p,p)/2``.  No command calls this:
    it is the tests' oracle for :func:`narain_form`.
    """
    require_valid(t)
    if len(w) != t.rank or len(m) != t.rank:
        raise DimensionError("charge vector length does not match torus rank")
    bw, gw = t.B.apply(w), t.G.apply(w)
    p = tuple(mi - b - g for mi, b, g in zip(m, bw, gw))
    pbar = tuple(mi + g - b for mi, b, g in zip(m, bw, gw))
    return (p, pbar, *(HALF * sum(map(mul, v, t.ginv.apply(v))) for v in (p, pbar)))


def narain_form(t: TorusData) -> RatMatrix:
    """The positive form with ``gamma^t N gamma = p^2/2 + pbar^2/2``.

    Built from its blocks, ``[[G - B G^-1 B, B G^-1], [-G^-1 B, G^-1]]``.
    """
    return t._narain


def standard_complex_structure(d: int) -> RatMatrix:
    """Block-diagonal rotation J on each coordinate pair (the square torus I)."""
    n = 2 * d
    rows = [[QZERO] * n for _ in range(n)]
    for k in range(d):
        rows[2 * k][2 * k + 1] = Q(-1)
        rows[2 * k + 1][2 * k] = Q(1)
    return RatMatrix(rows)


def square_torus(d: int, label: str = "") -> TorusData:
    """Product of unit square tori: I standard, G identity, B zero."""
    n = 2 * d
    return TorusData(
        d=d,
        I=standard_complex_structure(d),
        G=RatMatrix.identity(n),
        B=RatMatrix.zero(n, n),
        label=label or f"square-{d}",
    )


def random_valid_torus(rng, d: int, steps: int = 6, b_bound: int = 2,
                       scale_bound: int = 3) -> TorusData:
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
    D = RatMatrix.diag(scales)
    I0 = standard_complex_structure(d)
    I = S.inverse() * I0 * S
    G = S.transpose() * D * S
    b = [[QZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = Q(rng.randint(-b_bound, b_bound), rng.randint(1, 2))
            b[i][j] = c
            b[j][i] = -c
    return TorusData(d=d, I=I, G=G, B=RatMatrix(b), label="random")
