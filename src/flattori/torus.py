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

from ._record import Record
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
    # doubled structures built at most once.  Everything past ``validation`` requires
    # valid data and raises the ValidationError of :func:`require_valid`.

    @cached_property
    def validation(self) -> ValidationReport:
        return validate(self)

    @cached_property
    def ginv(self) -> RatMatrix:
        require_valid(self)
        return self.G.inverse()

    @cached_property
    def momentum_maps(self):
        """``(M_p, M_pbar) = ([-(B+G) | 1], [G-B | 1])``.

        ``p = M_p gamma`` and ``pbar = M_pbar gamma`` for a charge gamma in
        winding-then-momentum order.
        """
        require_valid(self)
        ident = RatMatrix.identity(self.rank)
        return (RatMatrix.from_blocks([[-(self.B + self.G), ident]]),
                RatMatrix.from_blocks([[self.G - self.B, ident]]))

    @cached_property
    def half_norm_forms(self):
        """``M^t G^-1 M / 2`` for each momentum map: ``p^2/2``, ``pbar^2/2`` as forms on charges."""
        return tuple((m.transpose() * self.ginv * m).scale(HALF) for m in self.momentum_maps)

    @cached_property
    def _omega(self) -> RatMatrix:
        require_valid(self)
        return self.G * self.I

    @cached_property
    def _narain(self) -> RatMatrix:
        p_form, pbar_form = self.half_norm_forms
        return p_form + pbar_form

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


class ValidationCheck(Record):
    name: str
    ok: bool


class ValidationReport(Record):
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c.name for c in self.checks if not c.ok]


def validate(t: TorusData) -> ValidationReport:
    """Check the structural invariants of a torus, one report line each."""
    n = t.rank
    ident = RatMatrix.identity(n)
    checks = (
        ValidationCheck("I_squares_to_minus_id", t.I * t.I == -ident),
        ValidationCheck("G_symmetric", t.G.is_symmetric()),
        ValidationCheck("G_positive_definite", t.G.is_symmetric() and t.G.is_positive_definite()),
        ValidationCheck("G_hermitian_for_I", t.I.transpose() * t.G * t.I == t.G),
        ValidationCheck("B_skew", t.B.is_skew()),
    )
    return ValidationReport(checks)


def require_valid(t: TorusData) -> None:
    report = t.validation
    if not report.ok:
        raise ValidationError(f"invalid torus {t.label!r}: {', '.join(report.failures())}")


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


class ChargeVector(Record):
    """An integral winding/momentum pair ``(w, m)``."""

    w: tuple
    m: tuple

    def __post_init__(self):
        if any(not isinstance(x, int) for x in self.w + self.m):
            raise ValueError("charge vectors must have integer entries")
        if len(self.w) != len(self.m):
            raise DimensionError("winding and momentum lengths differ")

    def coords(self):
        return self.w + self.m


class ZeroModes(Record):
    """The sqrt(2)-rescaled zero-mode momenta and their half-norms.

    ``p = m - (B+G)w`` and ``pbar = m + (G-B)w`` are exact rational
    covectors equal to sqrt(2) times the physical momenta; the reported
    half-norms ``G^-1(p,p)/2`` are the quantities entering every identity.
    """

    p: tuple
    pbar: tuple
    p2_half: Fraction
    pbar2_half: Fraction


def zero_mode_momenta(t: TorusData, c: ChargeVector) -> ZeroModes:
    require_valid(t)
    if len(c.w) != t.rank:
        raise DimensionError("charge vector length does not match torus rank")
    gamma = c.coords()
    p, pbar = (m.apply(gamma) for m in t.momentum_maps)
    p2_half, pbar2_half = (sum(x * y for x, y in zip(gamma, form.apply(gamma)))
                           for form in t.half_norm_forms)
    return ZeroModes(p, pbar, p2_half, pbar2_half)


def q_value(c: ChargeVector) -> Fraction:
    return Fraction(2 * sum(a * b for a, b in zip(c.w, c.m)))


def narain_form(t: TorusData) -> RatMatrix:
    """The positive form with ``gamma^t N gamma = p^2/2 + pbar^2/2``.

    The sum of the two half-norm forms; in blocks,
    ``[[G - B G^-1 B, B G^-1], [-G^-1 B, G^-1]]``.
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


def random_valid_torus(rng: random.Random, d: int, steps: int = 6, b_bound: int = 2,
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
