"""Lattice-level relations between tori: isomorphism, mirror, derived equivalence.

A relation is certified by an integral unimodular map ``g`` on the doubled
lattices that preserves the split pairing q and intertwines the doubled
structures in the pattern belonging to the relation kind:

* ``iso``:        g calI_1 = calI_2 g   and   g calJ_1 = calJ_2 g
* ``mirror``:     g calI_1 = calJ_2 g   and   g calJ_1 = calI_2 g
* ``derived_eq``: g calItilde_1 = calItilde_2 g

Existence search: the intertwining constraints are linear, so we first
compute the rational solution space, saturate it to the lattice of all
integral solutions, and then enumerate small integer coordinate vectors
over a size-reduced basis, keeping the first candidate that satisfies the
quadratic q-congruence.  A negative answer is only "none within bound": the
full group is infinite and bounded search proves nothing about existence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from . import kernels
from ._intlat import integral_coordinate_lattice, pair_reduce
from .errors import BudgetExceededError, DimensionError, ValidationError
from .exactlinear import QZERO, RatMatrix
from .torus import ChargeVector, TorusData, doubled, q_matrix, q_value, require_valid

KINDS = ("iso", "mirror", "derived_eq")

DEFAULT_NODE_BUDGET = 10 ** 7


@dataclass(frozen=True)
class LatticeMap:
    """An integral map between doubled lattices with a declared relation kind."""

    g: RatMatrix
    source: TorusData
    target: TorusData
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        n = 4 * self.source.d
        if self.g.rows != n or self.g.cols != n:
            raise DimensionError(f"map must be {n}x{n}")
        if self.source.d != self.target.d:
            raise DimensionError("source and target dimensions differ")
        if not self.g.is_integral():
            raise ValidationError("lattice map must have integer entries")
        if abs(self.g.det()) != 1:
            raise ValidationError("lattice map is not unimodular")

    def det(self):
        return self.g.det()


@dataclass(frozen=True)
class MapCheck:
    name: str
    ok: bool


@dataclass(frozen=True)
class Certificate:
    """Outcome of verify_map: named exact matrix equalities, all or nothing."""

    map: LatticeMap
    checks: tuple

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_failure(self):
        return next((c.name for c in self.checks if not c.ok), None)


def _check_plan(kind: str):
    if kind == "iso":
        return (("intertwines_calI", "calI", "calI"), ("intertwines_calJ", "calJ", "calJ"))
    if kind == "mirror":
        return (("swaps_calI_to_calJ", "calI", "calJ"), ("swaps_calJ_to_calI", "calJ", "calI"))
    return (("intertwines_calItilde", "calItilde", "calItilde"),)


def verify_map(m: LatticeMap) -> Certificate:
    """Check every defining equality of the declared kind, exactly.

    The checks run in the contract order (q-congruence first, then the
    structure intertwinings); ``first_failure`` names the refuting equality.
    Non-unimodular maps cannot be constructed in the first place, so a
    precondition violation surfaces before any check runs.
    """
    d1 = doubled(m.source)
    d2 = doubled(m.target)
    q1 = q_matrix(m.source.d)
    q2 = q_matrix(m.target.d)
    checks = [MapCheck("preserves_q", m.g.transpose() * q2 * m.g == q1)]
    for name, src_attr, tgt_attr in _check_plan(m.kind):
        lhs = m.g * getattr(d1, src_attr)
        rhs = getattr(d2, tgt_attr) * m.g
        checks.append(MapCheck(name, lhs == rhs))
    return Certificate(m, tuple(checks))


# ---------------------------------------------------------------------------
# intertwiner space and search
# ---------------------------------------------------------------------------


def _constraint_pairs(t1: TorusData, t2: TorusData, kind: str):
    d1 = doubled(t1)
    d2 = doubled(t2)
    if kind == "iso":
        return ((d1.calI, d2.calI), (d1.calJ, d2.calJ))
    if kind == "mirror":
        return ((d1.calI, d2.calJ), (d1.calJ, d2.calI))
    return ((d1.calItilde, d2.calItilde),)


def _solution_space(t1, t2, kind):
    """RREF kernel basis of the linear intertwining constraints ``g A = B g``.

    Unknown is vec(g), row-major; constraint ``g A - B g = 0`` contributes
    the rows of ``A^t (x) id - id (x) B`` in Kronecker form.
    """
    n = 4 * t1.d
    rows = []
    for a_mat, b_mat in _constraint_pairs(t1, t2, kind):
        for i in range(n):
            for j in range(n):
                row = [QZERO] * (n * n)
                for k in range(n):
                    row[i * n + k] += a_mat.entries[k][j]
                    row[k * n + j] -= b_mat.entries[i][k]
                rows.append(row)
    return RatMatrix(rows).kernel_basis()


def _integral_basis(rational_basis, n):
    """Lattice basis of all integral matrices in the span, size-reduced."""
    if not rational_basis:
        return []
    # echelon structure: coordinates w.r.t. the kernel basis are exactly the
    # free-position entries, so an element is integral iff its coordinate
    # vector t is integral and the pivot coordinates of sum t_j b_j are too.
    denom = lcm(*(x.denominator for v in rational_basis for x in v))
    coord_rows = []
    for pos in range(n * n):
        row = [int(v[pos] * denom) for v in rational_basis]
        coord_rows.append(row)
    lattice = integral_coordinate_lattice(coord_rows, denom)
    # entry pos of sum t_j b_j is (coord_rows[pos] . t) / denom, in integers
    mats = []
    for tvec in lattice:
        scaled = [sum(tj * c for tj, c in zip(tvec, row)) for row in coord_rows]
        assert all(x % denom == 0 for x in scaled)
        mats.append([x // denom for x in scaled])
    return pair_reduce(mats)


def intertwiner_space(t1: TorusData, t2: TorusData, kind: str):
    """Basis (over Q) of maps satisfying the linear intertwining constraints.

    The returned matrices are a size-reduced basis of the lattice of all
    *integral* solutions, which is also a Q-basis of the solution space.
    The quadratic q-condition is not imposed here.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if t1.d != t2.d:
        raise DimensionError("tori must have the same dimension")
    n = 4 * t1.d
    basis = _solution_space(t1, t2, kind)
    flat = _integral_basis(basis, n)
    return [RatMatrix([row[i * n:(i + 1) * n] for i in range(n)]) for row in flat]


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a bounded search: a certificate, or none-within-bound."""

    certificate: Certificate | None
    nodes_used: int
    bound: int
    exhausted: bool

    @property
    def found(self) -> bool:
        return self.certificate is not None


def search_relation(t1: TorusData, t2: TorusData, kind: str, coeff_bound: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Bounded deterministic search for a relation certificate.

    Enumerates integer coordinate vectors of max-norm at most ``coeff_bound``
    over the integral intertwiner basis, in the canonical candidate order
    (height shell, then support size, then positions, then digits); the
    first q-congruent candidate is returned as a verified certificate.

    A ``found=False`` outcome means only "none within bound".  Exceeding the
    node budget raises :class:`BudgetExceededError` with partial progress.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    basis = intertwiner_space(t1, t2, kind)
    n = 4 * t1.d
    flat = [[int(m.entries[i][j]) for i in range(n) for j in range(n)] for m in basis]
    hits, nodes, exhausted = kernels.run_filter(flat, n, coeff_bound, node_budget, max_hits=1)
    if not hits:
        if not exhausted:
            raise BudgetExceededError(
                f"search exhausted its node budget ({node_budget}) before covering "
                f"height {coeff_bound}", nodes, node_budget)
        return SearchOutcome(None, nodes, coeff_bound, True)
    coords = hits[0]
    g = None
    for c, m in zip(coords, basis):
        term = m.scale(c)
        g = term if g is None else g + term
    cert = verify_map(LatticeMap(g=g, source=t1, target=t2, kind=kind))
    if not cert.valid:
        raise AssertionError("search produced a non-verifying candidate (internal error)")
    return SearchOutcome(cert, nodes, coeff_bound, False)


# ---------------------------------------------------------------------------
# spectrum fingerprint (necessary-condition oracle)
# ---------------------------------------------------------------------------


def _half_norm_forms(t: TorusData):
    """Integer forms ``A_p, A_pbar`` and a denominator D for the momentum half-norms.

    ``p2_half = gamma^t A_p gamma / D`` with ``A_p / D = M^t G^-1 M / 2`` for
    ``M = [-(B+G) | 1]``, and likewise ``pbar2_half`` with ``M = [G-B | 1]``;
    gamma is the charge in winding-then-momentum order.
    """
    ident = RatMatrix.identity(t.rank)
    ginv = t.G.inverse()
    forms = [m.transpose() * ginv * m
             for m in (RatMatrix.from_blocks([[-(t.B + t.G), ident]]),
                       RatMatrix.from_blocks([[t.G - t.B, ident]]))]
    den = lcm(*(x.denominator for form in forms for row in form.entries for x in row))
    p_form, pbar_form = ([[int(x * den) for x in row] for row in form.entries]
                         for form in forms)
    return p_form, pbar_form, 2 * den


def _quadratic(form, x):
    return sum(xi * sum(a * xj for a, xj in zip(row, x)) for xi, row in zip(x, form) if xi)


def spectrum_fingerprint(t: TorusData, height: int):
    """Sorted multiset of ``(q(gamma,gamma), p^2/2, pbar^2/2)`` triples.

    Enumerates all charge vectors of max-norm at most ``height``; any
    isomorphism certificate must map triples to equal triples, so unequal
    fingerprints refute isomorphism as far as the enumerated window goes.
    The torus is validated and ``G`` inverted once; each charge then costs
    integer arithmetic only (the triples equal those built from
    :func:`~flattori.torus.zero_mode_momenta` charge by charge).
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    require_valid(t)
    half = t.rank
    p_form, pbar_form, den = _half_norm_forms(t)
    triples = []
    rng = range(-height, height + 1)
    for coords in product(rng, repeat=2 * half):
        c = ChargeVector(coords[:half], coords[half:])
        triples.append((q_value(c), Fraction(_quadratic(p_form, coords), den),
                        Fraction(_quadratic(pbar_form, coords), den)))
    triples.sort()
    return tuple(triples)


# ---------------------------------------------------------------------------
# chiral transports of a certificate (left/right oscillator identifications)
# ---------------------------------------------------------------------------


def chiral_transports(m: LatticeMap):
    """The induced maps on left/right moving zero-mode labels.

    For a map ``g`` intertwining the structures, the rescaled momenta
    transform linearly: ``p_2(g gamma) = O_L p_1(gamma)`` and likewise
    ``O_R`` for pbar.  Both are solved from the momentum block and verified
    on the winding block; a mismatch raises (the map is then not chiral).

    Returned as vector-index maps (conjugated by the metrics), so they act
    on oscillator labels directly: ``(OL_vec, OR_vec)`` with
    ``OL_vec = G_2^-1 O_L G_1``.
    """
    t1, t2 = m.source, m.target
    n = t1.rank
    p1 = RatMatrix.from_blocks([[-(t1.B + t1.G), RatMatrix.identity(n)]])
    p2 = RatMatrix.from_blocks([[-(t2.B + t2.G), RatMatrix.identity(n)]])
    pb1 = RatMatrix.from_blocks([[t1.G - t1.B, RatMatrix.identity(n)]])
    pb2 = RatMatrix.from_blocks([[t2.G - t2.B, RatMatrix.identity(n)]])

    def solve(row1, row2):
        prod = row2 * m.g
        o = prod.block(0, n, n, 2 * n)  # momentum block of row1 is the identity
        if o * row1 != prod:
            raise ValidationError("map does not transport chiral momenta linearly")
        return o

    o_l = solve(p1, p2)
    o_r = solve(pb1, pb2)
    g2inv = t2.G.inverse()
    return g2inv * o_l * t1.G, g2inv * o_r * t1.G
