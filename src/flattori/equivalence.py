"""Lattice-level relations between tori: isomorphism, mirror, derived equivalence.

A relation is certified by an integral unimodular map ``g`` on the doubled
lattices that preserves the split pairing q and intertwines the doubled
structures in the pattern belonging to the relation kind:

* ``iso``:        g calI_1 = calI_2 g   and   g calJ_1 = calJ_2 g
* ``mirror``:     g calI_1 = calJ_2 g   and   g calJ_1 = calI_2 g
* ``derived_eq``: g calItilde_1 = calItilde_2 g

Existence search: the intertwining constraints are linear, so the lattice of
all integral solutions is the integer kernel of the constraint rows (built in
integers from the structures scaled by the lcm D of their denominators, see
:func:`~flattori.exactlinear.cleared`); we then enumerate small integer
coordinate vectors over a size-reduced basis of it, keeping the first
candidate that satisfies the quadratic q-congruence.  An ``iso`` or
``mirror`` certificate also preserves the Narain form N, so an exhausted
window holding the whole ellipsoid ``tr(N_1^-1 g^t N_2 g) = 4d`` refutes the
relation; otherwise (and always for ``derived_eq``, whose group is infinite)
a search without a hit means only "none within bound", and one that spends
its node budget first is "undecided".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from . import kernels
from ._intlat import integral_coordinate_lattice, pair_reduce
from .errors import DimensionError, ValidationError
from .exactlinear import RatMatrix, cleared
from .kernels_py import completed_height
from .torus import ChargeVector, TorusData, doubled, narain_form, q_value

# kind -> the structure equalities ``g S_1 = T_2 g`` of a certificate, in
# check order, as (check name, source structure S, target structure T).
RELATIONS = {
    "iso": (("intertwines_calI", "calI", "calI"), ("intertwines_calJ", "calJ", "calJ")),
    "mirror": (("swaps_calI_to_calJ", "calI", "calJ"), ("swaps_calJ_to_calI", "calJ", "calI")),
    "derived_eq": (("intertwines_calItilde", "calItilde", "calItilde"),),
}

KINDS = tuple(RELATIONS)

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


def verify_map(m: LatticeMap) -> Certificate:
    """Check every defining equality of the declared kind, exactly.

    The checks run in the contract order (q-congruence first, then the
    structure intertwinings); ``first_failure`` names the refuting equality.
    Non-unimodular maps cannot be constructed in the first place, so a
    precondition violation surfaces before any check runs.
    """
    d1 = doubled(m.source)
    d2 = doubled(m.target)
    checks = [MapCheck("preserves_q", m.g.transpose() * d2.q * m.g == d1.q)]
    for name, src_attr, tgt_attr in RELATIONS[m.kind]:
        lhs = m.g * getattr(d1, src_attr)
        rhs = getattr(d2, tgt_attr) * m.g
        checks.append(MapCheck(name, lhs == rhs))
    return Certificate(m, tuple(checks))


# ---------------------------------------------------------------------------
# intertwiner space and search
# ---------------------------------------------------------------------------


def _constraint_rows(t1, t2, kind):
    """The linear intertwining constraints ``g A = B g`` as integer rows on vec(g).

    Unknown is vec(g), row-major; constraint ``g A - B g = 0`` contributes
    the rows of ``A^t (x) id - id (x) B`` in Kronecker form, built from
    ``D A`` and ``D B`` (D the lcm of their denominators): D times the
    Fraction rows.
    """
    n = 4 * t1.d
    d1, d2 = doubled(t1), doubled(t2)
    rows = []
    for _, src_attr, tgt_attr in RELATIONS[kind]:
        _, a, b = cleared(getattr(d1, src_attr), getattr(d2, tgt_attr))
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[i * n + k] += a[k][j]
                    row[k * n + j] -= b[i][k]
                rows.append(row)
    return rows


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
    flat = pair_reduce(integral_coordinate_lattice(_constraint_rows(t1, t2, kind)))
    return [RatMatrix([row[i * n:(i + 1) * n] for i in range(n)]) for row in flat]


@dataclass(frozen=True)
class SearchOutcome:
    """The verdict of a search: ``"found"`` (with its certificate), ``"refuted"``,
    ``"none within bound"`` or ``"undecided"`` (the node budget ran out after
    covering every height shell up to ``last_complete_height``)."""

    verdict: str
    nodes_used: int
    certificate: Certificate | None = None
    last_complete_height: int | None = None

    @property
    def found(self) -> bool:
        return self.verdict == "found"


def _ellipsoid_radii(t1: TorusData, t2: TorusData, basis):
    """``4d (A^-1)_ii``, A the Gram matrix of ``Q(g) = tr(N_1^-1 g^t N_2 g)`` on the basis.

    ``A_ij = <M_i, N_2 M_j N_1^-1>`` (Frobenius) with ``N_1^-1 = q N_1 q``,
    as ``N q N = q``.  On ``Q <= 4d``, ``c_i^2 <= 4d (A^-1)_ii``: the first
    step of Fincke-Pohst (Math. Comp. 44, 1985).
    """
    q = doubled(t1).q
    n1_inv, n2 = q * narain_form(t1) * q, narain_form(t2)
    flat = [[x for row in m.entries for x in row] for m in basis]
    images = [[x for row in (n2 * m * n1_inv).entries for x in row] for m in basis]
    a_inv = RatMatrix([[sum(map(mul, mi, mj)) for mj in images] for mi in flat]).inverse()
    return [4 * t1.d * a_inv.entries[i][i] for i in range(len(basis))]


def search_relation(t1: TorusData, t2: TorusData, kind: str, coeff_bound: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Bounded deterministic search for a relation certificate.

    Enumerates integer coordinate vectors of max-norm at most ``coeff_bound``
    over the integral intertwiner basis, in the canonical candidate order
    (height shell, then support size, then positions, then digits), with the
    exact filter of :mod:`flattori.kernels_py`; the first q-congruent
    candidate is returned as a verified certificate (verdict ``"found"``).

    An ``iso`` or ``mirror`` certificate preserves N as well as q, so it has
    ``tr(N_1^-1 g^t N_2 g) = 4d``; an exhausted window without a hit is
    ``"refuted"`` when it holds all of that ellipsoid, i.e.
    ``4d (A^-1)_ii < (coeff_bound + 1)^2`` (see :func:`_ellipsoid_radii`).
    ``derived_eq`` maps need not preserve N, so their search is never
    refuted.  Any other exhausted window is ``"none within bound"``.  A search
    that spends ``node_budget`` first is ``"undecided"`` and records the last
    height shell it covered completely.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    basis = intertwiner_space(t1, t2, kind)
    n = 4 * t1.d
    flat = [[int(m.entries[i][j]) for i in range(n) for j in range(n)] for m in basis]
    hits, nodes, exhausted = kernels.run_filter(flat, n, coeff_bound, node_budget, max_hits=1)
    if hits:
        g = sum((m.scale(c) for c, m in zip(hits[0], basis) if c), RatMatrix.zero(n, n))
        cert = verify_map(LatticeMap(g=g, source=t1, target=t2, kind=kind))
        if not cert.valid:
            raise AssertionError("search produced a non-verifying candidate (internal error)")
        return SearchOutcome("found", nodes, cert)
    if not exhausted:
        return SearchOutcome("undecided", nodes,
                             last_complete_height=completed_height(len(flat), nodes))
    if kind != "derived_eq" and all(
            r < (coeff_bound + 1) ** 2 for r in _ellipsoid_radii(t1, t2, basis)):
        return SearchOutcome("refuted", nodes)
    return SearchOutcome("none within bound", nodes)


# ---------------------------------------------------------------------------
# spectrum fingerprint (zero-mode spectrum of a charge window)
# ---------------------------------------------------------------------------


def _quadratic(form, x):
    return sum(xi * sum(a * xj for a, xj in zip(row, x)) for xi, row in zip(x, form) if xi)


def spectrum_fingerprint(t: TorusData, height: int):
    """Sorted multiset of ``(q(gamma,gamma), p^2/2, pbar^2/2)`` triples.

    Enumerates all charge vectors of max-norm at most ``height``.  The window
    is a box in the lattice basis, so the multiset depends on the basis and
    decides no relation between tori.  ``p^2/2 = (gamma^t N gamma - q)/2``
    and ``pbar^2/2 = (gamma^t N gamma + q)/2`` with N the Narain form, cleared
    of denominators once: one integer form per charge.
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    half = t.rank
    den, n_form = cleared(narain_form(t))
    triples = []
    rng = range(-height, height + 1)
    for coords in product(rng, repeat=2 * half):
        q = q_value(ChargeVector(coords[:half], coords[half:]))
        norm = _quadratic(n_form, coords)
        triples.append((q, Fraction(norm - den * q, 2 * den), Fraction(norm + den * q, 2 * den)))
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

    def solve(row1, row2):
        prod = row2 * m.g
        o = prod.block(0, n, n, 2 * n)  # momentum block of row1 is the identity
        if o * row1 != prod:
            raise ValidationError("map does not transport chiral momenta linearly")
        return o

    o_l, o_r = (solve(row1, row2) for row1, row2 in zip(t1.momentum_maps, t2.momentum_maps))
    return t2.ginv * o_l * t1.G, t2.ginv * o_r * t1.G
