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
candidate that satisfies the quadratic q-congruence.

Refutation reads one integer form on the intertwiner lattices,
``F(h) = tr(q h^t q h)`` (Gram matrix :func:`_f_gram`), which every
certificate g carries isometrically: ``F(gh) = F(hg) = F(h)`` as
``g^t q g = q = g q g^t``.  A ``derived_eq`` pair whose three lattices
L(T1,T1), L(T1,T2), L(T2,T2) differ in (rank, det) is refuted before the
scan.  On ``iso`` and ``mirror`` lattices F is the Narain form
``tr(N_1^-1 h^t N_2 h)``, so an exhausted window holding the whole ellipsoid
``F = 4d`` refutes the relation.  Otherwise a search without a hit means only
"none within bound", and one that spends its node budget first is
"undecided".
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import mul

from . import kernels
from ._intlat import integral_coordinate_lattice, pair_reduce
from ._record import Record
from .errors import DimensionError, ValidationError
from .exactlinear import RatMatrix, cleared
from .kernels_py import completed_height
from .torus import TorusData, doubled, narain_form

# kind -> the structure equalities ``g S_1 = T_2 g`` of a certificate, in
# check order, as (check name, source structure S, target structure T).
RELATIONS = {
    "iso": (("intertwines_calI", "calI", "calI"), ("intertwines_calJ", "calJ", "calJ")),
    "mirror": (("swaps_calI_to_calJ", "calI", "calJ"), ("swaps_calJ_to_calI", "calJ", "calI")),
    "derived_eq": (("intertwines_calItilde", "calItilde", "calItilde"),),
}

KINDS = tuple(RELATIONS)

DEFAULT_NODE_BUDGET = 10 ** 7


class LatticeMap(Record):
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


class MapCheck(Record):
    name: str
    ok: bool


class Certificate(Record):
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


def intertwiner_rows(t1: TorusData, t2: TorusData, kind: str):
    """A size-reduced basis of the lattice of integral intertwiners, as int rows.

    Each row is a map ``g`` flattened row-major (length ``(4d)^2``) that
    satisfies the linear intertwining constraints; together they span every
    integral solution over Z and the solution space over Q.  The quadratic
    q-condition is not imposed here.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if t1.d != t2.d:
        raise DimensionError("tori must have the same dimension")
    return pair_reduce(integral_coordinate_lattice(_constraint_rows(t1, t2, kind)))


def _as_matrix(flat, n):
    return RatMatrix([flat[i * n:(i + 1) * n] for i in range(n)])


def intertwiner_space(t1: TorusData, t2: TorusData, kind: str):
    """:func:`intertwiner_rows` as ``4d x 4d`` matrices."""
    n = 4 * t1.d
    return [_as_matrix(row, n) for row in intertwiner_rows(t1, t2, kind)]


NARAIN_WINDOW = "window contains every g with tr(N1^-1 g^t N2 g) = 4d"
LATTICE_ISOMETRY = "(rank, det) of tr(q h^t q h) differs on L(T1,T1), L(T1,T2), L(T2,T2)"


class SearchOutcome(Record):
    """The verdict of a search: ``"found"`` (with its certificate), ``"refuted"``
    (``refuted_by`` names the proof: :data:`NARAIN_WINDOW`, or
    :data:`LATTICE_ISOMETRY` followed by the three lattices' (rank, det)),
    ``"none within bound"`` or ``"undecided"`` (the node budget ran out after
    covering every height shell up to ``last_complete_height``)."""

    verdict: str
    nodes_used: int
    certificate: Certificate | None = None
    last_complete_height: int | None = None
    refuted_by: str | None = None

    @property
    def found(self) -> bool:
        return self.verdict == "found"


def _f_gram(rows, n):
    """The integer Gram matrix ``A_ij = tr(q M_i^t q M_j)`` of the flattened ``rows``.

    ``tr(q X^t q Y)`` is the Frobenius product of X with ``q Y q``, whose entry
    (a, b) is Y's entry (a + h, b + h), indices mod n and h = n/2.  Each row
    is summed over its nonzero entries only: a basis row holds a few of its
    n^2 entries.
    """
    half = n // 2
    swap = [(t // n + half) % n * n + (t + half) % n for t in range(n * n)]
    support = [[(swap[t], x) for t, x in enumerate(m) if x] for m in rows]
    return [[sum(x * mj[s] for s, x in si) for mj in rows] for si in support]


def _lattice_class(rows, n):
    """``(rank, det A)`` of the lattice spanned by ``rows`` under F.

    A ``derived_eq`` lattice is never empty: over Q both doubled structures
    make Q^n a Q(i)-vector space of dimension n/2, so its rank is ``n^2 / 2``.
    """
    return len(rows), int(RatMatrix(_f_gram(rows, n)).det())


def _ellipsoid_radii(rows, n):
    """``4d (A^-1)_ii``, A the Gram matrix :func:`_f_gram` of an iso or mirror basis.

    For h in such a lattice ``N_2 h = q h q N_1`` (``N = -q calI calJ``), so
    ``F(h)`` is the Narain form ``tr(N_1^-1 h^t N_2 h)``.  On ``F <= 4d``,
    ``c_i^2 <= 4d (A^-1)_ii``: the first step of Fincke-Pohst (Math. Comp. 44,
    1985).
    """
    a_inv = RatMatrix(_f_gram(rows, n)).inverse()
    return [n * a_inv.entries[i][i] for i in range(len(rows))]


def search_relation(t1: TorusData, t2: TorusData, kind: str, coeff_bound: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Bounded deterministic search for a relation certificate.

    For ``derived_eq`` the intertwiner lattices are compared first, with no
    budget involved.  A certificate g maps L(T1,T1) onto L(T1,T2) by
    ``h -> gh`` and L(T1,T2) onto L(T2,T2) by ``h -> hg^-1``, both integral
    with integral inverses, and ``F(h) = tr(q h^t q h)`` is unchanged by
    either, as ``g^t q g = q`` and ``g q g^t = q``.  The three lattices are
    then isometric under F, and ``det(U^t A U) = det A`` makes (rank, det A)
    independent of the basis: when the three pairs differ, the outcome is
    ``"refuted"`` by :data:`LATTICE_ISOMETRY` with 0 nodes.

    The scan enumerates integer coordinate vectors of max-norm at most
    ``coeff_bound`` over the integral intertwiner basis, in the canonical
    candidate order (height shell, then support size, then positions, then
    digits), with the exact filter of :mod:`flattori.kernels_py`; the first
    q-congruent candidate is returned as a verified certificate (verdict
    ``"found"``).

    An ``iso`` or ``mirror`` certificate has ``F(g) = tr(q q) = 4d``, and F is
    the Narain form there; an exhausted window without a hit is ``"refuted"``
    when it holds all of that ellipsoid, i.e. ``4d (A^-1)_ii < (coeff_bound +
    1)^2`` (see :func:`_ellipsoid_radii`).  Any other exhausted window is
    ``"none within bound"``.  A search that spends ``node_budget`` first is
    ``"undecided"`` and records the last height shell it covered completely.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    flat = intertwiner_rows(t1, t2, kind)
    n = 4 * t1.d
    if kind == "derived_eq":
        classes = [_lattice_class(rows, n) for rows in (
            intertwiner_rows(t1, t1, kind), flat, intertwiner_rows(t2, t2, kind))]
        if len(set(classes)) > 1:
            return SearchOutcome("refuted", 0, refuted_by=f"{LATTICE_ISOMETRY}: "
                                 + ", ".join(map(str, classes)))
    hits, nodes, exhausted = kernels.run_filter(flat, n, coeff_bound, node_budget, max_hits=1)
    if hits:
        g = [sum(c * m[t] for c, m in zip(hits[0], flat) if c) for t in range(n * n)]
        cert = verify_map(LatticeMap(g=_as_matrix(g, n), source=t1, target=t2, kind=kind))
        if not cert.valid:
            raise AssertionError("search produced a non-verifying candidate (internal error)")
        return SearchOutcome("found", nodes, cert)
    if not exhausted:
        return SearchOutcome("undecided", nodes,
                             last_complete_height=completed_height(len(flat), nodes))
    if kind != "derived_eq" and all(
            r < (coeff_bound + 1) ** 2 for r in _ellipsoid_radii(flat, n)):
        return SearchOutcome("refuted", nodes, refuted_by=NARAIN_WINDOW)
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
        q = 2 * sum(map(mul, coords[:half], coords[half:]))
        norm = _quadratic(n_form, coords)
        triples.append((Fraction(q), Fraction(norm - den * q, 2 * den),
                        Fraction(norm + den * q, 2 * den)))
    triples.sort()
    return tuple(triples)
