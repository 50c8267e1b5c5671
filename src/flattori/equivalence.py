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
``F(h) = tr(q h^t q h)``, which every certificate g carries isometrically:
``F(gh) = F(hg) = F(h)`` as ``g^t q g = q = g q g^t``.  Its Gram matrix
``<M_i, q M_j q>`` comes from :func:`~flattori.kernels_py.frobenius_gram`
with R = q, the builder of the search's packed form.  A ``derived_eq``
pair whose three lattices L(T1,T1), L(T1,T2), L(T2,T2) differ in (rank,
det) is refuted before the scan.  On ``iso`` and ``mirror`` lattices F is
the Narain form ``tr(N_1^-1 h^t N_2 h)``, positive definite, and every
certificate lies in the finite shell ``F <= 4d``: an exhausted window holding
that whole ellipsoid refutes the relation, and otherwise the shell is
enumerated (:func:`~flattori._intlat.short_vectors`), which finds a
certificate or refutes.  A ``derived_eq`` search without a hit means only
"none within bound", and one that spends its node budget first is
"undecided".
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import mul

from . import kernels
from ._intlat import integral_coordinate_lattice, pair_reduce, short_vectors
from ._record import Check, Record
from .errors import DimensionError, InconsistencyError, ValidationError
from .exactlinear import RatMatrix, bareiss, cleared
from .kernels_py import completed_height, frobenius_gram, packed_form, split_pairing
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


class Certificate(Record):
    """Outcome of verify_map: named exact matrix equalities, all or nothing."""

    map: LatticeMap
    checks: tuple

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_map(m: LatticeMap) -> Certificate:
    """Check every defining equality of the declared kind, exactly.

    The checks run in the contract order (q-congruence first, then the
    structure intertwinings); the first failed check names the refuting equality.
    Non-unimodular maps cannot be constructed in the first place, so a
    precondition violation surfaces before any check runs.
    """
    d1 = doubled(m.source)
    d2 = doubled(m.target)
    checks = [Check("preserves_q", m.g.transpose() * d2.q * m.g == d1.q)]
    for name, src_attr, tgt_attr in RELATIONS[m.kind]:
        lhs = m.g * getattr(d1, src_attr)
        rhs = getattr(d2, tgt_attr) * m.g
        checks.append(Check(name, lhs == rhs))
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
NARAIN_SHELL = "no g with tr(N1^-1 g^t N2 g) <= 4d preserves q"
LATTICE_ISOMETRY = "(rank, det) of tr(q h^t q h) differs on L(T1,T1), L(T1,T2), L(T2,T2)"


class SearchOutcome(Record):
    """The verdict of a search: ``"found"`` (with its certificate), ``"refuted"``
    (``refuted_by`` names the proof: :data:`NARAIN_WINDOW`,
    :data:`NARAIN_SHELL` followed by the shell's size and the enumeration's
    nodes, or :data:`LATTICE_ISOMETRY` followed by the three lattices'
    (rank, det)), and for ``derived_eq`` only ``"none within bound"`` or
    ``"undecided"`` (the node budget ran out after covering every height
    shell up to ``last_complete_height``)."""

    verdict: str
    nodes_used: int
    certificate: Certificate | None = None
    last_complete_height: int | None = None
    refuted_by: str | None = None

    @property
    def found(self) -> bool:
        return self.verdict == "found"


def _lattice_class(rows, n):
    """``(rank, det A)`` of the lattice spanned by ``rows`` under F.

    A ``derived_eq`` lattice is never empty: over Q both doubled structures
    make Q^n a Q(i)-vector space of dimension n/2, so its rank is ``n^2 / 2``.
    """
    pivots, last, _ = bareiss(frobenius_gram(rows, n, split_pairing(n)))
    return len(rows), last if len(pivots) == len(rows) else 0


def _ellipsoid_radii(rows, n):
    """``4d (A^-1)_ii``, A the Gram matrix of F on an iso or mirror basis.

    For h in such a lattice ``N_2 h = q h q N_1`` (``N = -q calI calJ``), so
    ``F(h)`` is the Narain form ``tr(N_1^-1 h^t N_2 h)``.  On ``F <= 4d``,
    ``c_i^2 <= 4d (A^-1)_ii``: the first step of Fincke-Pohst (Math. Comp. 44,
    1985).
    """
    a_inv = RatMatrix(frobenius_gram(rows, n, split_pairing(n))).inverse()
    return [n * a_inv.entries[i][i] for i in range(len(rows))]


def _certified(t1, t2, kind, g, n, nodes):
    """The found outcome for the flattened map ``g``, checked once by :func:`verify_map`."""
    cert = verify_map(LatticeMap(g=_as_matrix(g, n), source=t1, target=t2, kind=kind))
    if not cert.valid:
        raise InconsistencyError("search produced a non-verifying candidate (internal error)")
    return SearchOutcome("found", nodes, cert)


def _narain_shell(flat, n):
    """``(g, size, nodes)`` for the shell ``F <= 4d`` of an ``iso`` or ``mirror`` lattice.

    :func:`short_vectors` lists the shell over an LLL-reduced basis, one of
    each pair +-h: ``size`` vectors, in ``nodes`` walk nodes.  A certificate
    has ``F = 4d`` exactly, so only those vectors are tested for
    q-congruence, in the walk's order, by the packed form of
    :func:`~flattori.kernels_py.packed_form` over the reduced basis
    (``x^t X x = 2 target``), whose bound is the largest coordinate among
    them.  ``g`` is the first that
    passes, flattened, or None: then no certificate exists.
    """
    basis, vectors, nodes = short_vectors(frobenius_gram(flat, n, split_pairing(n)), n)
    shell = [x for x, norm in vectors if norm == n]
    if shell:
        sparse = [[(t, v) for t, v in enumerate(m) if v] for m in flat]
        reduced = []
        for coords in basis:
            row = [0] * (n * n)
            for c, m in zip(coords, sparse):
                if c:
                    for t, v in m:
                        row[t] += c * v
            reduced.append(row)
        form, target = packed_form(reduced, n, max(max(map(abs, x)) for x in shell))
        for x in shell:
            nz = [(i, c) for i, c in enumerate(x) if c]
            if sum(c * e * form[i][j] for i, c in nz for j, e in nz) == 2 * target:
                return [sum(c * reduced[i][t] for i, c in nz) for t in range(n * n)], \
                    len(vectors), nodes
    return None, len(vectors), nodes


# Up to this dimension the shell F <= 4d is walked before a scan that cannot
# exhaust its window within the budget: there the shell is small (square2
# against itself, 256 vectors in 1,512 nodes, 4 ms), and a pair without a
# certificate skips a scan that could not refute it.  At d = 3 square3's
# shell holds 29,856 vectors (0.7 s), far more work than the scan needs to
# find its certificate, so the shell waits for the scan.
SHELL_FIRST_MAX_D = 2


def search_relation(t1: TorusData, t2: TorusData, kind: str, coeff_bound: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Deterministic search for a relation certificate: always found or
    refuted for ``iso`` and ``mirror``, bounded for ``derived_eq``.

    For ``derived_eq`` the intertwiner lattices are compared first, with no
    budget involved.  A certificate g maps L(T1,T1) onto L(T1,T2) by
    ``h -> gh`` and L(T1,T2) onto L(T2,T2) by ``h -> hg^-1``, both integral
    with integral inverses, and ``F(h) = tr(q h^t q h)`` is unchanged by
    either, as ``g^t q g = q`` and ``g q g^t = q``.  The three lattices are
    then isometric under F, and ``det(U^t A U) = det A`` makes (rank, det A)
    independent of the basis: when the three pairs differ, the outcome is
    ``"refuted"`` by :data:`LATTICE_ISOMETRY` with 0 nodes.  L(T1,T1) and
    L(T2,T2), which the scan never reads, are therefore not size-reduced.

    The scan enumerates integer coordinate vectors of max-norm at most
    ``coeff_bound`` over the size-reduced intertwiner basis, in the canonical
    candidate order (height shell, then support size, then positions, then
    digits), with the exact filter of :mod:`flattori.kernels_py`; the first
    q-congruent candidate is checked once, by :func:`verify_map` (a failure
    is an ``InconsistencyError``), and is the certificate (verdict ``"found"``).
    A ``derived_eq`` scan that exhausts its window without one is ``"none
    within bound"``, and one that spends ``node_budget`` first is
    ``"undecided"`` and records the last height shell it covered completely.

    An ``iso`` or ``mirror`` certificate has ``F(g) = tr(q q) = 4d``, and F is
    the positive definite Narain form there, so :func:`_narain_shell`
    decides the relation; ``node_budget`` bounds the scan alone.  The scan
    still picks the certificate whenever it finds one, so the report names
    the first certificate in the canonical order, and an exhausted window
    without a hit is ``"refuted"`` by :data:`NARAIN_WINDOW` when it holds all
    of the ellipsoid, i.e. ``4d (A^-1)_ii < (coeff_bound + 1)^2`` (see
    :func:`_ellipsoid_radii`).  Up to :data:`SHELL_FIRST_MAX_D`, a scan that
    cannot exhaust its window within ``node_budget`` waits for the shell,
    and a pair without a certificate skips it.  Otherwise the shell's
    first certificate is reported, found after the scan's nodes and the
    walk's, or the relation is ``"refuted"`` by :data:`NARAIN_SHELL`.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    flat = intertwiner_rows(t1, t2, kind)
    n = 4 * t1.d
    if kind == "derived_eq":
        classes = [_lattice_class(rows, n) for rows in (
            integral_coordinate_lattice(_constraint_rows(t1, t1, kind)), flat,
            integral_coordinate_lattice(_constraint_rows(t2, t2, kind)))]
        if len(set(classes)) > 1:
            return SearchOutcome("refuted", 0, refuted_by=f"{LATTICE_ISOMETRY}: "
                                 + ", ".join(map(str, classes)))
    shell = None
    if kind != "derived_eq" and t1.d <= SHELL_FIRST_MAX_D and \
            (2 * coeff_bound + 1) ** len(flat) - 1 > node_budget:
        shell = _narain_shell(flat, n)
    nodes = 0
    if shell is None or shell[0] is not None:
        hits, nodes, exhausted = kernels.run_filter(flat, n, coeff_bound, node_budget,
                                                    max_hits=1)
        if hits:
            return _certified(t1, t2, kind, [sum(c * m[t] for c, m in zip(hits[0], flat) if c)
                                             for t in range(n * n)], n, nodes)
        if kind == "derived_eq":
            if not exhausted:
                return SearchOutcome("undecided", nodes,
                                     last_complete_height=completed_height(len(flat), nodes))
            return SearchOutcome("none within bound", nodes)
        if exhausted and flat and all(
                r < (coeff_bound + 1) ** 2 for r in _ellipsoid_radii(flat, n)):
            return SearchOutcome("refuted", nodes, refuted_by=NARAIN_WINDOW)
    g, size, walked = shell or _narain_shell(flat, n)
    if g is not None:
        return _certified(t1, t2, kind, g, n, nodes + walked)
    return SearchOutcome("refuted", nodes + walked,
                         refuted_by=f"{NARAIN_SHELL}: {size} vectors up to sign, {walked} nodes")


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
