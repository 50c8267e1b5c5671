"""Lattice-level relations between tori: isomorphism, mirror, derived equivalence.

A relation is certified by an integral unimodular map ``g`` on the doubled
lattices that preserves the split pairing q and intertwines the doubled
structures in the pattern belonging to the relation kind, checked by
:func:`~flattori.relations.verify_map`.  The certificate types, the check
and the relation table live in :mod:`flattori.relations`, and this module
re-exports them (``LatticeMap``, ``Certificate``, ``verify_map``,
``RELATIONS``, ``KINDS``).

Existence search: the intertwining constraints are linear, so the lattice of
all integral solutions is the integer kernel of the constraint rows (built in
integers from the structures scaled by the lcm D of their denominators, see
:func:`~flattori.exactlinear.cleared`).  The box scan enumerates small
integer coordinate vectors over a size-reduced basis of it, keeping the first
candidate that satisfies the quadratic q-congruence.

Refutation reads one integer form on the intertwiner lattices,
``F(h) = tr(q h^t q h)``, which every certificate g carries isometrically:
``F(gh) = F(hg) = F(h)`` as ``g^t q g = q = g q g^t``.  Its Gram matrix
``<M_i, q M_j q>`` comes from :func:`~flattori._intlat.frobenius_gram`
with R = q, the builder of the search's packed form.  A ``derived_eq``
pair whose three lattices L(T1,T1), L(T1,T2), L(T2,T2) differ in (rank,
det) is refuted before the scan.  On ``iso`` and ``mirror`` lattices F is
the Narain form ``tr(N_1^-1 h^t N_2 h)``, positive definite, and every
certificate lies in the finite shell ``F <= 4d``.  Listing that shell
(:func:`~flattori._intlat.short_vectors`) finds an ``iso`` or ``mirror``
certificate or refutes; at d <= 2 it is their whole search.  A
``derived_eq`` search without a hit means only "none within bound", and one
that spends its node budget first is "undecided".

The search functions and the spectrum of the Narain ball import the
integer lattice work (:mod:`flattori._intlat`) when they run, and the
filter (:mod:`flattori.kernels` and :mod:`flattori.kernels_py`) only when
the box scan runs, for ``derived_eq`` past its lattice check and for
``iso`` and ``mirror`` at d = 3.  ``verify-map`` compiles neither.  No
search and no spectrum builds a Fraction, so neither imports
:mod:`fractions`.  ``mirror`` and ``fm`` do not compile this module at
all: the mirror construction reads :mod:`flattori.relations` and the integer
kernels of :mod:`flattori._intkernel` only.  The layer's commands
(``spectrum``, the three ``check-*`` and ``verify-map``) and the
relation-map file format live at the end of the module.
"""

from __future__ import annotations

import os
import sys

from . import jsonio
from ._record import Record, failures
from .errors import DimensionError, InconsistencyError, SchemaError
from .exactlinear import RatMatrix, cleared, int_det, ratio_str
from .relations import KINDS, RELATIONS, Certificate, LatticeMap, verify_map  # noqa: F401
from .torus import TorusData, doubled, narain_form

DEFAULT_NODE_BUDGET = 10 ** 7


# ---------------------------------------------------------------------------
# intertwiner space and search
# ---------------------------------------------------------------------------


def _constraint_rows(t1, t2, kind):
    """The linear intertwining constraints ``g A = B g`` as integer rows on vec(g).

    Unknown is vec(g), row-major; constraint ``g A - B g = 0`` contributes
    the rows of ``A^t (x) id - id (x) B`` in Kronecker form, built from
    ``D A`` and ``D B`` (D the lcm of their denominators): D times the
    rational rows.
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
    from ._intlat import integral_coordinate_lattice, pair_reduce
    return pair_reduce(integral_coordinate_lattice(_constraint_rows(t1, t2, kind)))


def _as_matrix(flat, n):
    return RatMatrix([flat[i * n:(i + 1) * n] for i in range(n)])


def intertwiner_space(t1: TorusData, t2: TorusData, kind: str):
    """:func:`intertwiner_rows` as ``4d x 4d`` matrices."""
    n = 4 * t1.d
    return [_as_matrix(row, n) for row in intertwiner_rows(t1, t2, kind)]


NARAIN_SHELL = "no g with tr(N1^-1 g^t N2 g) <= 4d preserves q"
LATTICE_ISOMETRY = "(rank, det) of tr(q h^t q h) differs on L(T1,T1), L(T1,T2), L(T2,T2)"


class SearchOutcome(Record):
    """The verdict of a search: ``"found"`` (with its certificate), ``"refuted"``
    (``refuted_by`` names the proof: for ``iso`` and ``mirror``
    :data:`NARAIN_SHELL` followed by the shell's size and the enumeration's
    nodes, for ``derived_eq`` :data:`LATTICE_ISOMETRY` followed by the three
    lattices' (rank, det)), and for ``derived_eq`` only ``"none within
    bound"`` or ``"undecided"`` (the node budget ran out after covering every
    height shell up to ``last_complete_height``)."""

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
    from ._intlat import frobenius_gram, split_pairing
    return len(rows), int_det(frobenius_gram(rows, n, split_pairing(n)))


def _certified(t1, t2, kind, g, n, nodes):
    """The found outcome for the flattened map ``g``, checked once by :func:`verify_map`."""
    cert = verify_map(LatticeMap(g=_as_matrix(g, n), source=t1, target=t2, kind=kind))
    if not cert.valid:
        raise InconsistencyError("search produced a non-verifying candidate (internal error)")
    return SearchOutcome("found", nodes, cert)


def _narain_shell(flat, n):
    """``(g, size, nodes)`` for the shell ``F <= 4d`` of an ``iso`` or ``mirror`` lattice.

    :func:`~flattori._intlat.short_vectors` lists the shell over an
    LLL-reduced basis, one of each pair +-h: ``size`` vectors, in ``nodes``
    walk nodes.  A certificate has ``F = 4d`` exactly, so only those vectors
    are tested for q-congruence, in the walk's order, by the packed form of
    :func:`~flattori._intlat.packed_form` over the reduced basis
    (``x^t X x = 2 target``), whose bound is the largest coordinate among
    them.  ``g`` is the first that passes, flattened, or None: then no
    certificate exists.
    """
    from ._intlat import frobenius_gram, packed_form, short_vectors, split_pairing
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


# Up to this dimension the shell F <= 4d is the whole iso and mirror search:
# it is small (square2 against itself, 256 vectors in 1,512 nodes, 4 ms), and a
# scan in front of it only re-finds a certificate the shell holds (10^7
# nodes on a d = 2 mirror pair with a generic B).  At d = 3 the scan still runs
# first: check-iso square3 sheared3 took 0.67 s as a fresh process with a walk
# stopping at its first certificate (55,771 nodes), 0.11 s with the scan
# first (CPython 3.11.7, 2-core VM).
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

    The box scan (``derived_eq``, and ``iso`` and ``mirror`` at d = 3)
    enumerates integer coordinate vectors of max-norm at most
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
    decides the relation: its first q-congruent vector is the certificate,
    checked once by :func:`verify_map`, and with none the relation is
    ``"refuted"`` by :data:`NARAIN_SHELL`.  Up to :data:`SHELL_FIRST_MAX_D`
    the shell is the whole search: ``coeff_bound`` and ``node_budget`` bound
    nothing, and ``nodes_used`` is the walk's nodes, found or refuted.  At
    d = 3 the scan runs first, and the shell only when the scan ends without
    a certificate, after the scan's nodes and the walk's.
    """
    from ._intlat import integral_coordinate_lattice
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
    nodes = 0
    if kind == "derived_eq" or t1.d > SHELL_FIRST_MAX_D:
        from . import kernels
        from .kernels_py import completed_height
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
    g, size, walked = _narain_shell(flat, n)
    if g is not None:
        return _certified(t1, t2, kind, g, n, nodes + walked)
    return SearchOutcome("refuted", nodes + walked,
                         refuted_by=f"{NARAIN_SHELL}: {size} vectors up to sign, {walked} nodes")


# ---------------------------------------------------------------------------
# zero-mode spectrum of the Narain ball
# ---------------------------------------------------------------------------


# The most charges, up to sign, that ``spectrum`` lists.  A ball just under it
# takes 1.8-2.8 s and 125 MiB at d = 1, 3.1-4.8 s and 140 MiB at d = 3, as a
# fresh process (CPython 3.11.7, 2-core VM): less than the 8.8 s and 188 MiB
# of the old charge box's largest window.  Past it the walk stops, in 0.2-0.6 s.
SPECTRUM_LIMIT = 2 * 10 ** 5


def spectrum_fingerprint(t: TorusData, norm: int):
    """The sorted ``(q(gamma,gamma), p^2/2, pbar^2/2)`` triples of the Narain ball, as strings.

    One triple per pair +-gamma of nonzero charges with ``gamma^t N gamma =
    p^2/2 + pbar^2/2 <= norm``.  An isomorphism or a T-duality preserves N
    and q, so the triples do not see the lattice basis, and a torus and its
    mirror share them.  :func:`~flattori._intlat.short_vectors` lists the
    ball of ``den N`` at ``den norm`` with values ``s = den gamma^t N gamma``,
    so ``p^2/2, pbar^2/2 = (s -+ den q) / (2 den)``, sorted by ``(q, s)``,
    their exact order.  A ball past :data:`SPECTRUM_LIMIT` gives None.
    """
    from ._intlat import short_vectors
    form = narain_form(t)
    den, half = form.den, t.rank
    basis, vectors, _ = short_vectors(form.num, den * norm, SPECTRUM_LIMIT)
    if len(vectors) > SPECTRUM_LIMIT:
        return None
    keyed = []
    for x, s in vectors:
        nz = [(c, row) for c, row in zip(x, basis) if c]
        gamma = [sum(c * row[k] for c, row in nz) for k in range(2 * half)]
        keyed.append((2 * sum(w * m for w, m in zip(gamma[:half], gamma[half:])), s))
    del vectors
    keyed.sort()
    # one triple object per (q, s), as a ball repeats few values many times
    triple = {(q, s): (str(q), ratio_str(s - den * q, 2 * den), ratio_str(s + den * q, 2 * den))
              for q, s in set(keyed)}
    return tuple(map(triple.__getitem__, keyed))


# ---------------------------------------------------------------------------
# the relation-map file and the commands of this layer
# ---------------------------------------------------------------------------


def map_from_json(data, base_dir=".", pointer="map") -> LatticeMap:
    """A relation-map file's map; a torus given as a path is read relative to ``base_dir``."""
    if not isinstance(data, dict):
        raise SchemaError("expected an object", pointer)
    kind = data.get("kind")
    if kind not in KINDS:
        raise SchemaError("kind must be iso, mirror, or derived_eq", f"{pointer}.kind")

    def torus_arg(key):
        val = data.get(key)
        if isinstance(val, dict):
            return jsonio.torus_from_json(val, f"{pointer}.{key}")
        if isinstance(val, str):
            return jsonio.load_torus(os.path.join(base_dir, val))
        raise SchemaError(f"{key} must be a torus object or a path", f"{pointer}.{key}")

    source = torus_arg("source")
    target = torus_arg("target")
    if target.d != source.d:
        raise SchemaError(f"target dimension {target.d} differs from source dimension "
                          f"{source.d}", f"{pointer}.target")
    g = jsonio.matrix_from_json(data.get("g"), f"{pointer}.g", 4 * source.d)
    if not g.is_integral():
        raise SchemaError("g must be integral", f"{pointer}.g")
    return LatticeMap(g=g, source=source, target=target, kind=kind)


def cmd_spectrum(args):
    """``spectrum``: the zero-mode triples of the Narain ball ``gamma^t N gamma <= norm``."""
    t = jsonio.load_torus(args.torus)
    if args.norm < 0:
        raise SchemaError(f"norm must be nonnegative, got {args.norm}", "--norm")
    triples = spectrum_fingerprint(t, args.norm)
    if triples is None:
        raise SchemaError(f"norm {args.norm} holds more than {SPECTRUM_LIMIT} charge vectors "
                          "up to sign, the limit", "--norm")
    return {"torus": jsonio.torus_to_json(t)}, {"norm": args.norm, "triples": triples}, 0


COMMAND_KINDS = {"check-iso": "iso", "check-mirror": "mirror", "check-derived-eq": "derived_eq"}


def cmd_search(args):
    """``check-iso``, ``check-mirror`` and ``check-derived-eq``: :func:`search_relation`."""
    t1 = jsonio.load_torus(args.source)
    t2 = jsonio.load_torus(args.target)
    if t2.d != t1.d:
        raise SchemaError(f"tori must have the same dimension, got {t1.d} and {t2.d}",
                          f"{os.path.basename(args.target)}.d")
    bound, budget = args.bound, args.budget
    for name, value in (("bound", bound), ("budget", budget)):
        if value < 1:
            raise SchemaError(f"{name} must be at least 1, got {value}")
    inputs = {"source": jsonio.torus_to_json(t1), "target": jsonio.torus_to_json(t2),
              "bound": bound}
    outcome = search_relation(t1, t2, COMMAND_KINDS[args.command], bound, node_budget=budget)
    if outcome.found:
        result = {"found": True,
                  "certificate": jsonio.certificate_to_json(outcome.certificate),
                  "nodes": outcome.nodes_used}
        return inputs, result, 0
    result = {"found": False, "verdict": outcome.verdict, "nodes": outcome.nodes_used}
    if outcome.verdict == "refuted":
        result["refuted_by"] = outcome.refuted_by
    elif outcome.verdict == "undecided":
        print(f"budget exceeded: search exhausted its node budget ({budget}) before "
              f"covering height {bound} ({outcome.nodes_used}/{budget} nodes)",
              file=sys.stderr)
        result.update(budget=budget, last_complete_height=outcome.last_complete_height)
    return inputs, result, 1


def cmd_verify_map(args):
    """``verify-map``: every defining equality of the map file's relation."""
    m = jsonio.load_map(args.map)
    cert = verify_map(m)
    result = {"valid": cert.valid,
              "certificate": jsonio.certificate_to_json(cert)}
    if not cert.valid:
        result["refuting_check"] = failures(cert.checks)[0]
    return {"map": args.map, "kind": m.kind}, result, 0 if cert.valid else 1
