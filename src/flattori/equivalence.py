"""Lattice-level relations between tori: isomorphism, mirror, derived equivalence.

A relation is certified by an integral unimodular map ``g`` on the doubled
lattices that preserves the split pairing q and intertwines the doubled
structures in the pattern belonging to the relation kind, checked by
:func:`~flattori.relations.verify_map`.  The certificate types, the check
and the relation table live in :mod:`flattori.relations`, and this module
re-exports them (``LatticeMap``, ``Certificate``, ``verify_map``,
``RELATIONS``, ``KINDS``).

``iso`` and ``mirror`` are decided by one isometry search of the Narain
lattices (:func:`_isometry`).  ``derived_eq`` reads the lattices of
integral intertwiners, integer kernels of linear constraint rows: a pair
whose L(T1,T1), L(T1,T2), L(T2,T2) differ in (rank, det) under
``tr(q h^t q h)`` is refuted, and otherwise a box scan over an LLL-reduced
basis of L(T1,T2) keeps the first q-congruent candidate, or ends "none
within bound", or "undecided" once it spends its node budget.

The searches and ``spectrum`` import :mod:`flattori._intlat` when they run,
and the filter (:mod:`flattori.kernels`, :mod:`flattori.kernels_py`) only
when the box scan runs.  None builds a Fraction or imports
:mod:`fractions`.  ``mirror`` and ``fm`` compile :mod:`flattori.relations`
and :mod:`flattori._intkernel`, not this module.  The layer's commands
(``spectrum``, the three ``check-*`` and ``verify-map``) and the
relation-map file format live at the end of the module.
"""

from __future__ import annotations

import os
import sys
from operator import mul

from . import jsonio
from ._record import Record, failures
from .errors import DimensionError, InconsistencyError, SchemaError
from .exactlinear import RatMatrix, bareiss, cleared, int_det, ratio_str
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
    """The canonical LLL-reduced basis (:func:`~flattori._intlat.pair_reduce`)
    of the lattice of integral intertwiners, as int rows.

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


NARAIN_ISOMETRY = "no Narain isometry g^t N2 g = N1 preserves q and carries N1 S1 to N2 S2"
LATTICE_ISOMETRY = "(rank, det) of tr(q h^t q h) differs on L(T1,T1), L(T1,T2), L(T2,T2)"


class SearchOutcome(Record):
    """The verdict of a search: ``"found"`` (with its certificate), ``"refuted"``
    (``refuted_by`` names the proof: :data:`NARAIN_ISOMETRY` or, for
    ``derived_eq``, :data:`LATTICE_ISOMETRY`, then what it read),
    ``"undecided"`` (for ``iso`` and ``mirror``, a Narain ball past
    :data:`SPECTRUM_LIMIT`; for ``derived_eq``, the node budget ran out after
    covering every height shell up to ``last_complete_height``), and for
    ``derived_eq`` only ``"none within bound"``."""

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


def _isometry(t1, t2, kind):
    """Decide ``iso`` or ``mirror`` by an isometry search of the Narain lattices.

    As ``N = -q calI calJ``, the certificates are the g that carry N, q and
    each ``N1 S1`` to ``N2 S2`` (Plesken and Souvignier, J. Symb. Comput. 24,
    1997), and such a g carries ``S1 v`` to ``S2 g v``: the images of a few
    generators fix it.  They are the LLL-reduced source vectors, shortest
    first, whose rows ``v^t A`` under these forms raise the rank.  Both
    lattices' vectors up to the generators' largest N-norm are listed: norms
    that differ refute, and past :data:`SPECTRUM_LIMIT` the pair is
    undecided.  Each generator goes to a listed vector of its N- and q-norms
    whose products with the images before it match (the first up to sign,
    as -g is a certificate when g is).  The generators' rows R1 and their
    images' rows R2 give ``g^-1 = R1^-1 R2`` and ``g = q g^-t q``; the first
    integral g is checked once by :func:`verify_map`, and running out
    refutes.  ``nodes`` counts the walks' nodes and the candidates tried.
    """
    from ._intlat import _lll, fincke_pohst, scaled_inverse, short_vectors
    n, half = 4 * t1.d, 2 * t1.d
    (d1, n1), (d2, n2) = ((doubled(t), narain_form(t)) for t in (t1, t2))
    den, *narain = cleared(n1, n2)
    # the int forms N, q and each N S (scaled by a common D), per side, by columns
    sides = zip(narain, (d1.q.num, d2.q.num), *(
        cleared(n1 * getattr(d1, src), n2 * getattr(d2, tgt))[1:]
        for _, src, tgt in RELATIONS[kind]))
    columns = [[list(zip(*form)) for form in side] for side in sides]

    def images(v, side):  # the rows v^t A of the forms of one side
        return [[sum(map(mul, v, col)) for col in form] for form in columns[side]]

    reduced = _lll(narain[0])
    gens, rows, picked = [], [], []  # picked: (generator, form) of each row of R1
    # shortest first, ties last first (so the square self-mirror is the swap on e1)
    for b in sorted(reduced[0][::-1], key=lambda b: sum(map(mul, images(b, 0)[0], b))):
        for f, r in enumerate(images(b, 0)):
            if len(bareiss([*rows, r])[0]) > len(rows):
                rows.append(r)
                picked.append((len(gens), f))
        if picked and picked[-1][0] == len(gens):
            gens.append(b)
        if len(rows) == n:
            break
    k = len(gens)
    gram = [[tuple(sum(map(mul, r, b)) for r in images(u, 0)) for b in gens] for u in gens]
    bound = max(gram[j][j][0] for j in range(k))
    source, nodes = fincke_pohst(reduced, bound, SPECTRUM_LIMIT)
    target_basis, target, walked = short_vectors(narain[1], bound, SPECTRUM_LIMIT)
    nodes += walked
    if max(len(source), len(target)) > SPECTRUM_LIMIT:
        return SearchOutcome("undecided", nodes)
    listed = f"vectors up to sign of N-norm at most {ratio_str(bound, den)}"
    if sorted(s for _, s in source) != sorted(s for _, s in target):
        why = f"the N-norms of their {len(source)} and {len(target)} {listed} differ"
    else:
        keys = [gram[j][j][:2] for j in range(k)]
        norms, by_norms = {key[0] for key in keys}, {}
        for x, s in reversed(target):
            if s in norms:
                v = [sum(c * row[t] for c, row in zip(x, target_basis) if c) for t in range(n)]
                by_norms.setdefault((s, 2 * sum(map(mul, v[:half], v[half:]))), []).append(v)
        # one signed list per norm pair, shared by the generators that need it
        signed = {key: [*by_norms.get(key, ()), *([-x for x in v] for v in by_norms.get(key, ()))]
                  for key in keys[1:]}
        candidates = [by_norms.get(keys[0], []), *map(signed.get, keys[1:])]
        inv_den, inverse = scaled_inverse(rows)
        placed = []  # (image, its rows v^t A)

        def place(j):
            nonlocal nodes
            if j == k:
                # g^-1 = R1^-1 R2, integral exactly when g is
                cols, h = list(zip(*(placed[i][1][f] for i, f in picked))), []
                for p in inverse:
                    h.append([sum(map(mul, p, col)) for col in cols])
                    if any(x % inv_den for x in h[-1]):
                        return None
                return [h[(c + half) % n][(r + half) % n] // inv_den
                        for r in range(n) for c in range(n)]
            for v in candidates[j]:
                nodes += 1
                if all(sum(map(mul, r, v)) == want for i, (_, rows_i) in enumerate(placed)
                       for r, want in zip(rows_i, gram[i][j])):
                    placed.append((v, images(v, 1)))
                    g = place(j + 1)
                    if g:
                        return g
                    placed.pop()
            return None

        g = place(0)
        if g:
            return _certified(t1, t2, kind, g, n, nodes)
        why = f"{len(target)} {listed}"
    return SearchOutcome("refuted", nodes, refuted_by=f"{NARAIN_ISOMETRY}: {why}, {nodes} nodes")


def search_relation(t1: TorusData, t2: TorusData, kind: str, coeff_bound: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Deterministic search for a relation certificate.

    ``iso`` and ``mirror`` are decided by :func:`_isometry`, whatever
    ``coeff_bound`` and ``node_budget``.  For ``derived_eq`` a certificate g
    maps L(T1,T1) onto L(T1,T2) by ``h -> gh`` and L(T1,T2) onto L(T2,T2) by
    ``h -> hg^-1``, integrally both ways, and keeps ``F(h) = tr(q h^t q h)``
    (``g^t q g = q = g q g^t``), so three (rank, det) pairs under F that
    differ refute, by :data:`LATTICE_ISOMETRY` with 0 nodes.  Else the box
    scan of :mod:`flattori.kernels_py` runs over the LLL-reduced basis of
    L(T1,T2) in its canonical order (height shell, support size, positions,
    digits) up to max-norm ``coeff_bound``: its first q-congruent candidate,
    checked once by :func:`verify_map`, is the certificate; an exhausted
    window is ``"none within bound"``, and a spent ``node_budget``
    ``"undecided"``, with the last height shell covered completely.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if t1.d != t2.d:
        raise DimensionError("tori must have the same dimension")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    if kind != "derived_eq":
        return _isometry(t1, t2, kind)
    from ._intlat import integral_coordinate_lattice
    n = 4 * t1.d
    flat = intertwiner_rows(t1, t2, kind)
    classes = [_lattice_class(rows, n) for rows in (
        integral_coordinate_lattice(_constraint_rows(t1, t1, kind)), flat,
        integral_coordinate_lattice(_constraint_rows(t2, t2, kind)))]
    if len(set(classes)) > 1:
        return SearchOutcome("refuted", 0, refuted_by=f"{LATTICE_ISOMETRY}: "
                             + ", ".join(map(str, classes)))
    from . import kernels
    from .kernels_py import completed_height
    hits, nodes, exhausted = kernels.run_filter(flat, n, coeff_bound, node_budget, max_hits=1)
    if hits:
        return _certified(t1, t2, kind, [sum(c * m[t] for c, m in zip(hits[0], flat) if c)
                                         for t in range(n * n)], n, nodes)
    if not exhausted:
        return SearchOutcome("undecided", nodes,
                             last_complete_height=completed_height(len(flat), nodes))
    return SearchOutcome("none within bound", nodes)


# ---------------------------------------------------------------------------
# zero-mode spectrum of the Narain ball
# ---------------------------------------------------------------------------


# The most charges, up to sign, that ``spectrum`` lists, and that the isometry
# search lists on each side (past it the pair is undecided).  A ball just under it
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
        raise SchemaError(f"norm must be nonnegative, got {jsonio.echo(args.norm)}", "--norm")
    triples = spectrum_fingerprint(t, args.norm)
    if triples is None:
        raise SchemaError(f"norm {jsonio.echo(args.norm)} holds more than {SPECTRUM_LIMIT} "
                          "charge vectors up to sign, the limit", "--norm")
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
            raise SchemaError(f"{name} must be at least 1, got {jsonio.echo(value)}")
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
    elif outcome.verdict == "undecided" and args.command != "check-derived-eq":
        print(f"limit exceeded: a Narain ball of the isometry search holds more than "
              f"{SPECTRUM_LIMIT} vectors up to sign, the limit", file=sys.stderr)
        result["limit"] = SPECTRUM_LIMIT
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
