"""Lattice-level relations between tori: isomorphism, mirror, derived equivalence.

A relation is certified by an integral unimodular map ``g`` on the doubled
lattices that preserves the split pairing q and intertwines the doubled
structures in the pattern belonging to the relation kind, checked by
:func:`~flattori.relations.verify_map`.  The certificate types, the check
and the relation table live in :mod:`flattori.relations`, and this module
re-exports them (``LatticeMap``, ``Certificate``, ``verify_map``,
``RELATIONS``, ``KINDS``).

:func:`search_relation` is the one entry point of all three searches.
``iso`` and ``mirror`` are decided by the isometry search of the Narain
lattices, :func:`flattori.isometry.isometry`, which it imports only when it
runs it; ``check-iso`` and ``check-mirror`` are handled there, so they
compile none of this module.  This module holds the ``derived_eq`` path:
a pair of equal tori is certified by the identity.  Otherwise it reads the
lattices of integral intertwiners, integer kernels of linear constraint
rows: a pair whose L(T1,T1), L(T1,T2), L(T2,T2) differ in (rank, det)
under ``tr(q h^t q h)`` is refuted, and otherwise a box scan over an
LLL-reduced basis of L(T1,T2) keeps the first q-congruent candidate, or
ends "none within bound", or "undecided" once it spends its node budget.
The identity and the scan's hit are each checked once by
:func:`flattori.relations.certified`, the check of the isometry search too.

The kernels (:mod:`flattori._intlat`) are imported when the lattices are
built; LLL (:mod:`flattori._lll`) and the filter (:mod:`flattori.kernels`,
:mod:`flattori.kernels_py`) only when the box scan runs, so a refuted pair
compiles neither.  None builds a Fraction or imports :mod:`fractions`.
``mirror`` and ``fm`` compile :mod:`flattori.relations` and
:mod:`flattori._intkernel`, not this module.  The layer's commands
(``spectrum``, ``check-derived-eq`` and ``verify-map``) and the
relation-map file format live at the end of the module; ``spectrum`` lists
the Narain ball with the enumerator of :mod:`flattori.isometry`.
"""

from __future__ import annotations

import os
import sys

from . import jsonio
from ._record import Record, failures
from .errors import DimensionError, SchemaError
from .exactlinear import RatMatrix, cleared, int_det, ratio_str
from .relations import (KINDS, RELATIONS, Certificate, LatticeMap,  # noqa: F401
                        certified, verify_map)
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


def _as_matrix(flat, n):
    return RatMatrix([flat[i * n:(i + 1) * n] for i in range(n)])


def intertwiner_space(t1: TorusData, t2: TorusData, kind: str):
    """The canonical LLL-reduced basis (:func:`~flattori._intlat.pair_reduce`)
    of the lattice of integral intertwiners, as ``4d x 4d`` matrices.

    Each is a map ``g`` that satisfies the linear intertwining constraints;
    together they span every integral solution over Z and the solution
    space over Q.  The quadratic q-condition is not imposed here.  This is
    the basis the ``derived_eq`` box scan walks, flattened row-major.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if t1.d != t2.d:
        raise DimensionError("tori must have the same dimension")
    from ._intlat import integral_coordinate_lattice, pair_reduce
    n = 4 * t1.d
    return [_as_matrix(row, n)
            for row in pair_reduce(integral_coordinate_lattice(_constraint_rows(t1, t2, kind)))]


LATTICE_ISOMETRY = "(rank, det) of tr(q h^t q h) differs on L(T1,T1), L(T1,T2), L(T2,T2)"


class SearchOutcome(Record):
    """The verdict of a search: ``"found"`` (with its certificate), ``"refuted"``
    (``refuted_by`` names the proof:
    :data:`~flattori.isometry.NARAIN_ISOMETRY` or, for ``derived_eq``,
    :data:`LATTICE_ISOMETRY`, then what it read), ``"undecided"`` (for
    ``iso`` and ``mirror``, a Narain ball past
    :data:`~flattori.isometry.SPECTRUM_LIMIT`; for ``derived_eq``, the node
    budget ran out after covering every height shell up to
    ``last_complete_height``), and for ``derived_eq`` only ``"none within
    bound"``."""

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
    """The found outcome for the flattened map ``g``, checked once by :func:`certified`."""
    m = LatticeMap(g=_as_matrix(g, n), source=t1, target=t2, kind=kind)
    return SearchOutcome("found", nodes, certified(m))


def search_relation(t1: TorusData, t2: TorusData, kind: str, coeff_bound: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Deterministic search for a relation certificate.

    ``iso`` and ``mirror`` are decided by :func:`flattori.isometry.isometry`,
    whatever ``coeff_bound`` and ``node_budget``.  For ``derived_eq``, tori
    with equal I, G and B are related by the identity, with 0 nodes.  Else a
    certificate g maps L(T1,T1) onto L(T1,T2) by ``h -> gh`` and L(T1,T2)
    onto L(T2,T2) by ``h -> hg^-1``, integrally both ways, and keeps
    ``F(h) = tr(q h^t q h)`` (``g^t q g = q = g q g^t``), so three (rank, det)
    pairs under F that differ refute, by :data:`LATTICE_ISOMETRY` with 0
    nodes; they are read off the integer kernels as built, as no change of
    basis moves them.  Else the box scan of :mod:`flattori.kernels_py` runs
    over the LLL-reduced basis (:func:`~flattori._intlat.pair_reduce`) of
    L(T1,T2) in its canonical order (height shell, support size, positions,
    digits) up to max-norm ``coeff_bound``: its first q-congruent candidate,
    checked once by :func:`certified`, is the certificate; an exhausted
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
        from .isometry import isometry
        cert, nodes, refuted_by = isometry(t1, t2, kind)
        verdict = "found" if cert else "refuted" if refuted_by else "undecided"
        return SearchOutcome(verdict, nodes, cert, refuted_by=refuted_by)
    n = 4 * t1.d
    if (t1.I, t1.G, t1.B) == (t2.I, t2.G, t2.B):
        return _certified(t1, t2, kind, [int(i == j) for i in range(n) for j in range(n)], n, 0)
    from ._intlat import integral_coordinate_lattice, pair_reduce
    lattices = [integral_coordinate_lattice(_constraint_rows(a, b, kind))
                for a, b in ((t1, t1), (t1, t2), (t2, t2))]
    classes = [_lattice_class(rows, n) for rows in lattices]
    if len(set(classes)) > 1:
        return SearchOutcome("refuted", 0, refuted_by=f"{LATTICE_ISOMETRY}: "
                             + ", ".join(map(str, classes)))
    from . import kernels
    from .kernels_py import completed_height
    flat = pair_reduce(lattices[1])
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


def spectrum_fingerprint(t: TorusData, norm: int):
    """The sorted ``(q(gamma,gamma), p^2/2, pbar^2/2)`` triples of the Narain ball, as strings.

    One triple per pair +-gamma of nonzero charges with ``gamma^t N gamma =
    p^2/2 + pbar^2/2 <= norm``.  An isomorphism or a T-duality preserves N
    and q, so the triples do not see the lattice basis, and a torus and its
    mirror share them.  :func:`~flattori.isometry.short_vectors` lists the
    ball of ``den N`` at ``den norm`` with values ``s = den gamma^t N gamma``,
    so ``p^2/2, pbar^2/2 = (s -+ den q) / (2 den)``, sorted by ``(q, s)``,
    their exact order.  A ball past :data:`~flattori.isometry.SPECTRUM_LIMIT`
    gives None.
    """
    from .isometry import SPECTRUM_LIMIT, short_vectors
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
        from .isometry import SPECTRUM_LIMIT
        raise SchemaError(f"norm {jsonio.echo(args.norm)} holds more than {SPECTRUM_LIMIT} "
                          "charge vectors up to sign, the limit", "--norm")
    return {"torus": jsonio.torus_to_json(t)}, {"norm": args.norm, "triples": triples}, 0


def cmd_search(args):
    """``check-derived-eq``: :func:`search_relation`."""
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
    outcome = search_relation(t1, t2, "derived_eq", bound, node_budget=budget)
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
