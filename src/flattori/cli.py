"""Command-line surface: every subcommand prints one JSON report to stdout.

Reports are deterministic (sorted keys, no timestamps) and always carry the
fields ``command``, ``inputs``, ``result``, and ``paper_ref`` (a stable
identifier of the mathematical claim the command decides).  Exit codes:
0 for success/true/found, 1 for refuted/false/none-within-bound/undecided
(a search that spent its node budget), 2 for input errors.  Diagnostics go
to stderr.

Each command imports only the layers it runs.  Start-up loads ``jsonio``,
``torus``, ``exactlinear``, ``errors`` and ``_record``; the handlers import
``equivalence``, ``tduality``, ``cohomology``, ``abranes`` and ``fock`` when
they are called, and only ``cohomology``, ``abranes`` and reading a class
load the exterior algebra (``exterior``).  Start-up is most of a typical
command's time, and where ``PYTHONDONTWRITEBYTECODE`` is set every imported
line is compiled again on every start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from math import comb

from . import jsonio
from .errors import FlatToriError, RecoveryError, SchemaError, ValidationError
from .exactlinear import rat_str
from .torus import BLOCK_CONVENTION, doubled, narain_form, omega, require_valid, validate

# budget is equivalence.DEFAULT_NODE_BUDGET, written out so that loading the
# defaults does not import the search layer.
DEFAULTS = {"bound": 2, "budget": 10 ** 7}


def _emit(args, inputs, result, code):
    report = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "paper_ref": args.claim,
    }
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return code


def _load_config(path):
    cfg = dict(DEFAULTS)
    if path:
        data = jsonio.load_json(path)
        if not isinstance(data, dict):
            raise SchemaError("config must be an object", path)
        for key, value in data.items():
            if key not in DEFAULTS:
                raise SchemaError(f"unknown config key {key!r}", key)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise SchemaError(f"config {key} must be a nonnegative integer", key)
            cfg[key] = value
    return cfg


def _setting(args, cfg, name):
    value = getattr(args, name.replace("-", "_"), None)
    return cfg[name] if value is None else value


def _at_least_one(name, value):
    if value < 1:
        raise SchemaError(f"{name} must be at least 1, got {value}")
    return value


def parse_splitting(text, n):
    """Parse ``"1,0;0,1|0,1;1,0"``-style A|B vector lists."""
    from . import tduality
    try:
        a_part, b_part = text.split("|")
        a_vecs = [[int(x) for x in v.split(",")] for v in a_part.split(";") if v]
        b_vecs = [[int(x) for x in v.split(",")] for v in b_part.split(";") if v]
    except ValueError:
        raise SchemaError("splitting must look like 'a1;a2|b1;b2' with comma-separated "
                          "integer entries", "--split")
    if not a_vecs or not b_vecs:
        raise SchemaError("each half of a splitting needs at least one vector", "--split")
    if any(len(v) != n for v in a_vecs + b_vecs):
        raise SchemaError(f"splitting vectors must have length {n}", "--split")
    return tduality.LagrangianSplitting.from_vectors(a_vecs, b_vecs)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args, cfg):
    t = jsonio.load_torus(args.torus)
    report = validate(t)
    result = {"ok": report.ok,
              "checks": [{"name": c.name, "ok": c.ok} for c in report.checks]}
    return _emit(args, {"torus": jsonio.torus_to_json(t)}, result, 0 if report.ok else 1)


def _cmd_doubled(args, cfg):
    t = jsonio.load_torus(args.torus)
    ds = doubled(t)
    result = {
        "q": jsonio.matrix_to_json(ds.q),
        "calI": jsonio.matrix_to_json(ds.calI),
        "calJ": jsonio.matrix_to_json(ds.calJ),
        "calItilde": jsonio.matrix_to_json(ds.calItilde),
        "block_convention": BLOCK_CONVENTION,
        "omega": jsonio.matrix_to_json(omega(t)),
        "narain_form": jsonio.matrix_to_json(narain_form(t)),
    }
    return _emit(args, {"torus": jsonio.torus_to_json(t)}, result, 0)


def _cmd_spectrum(args, cfg):
    from . import equivalence
    t = jsonio.load_torus(args.torus)
    if args.height < 0:
        raise SchemaError(f"height must be nonnegative, got {args.height}")
    fp = equivalence.spectrum_fingerprint(t, args.height)
    result = {"height": args.height,
              "triples": [[rat_str(x) for x in triple] for triple in fp]}
    return _emit(args, {"torus": jsonio.torus_to_json(t)}, result, 0)


def _search_command(kind, args, cfg):
    from . import equivalence
    t1 = jsonio.load_torus(args.source)
    t2 = jsonio.load_torus(args.target)
    if t2.d != t1.d:
        raise SchemaError(f"tori must have the same dimension, got {t1.d} and {t2.d}",
                          f"{os.path.basename(args.target)}.d")
    bound = _at_least_one("bound", _setting(args, cfg, "bound"))
    budget = _at_least_one("budget", _setting(args, cfg, "budget"))
    inputs = {"source": jsonio.torus_to_json(t1), "target": jsonio.torus_to_json(t2),
              "bound": bound}
    outcome = equivalence.search_relation(t1, t2, kind, bound, node_budget=budget)
    if outcome.found:
        result = {"found": True,
                  "certificate": jsonio.certificate_to_json(outcome.certificate),
                  "nodes": outcome.nodes_used}
        return _emit(args, inputs, result, 0)
    result = {"found": False, "verdict": outcome.verdict, "nodes": outcome.nodes_used}
    if outcome.verdict == "refuted":
        result["refuted_by"] = outcome.refuted_by
    elif outcome.verdict == "undecided":
        print(f"budget exceeded: search exhausted its node budget ({budget}) before "
              f"covering height {bound} ({outcome.nodes_used}/{budget} nodes)",
              file=sys.stderr)
        result.update(budget=budget, last_complete_height=outcome.last_complete_height)
    return _emit(args, inputs, result, 1)


def _cmd_verify_map(args, cfg):
    from . import equivalence
    m = jsonio.load_map(args.map)
    cert = equivalence.verify_map(m)
    result = {"valid": cert.valid,
              "certificate": jsonio.certificate_to_json(cert)}
    if not cert.valid:
        result["refuting_check"] = cert.first_failure
    return _emit(args, {"map": args.map, "kind": m.kind}, result, 0 if cert.valid else 1)


def _cmd_mirror(args, cfg):
    from . import tduality
    t = jsonio.load_torus(args.torus)
    inputs = {"torus": jsonio.torus_to_json(t)}
    try:
        s = (parse_splitting(args.split, t.rank) if args.split
             else tduality.find_lagrangian_splitting(t))
        inputs["split"] = {"A": [list(v) for v in s.a_basis], "B": [list(v) for v in s.b_basis]}
        mr = tduality.mirror_via_tduality(t, s)
    except RecoveryError as exc:
        return _emit(args, inputs,
                     {"found": False, "verdict": "recovery failed", "block": exc.block}, 1)
    result = {
        "found": True,
        "mirror": jsonio.torus_to_json(mr.mirror),
        "certificate": jsonio.certificate_to_json(mr.duality_certificate),
        "recovery_report": [{"name": n, "ok": ok} for n, ok in mr.recovery_report],
    }
    _write_json_files([(path, data, flag) for path, data, flag in (
        (args.out_torus, result["mirror"], "--out-torus"),
        (args.out_cert, result["certificate"], "--out-cert")) if path])
    return _emit(args, inputs, result, 0)


def _write_json_files(outputs):
    """Write each ``(path, data, flag)``, opening every path before writing any.

    An unwritable path is an input error that leaves no output behind: the
    files opened so far are removed if this call created them, and a file
    that existed is truncated only once every path is open.
    """
    opened = []
    try:
        for path, _, flag in outputs:
            existed = os.path.exists(path)
            try:
                opened.append((open(path, "a"), existed))
            except OSError as exc:
                raise SchemaError(f"cannot write {path}: {exc.strerror}", flag)
    except SchemaError:
        for (fh, existed), (path, _, _) in zip(opened, outputs):
            fh.close()
            if not existed:
                os.remove(path)
        raise
    for (fh, _), (_, data, _) in zip(opened, outputs):
        with fh:
            fh.truncate(0)
            json.dump(data, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _cmd_hodge(args, cfg):
    from . import cohomology
    t = jsonio.load_torus(args.torus)
    hd = cohomology.hodge_diamond(t)
    result = {"d": hd.d, "h": [list(row) for row in hd.h]}
    return _emit(args, {"torus": jsonio.torus_to_json(t)}, result, 0)


def _cmd_pp_classes(args, cfg):
    from . import cohomology
    t = jsonio.load_torus(args.torus)
    if not 0 <= args.p <= t.d:
        raise SchemaError(f"p must lie in 0..{t.d}, got {args.p}", "--p")
    classes = cohomology.rational_pp_classes(t, args.p)
    result = {"p": args.p, "dimension": len(classes),
              "basis": [jsonio.class_to_json(c.element) for c in classes]}
    return _emit(args, {"torus": jsonio.torus_to_json(t)}, result, 0)


def _cmd_lefschetz(args, cfg):
    from . import cohomology
    t = jsonio.load_torus(args.torus)
    dim = cohomology.lefschetz_kernel_dim(t)
    result = {"kernel_dimension": dim,
              "expected": comb(2 * t.d, t.d) - comb(2 * t.d, t.d + 2)}
    return _emit(args, {"torus": jsonio.torus_to_json(t)}, result, 0)


def _cmd_fm(args, cfg):
    from . import cohomology
    t = jsonio.load_torus(args.torus)
    s = parse_splitting(args.split, t.rank)
    data = jsonio.load_json(args.cls)
    element = jsonio.class_from_json(data, t.rank)
    alpha = cohomology.CohClass(t, element)
    image = cohomology.fm_transform(s, alpha)
    result = {"image": jsonio.class_to_json(image.element),
              "mirror": jsonio.torus_to_json(image.torus)}
    inputs = {"torus": jsonio.torus_to_json(t), "class": jsonio.class_to_json(element),
              "split": args.split}
    return _emit(args, inputs, result, 0)


def _cmd_check_mirror_class(args, cfg):
    from . import cohomology
    t = jsonio.load_torus(args.torus)
    element = jsonio.class_from_json(jsonio.load_json(args.cls), t.rank)
    alpha = cohomology.CohClass(t, element)
    ok = cohomology.mirror_class_condition(t, alpha)
    inputs = {"torus": jsonio.torus_to_json(t), "class": jsonio.class_to_json(element)}
    return _emit(args, inputs, {"satisfied": ok}, 0 if ok else 1)


def _cmd_beta(args, cfg):
    from . import cohomology
    t = jsonio.load_torus(args.torus)
    rep = cohomology.beta_torsion(t)
    result = {
        "torsion": rep.torsion,
        "projection_nonzero": rep.projection_nonzero,
        "projection_02": [jsonio.gauss_to_json(x) for x in rep.projection],
        "membership_solution": [rat_str(x) for x in rep.membership_solution],
    }
    return _emit(args, {"torus": jsonio.torus_to_json(t)}, result, 0 if rep.torsion else 1)


def _cmd_abrane_check(args, cfg):
    from . import abranes
    b = jsonio.load_brane(args.brane)
    rep = b.acceptance
    result = {
        "accepted": rep.accepted,
        "k": rep.k,
        "conditions": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in rep.conditions],
    }
    if rep.accepted:
        result["transverse_complex_structure"] = (
            jsonio.matrix_to_json(rep.transverse_j) if rep.transverse_j is not None else [])
        anomaly = abranes.anomaly_check_affine(b)
        result["anomaly"] = {
            "h_constant": anomaly.h_constant,
            "bockstein_class_zero": anomaly.bockstein_class_zero,
            "top_coefficient": jsonio.gauss_to_json(anomaly.top_coefficient),
        }
        wedge_rep = abranes.wedge_characterization(b)
        result["wedge_powers"] = {
            "vanishing_powers": list(wedge_rep.vanishing_powers),
            "first_vanishing_power": wedge_rep.first_vanishing_power,
            "stated_conditions_hold": wedge_rep.stated_conditions_hold,
            "agreement_with_condition_iii": wedge_rep.agreement,
        }
    else:
        result["rejection"] = rep.rejection
    return _emit(args, {"brane": args.brane}, result, 0 if rep.accepted else 1)


def _cmd_fock_verify(args, cfg):
    from . import fock
    from .exactlinear import RatMatrix
    inputs = {}
    if args.torus:
        if args.d is not None:
            raise SchemaError("give --d or --torus, not both", "--d")
        t = jsonio.load_torus(args.torus)
        require_valid(t)
        inputs["torus"] = jsonio.torus_to_json(t)
        g = t.G
        d = t.d
    else:
        d = args.d
        if d is None:
            raise SchemaError("need --d or --torus", "--d")
        g = RatMatrix.identity(2 * _at_least_one("d", d))
    try:
        cap = Fraction(args.cap)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"cap must be a rational number, got {args.cap!r}", "--cap")
    if cap < fock.HALF:
        raise SchemaError(f"cap must be at least 1/2, got {cap}", "--cap")
    space = fock.TruncatedFock(d, cap, g)
    rows = fock.ccr_car_sweep(space)
    fails = sum(1 for r in rows if r["status"] == "fail")
    passes = sum(1 for r in rows if r["status"] == "pass")
    inconclusive = sum(1 for r in rows if r["status"] == "inconclusive")
    result = {"d": d, "cap": str(cap), "basis_dimension": len(space.basis),
              "pass": passes, "fail": fails, "inconclusive": inconclusive,
              "checks": rows}
    inputs.update(d=d, cap=str(cap))
    return _emit(args, inputs, result, 0 if fails == 0 else 1)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(prog="flattori", description=__doc__)
    top.add_argument("--config", help="JSON sidecar with bound/budget defaults")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, claim, handler, configure):
        p = sub.add_parser(name)
        configure(p)
        p.set_defaults(handler=handler, claim=claim)

    add("validate", "flat-torus-data-invariants", _cmd_validate, lambda p: p.add_argument("torus"))
    add("doubled", "doubled-lattice-structures", _cmd_doubled, lambda p: p.add_argument("torus"))

    def spectrum_args(p):
        p.add_argument("torus")
        p.add_argument("--height", type=int, default=1)
    add("spectrum", "zero-mode-spectrum-invariants", _cmd_spectrum, spectrum_args)

    def search_args(p):
        p.add_argument("source")
        p.add_argument("target")
        p.add_argument("--bound", type=int, default=None)
        p.add_argument("--budget", type=int, default=None)
    for name, kind, claim in (
            ("check-iso", "iso", "scft-isomorphism-lattice-criterion"),
            ("check-mirror", "mirror", "mirror-symmetry-lattice-criterion"),
            ("check-derived-eq", "derived_eq", "derived-equivalence-lattice-criterion")):
        add(name, claim, partial(_search_command, kind), search_args)

    add("verify-map", "lattice-map-verification", _cmd_verify_map, lambda p: p.add_argument("map"))

    def mirror_args(p):
        p.add_argument("--torus", required=True)
        p.add_argument("--split", default=None)
        p.add_argument("--out-torus", default=None)
        p.add_argument("--out-cert", default=None)
    add("mirror", "tduality-mirror-construction", _cmd_mirror, mirror_args)

    add("hodge", "hodge-diamond-ranks", _cmd_hodge, lambda p: p.add_argument("torus"))

    def pp_args(p):
        p.add_argument("torus")
        p.add_argument("--p", type=int, required=True)
    add("pp-classes", "rational-pp-classes", _cmd_pp_classes, pp_args)

    add("lefschetz", "middle-degree-lefschetz-kernel", _cmd_lefschetz,
        lambda p: p.add_argument("torus"))

    def fm_args(p):
        p.add_argument("--torus", required=True)
        p.add_argument("--split", required=True)
        p.add_argument("--class", dest="cls", required=True)
    add("fm", "duality-cohomology-transport", _cmd_fm, fm_args)

    def cmc_args(p):
        p.add_argument("--torus", required=True)
        p.add_argument("--class", dest="cls", required=True)
    add("check-mirror-class", "mirror-class-condition", _cmd_check_mirror_class, cmc_args)

    add("beta", "bfield-brauer-torsion", _cmd_beta, lambda p: p.add_argument("torus"))
    add("abrane-check", "coisotropic-brane-conditions", _cmd_abrane_check,
        lambda p: p.add_argument("--brane", required=True))

    def fock_args(p):
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--cap", default="2")
        p.add_argument("--torus", default=None)
    add("fock-verify", "oscillator-algebra-relations", _cmd_fock_verify, fock_args)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.handler(args, cfg)
    except (SchemaError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FlatToriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
