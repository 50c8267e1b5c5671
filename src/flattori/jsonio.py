"""JSON (de)serialization for all file formats the CLI speaks.

Rationals travel as strings ``"p/q"`` (or ``"p"`` for integers) so that
exactness survives serialization; Gaussian rationals as ``{"re","im"}``
objects.  Exterior-algebra classes list their terms with 0-based strictly
increasing index tuples.  Schema violations raise :class:`SchemaError`
with a pointer to the offending field.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .errors import SchemaError
from .exactlinear import RatMatrix, rat, rat_str
from .torus import TorusData


def _is_int(value):
    """JSON integers; ``true`` and ``false`` are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rat_from(value, pointer):
    if isinstance(value, bool):
        raise SchemaError(f"expected a rational number, got {value!r}", pointer)
    try:
        return rat(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise SchemaError(f"expected a rational number, got {value!r}", pointer)


def gauss_to_json(g: GaussRational):
    return {"re": rat_str(g.re), "im": rat_str(g.im)}


def matrix_to_json(m: RatMatrix):
    return [[rat_str(e) for e in row] for row in m.entries]


def matrix_from_json(data, pointer, size) -> RatMatrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise SchemaError("expected a non-empty list of rows", pointer)
    entries = [[_rat_from(e, f"{pointer}[{i}][{j}]") for j, e in enumerate(row)]
               for i, row in enumerate(data)]
    m = RatMatrix(entries)
    if m.rows != size or m.cols != size:
        raise SchemaError(f"expected a {size}x{size} matrix, got {m.rows}x{m.cols}", pointer)
    return m


def torus_to_json(t: TorusData):
    return {
        "d": t.d,
        "I": matrix_to_json(t.I),
        "G": matrix_to_json(t.G),
        "B": matrix_to_json(t.B),
        "label": t.label,
    }


def torus_from_json(data, pointer="torus") -> TorusData:
    if not isinstance(data, dict):
        raise SchemaError("expected an object", pointer)
    if "d" not in data or not _is_int(data["d"]) or data["d"] < 1:
        raise SchemaError("missing or invalid dimension", f"{pointer}.d")
    d = data["d"]
    n = 2 * d
    mats = {}
    for name in ("I", "G", "B"):
        if name not in data:
            raise SchemaError(f"missing matrix {name}", f"{pointer}.{name}")
        mats[name] = matrix_from_json(data[name], f"{pointer}.{name}", n)
    label = data.get("label", "")
    if not isinstance(label, str):
        raise SchemaError("label must be a string", f"{pointer}.label")
    return TorusData(d=d, I=mats["I"], G=mats["G"], B=mats["B"], label=label)


def load_torus(path: str) -> TorusData:
    return torus_from_json(load_json(path), pointer=os.path.basename(path))


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"file not found: {path}", path)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}", path)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"malformed JSON: {exc}", path)


def class_to_json(element: ExtElement):
    terms = []
    for idx in sorted(element.terms, key=lambda t: (len(t), t)):
        terms.append({"indices": list(idx), "coeff": rat_str(element.terms[idx])})
    return {"base_rank": element.base_rank, "grade_terms": terms}


def class_from_json(data, base_rank, pointer="class") -> ExtElement:
    from .exterior import ExtElement
    if not isinstance(data, dict) or "grade_terms" not in data:
        raise SchemaError("expected an object with grade_terms", pointer)
    declared = data.get("base_rank", base_rank)
    if declared != base_rank:
        raise SchemaError(f"class base_rank {declared} does not match the torus rank {base_rank}",
                          f"{pointer}.base_rank")
    if not isinstance(data["grade_terms"], list):
        raise SchemaError("grade_terms must be a list", f"{pointer}.grade_terms")
    terms = {}
    for k, item in enumerate(data["grade_terms"]):
        where = f"{pointer}.grade_terms[{k}]"
        if not isinstance(item, dict) or "indices" not in item or "coeff" not in item:
            raise SchemaError("expected an object with indices and coeff", where)
        idx = item["indices"]
        if (not isinstance(idx, list) or any(not _is_int(i) for i in idx)
                or any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1))
                or (idx and (idx[0] < 0 or idx[-1] >= base_rank))):
            raise SchemaError("indices must be a strictly increasing list within range",
                              f"{where}.indices")
        coeff = _rat_from(item["coeff"], f"{where}.coeff")
        terms[tuple(idx)] = terms.get(tuple(idx), Fraction(0)) + coeff
    return ExtElement(base_rank, terms)


def brane_from_json(data, base_dir=".", pointer="brane"):
    from .abranes import AffineBrane
    if not isinstance(data, dict):
        raise SchemaError("expected an object", pointer)
    if "torus" in data:
        t = torus_from_json(data["torus"], f"{pointer}.torus")
    elif "torus_ref" in data:
        ref = data["torus_ref"]
        if not isinstance(ref, str):
            raise SchemaError("torus_ref must be a path string", f"{pointer}.torus_ref")
        t = load_torus(os.path.join(base_dir, ref))
    else:
        raise SchemaError("need torus or torus_ref", pointer)
    yb = data.get("Y_basis")
    if (not isinstance(yb, list) or not yb
            or any(not isinstance(v, list) or any(not _is_int(x) for x in v) for v in yb)):
        raise SchemaError("Y_basis must be a list of integer vectors", f"{pointer}.Y_basis")
    f = data.get("F")
    fmat = matrix_from_json(f, f"{pointer}.F", len(yb)) if f is not None \
        else RatMatrix.zero(len(yb), len(yb))
    shift = data.get("translation", [])
    if not isinstance(shift, list):
        raise SchemaError("translation must be a list", f"{pointer}.translation")
    translation = tuple(_rat_from(x, f"{pointer}.translation[{i}]") for i, x in enumerate(shift))
    k = next((k for k, v in enumerate(yb) if len(v) != t.rank), None)
    if k is not None:
        raise SchemaError(f"brane directions must have length {t.rank}", f"{pointer}.Y_basis[{k}]")
    if shift and len(shift) != t.rank:
        raise SchemaError(f"translation must have length {t.rank}", f"{pointer}.translation")
    return AffineBrane(torus=t, y_basis=tuple(tuple(v) for v in yb),
                       curvature=fmat, translation=translation)


def load_brane(path: str) -> AffineBrane:
    return brane_from_json(load_json(path), base_dir=os.path.dirname(path) or ".",
                           pointer=os.path.basename(path))


def certificate_to_json(cert: Certificate):
    return {
        "kind": cert.map.kind,
        "g": [[int(e) for e in row] for row in cert.map.g.entries],
        "det": int(cert.map.g.det()),
        "checks": [{"name": c.name, "ok": c.ok} for c in cert.checks],
    }


def map_from_json(data, base_dir=".", pointer="map") -> LatticeMap:
    from .equivalence import KINDS, LatticeMap
    if not isinstance(data, dict):
        raise SchemaError("expected an object", pointer)
    kind = data.get("kind")
    if kind not in KINDS:
        raise SchemaError("kind must be iso, mirror, or derived_eq", f"{pointer}.kind")

    def torus_arg(key):
        val = data.get(key)
        if isinstance(val, dict):
            return torus_from_json(val, f"{pointer}.{key}")
        if isinstance(val, str):
            return load_torus(os.path.join(base_dir, val))
        raise SchemaError(f"{key} must be a torus object or a path", f"{pointer}.{key}")

    source = torus_arg("source")
    target = torus_arg("target")
    if target.d != source.d:
        raise SchemaError(f"target dimension {target.d} differs from source dimension "
                          f"{source.d}", f"{pointer}.target")
    g = matrix_from_json(data.get("g"), f"{pointer}.g", 4 * source.d)
    if not g.is_integral():
        raise SchemaError("g must be integral", f"{pointer}.g")
    return LatticeMap(g=g, source=source, target=target, kind=kind)


def load_map(path: str) -> LatticeMap:
    return map_from_json(load_json(path), base_dir=os.path.dirname(path) or ".",
                         pointer=os.path.basename(path))
