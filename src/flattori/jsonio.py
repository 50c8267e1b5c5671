"""JSON (de)serialization shared by the commands: tori, matrices, checks.

Rationals travel as strings ``"p/q"`` (or ``"p"`` for integers) so that
exactness survives serialization; a file may also give a JSON integer, and
nothing else: :func:`ratio_from_json` refuses decimals, exponents, ``_``
digit separators and surrounding blanks, which :class:`~fractions.Fraction`
would accept.  It reads p and q as ints, a matrix is built from them as int
rows over the lcm of its denominators, and a matrix is written from its int
rows and denominator, so loading and writing a torus builds no Fraction and
this module does not import :mod:`fractions`; :func:`rat_from_json` hands
the layers that compute with single rationals their Fraction.  An input
error repeats at most :data:`ECHO_LIMIT` characters of the offending value,
a file's or the command line's (:func:`echo`).  A Gaussian rational is
carried as its ``(re, im)`` pair of rationals and written as an
``{"re","im"}`` object by :func:`gauss_to_json` alone.  Exterior-algebra
classes list their terms with 0-based strictly increasing index tuples.
Schema violations raise :class:`SchemaError` with a pointer to the
offending field.

This module is part of every command's start-up, so it holds only what more
than one layer reads.  A format that one layer reads lives next to its
type: a class in :mod:`flattori.exterior`, a brane in
:mod:`flattori.abranes`, a relation map in :mod:`flattori.equivalence`.
:func:`load_brane` and :func:`load_map` import theirs when called.
"""

from __future__ import annotations

import json
import math
import os

from .errors import SchemaError
from .exactlinear import RatMatrix, rat_str, ratio_str
from .torus import TorusData

# An input error repeats the offending value up to this many characters of
# its repr; past them it is cut, and its length is given.
ECHO_LIMIT = 40


def is_json_int(value):
    """JSON integers; ``true`` and ``false`` are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def ratio_from_json(value, pointer):
    """``(p, q)``, ints with q > 0, of a file's rational: a JSON integer, or a
    string ``"p"`` or ``"p/q"`` with p ASCII digits after an optional sign
    and q nonzero ASCII digits."""
    if is_json_int(value):
        return value, 1
    if isinstance(value, str):
        p, slash, q = value.partition("/")
        digits = p[1:] if p[:1] in ("+", "-") else p
        if (digits + q).isascii() and digits.isdigit() and (q.isdigit() or not slash):
            try:
                p, q = int(p), int(q) if slash else 1
            except ValueError:
                pass  # more digits than int() may read
            else:
                if q:
                    return p, q
    raise SchemaError(f"expected a rational number, got {echo(value)}", pointer)


def echo(value, quoted=True):
    """``repr(value)``, or ``str(value)`` if not ``quoted``, as an input error
    repeats it: cut past :data:`ECHO_LIMIT` characters, then its type and length."""
    text = repr(value) if quoted else str(value)
    if len(text) > ECHO_LIMIT:
        size = len(value) if isinstance(value, (str, list, dict)) else len(text)
        text = f"{text[:ECHO_LIMIT]}... ({type(value).__name__} of length {size})"
    return text


def rat_from_json(value, pointer):
    """A file's rational, by :func:`ratio_from_json`, as a Fraction."""
    from ._rational import Q
    return Q(*ratio_from_json(value, pointer))


def gauss_to_json(g):
    """The ``{"re", "im"}`` object of a Gaussian rational given as its ``(re, im)`` pair."""
    re, im = g
    return {"re": rat_str(re), "im": rat_str(im)}


def matrix_to_json(m: RatMatrix):
    if m.den == 1:  # an integer matrix is written from its int rows
        return [list(map(str, row)) for row in m.num]
    return [[ratio_str(x, m.den) for x in row] for row in m.num]


def matrix_from_json(data, pointer, size) -> RatMatrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise SchemaError("expected a non-empty list of rows", pointer)
    k = next((k for k, row in enumerate(data) if not row or len(row) != len(data[0])), None)
    if k is not None:
        raise SchemaError("matrix rows must be non-empty and of equal length", f"{pointer}[{k}]")
    pairs = [[ratio_from_json(e, f"{pointer}[{i}][{j}]") for j, e in enumerate(row)]
             for i, row in enumerate(data)]
    den = math.lcm(*(q for row in pairs for _, q in row))
    m = RatMatrix.over(den, [[p * (den // q) for p, q in row] for row in pairs])
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
    if "d" not in data or not is_json_int(data["d"]) or data["d"] < 1:
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
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
        # literal past the int-to-string digit limit, RecursionError nesting
        # past the recursion limit: exit 1 must never come from a bad file
        raise SchemaError(f"malformed JSON: {exc}", path)


def class_to_json(element):
    terms = []
    for idx in sorted(element.terms, key=lambda t: (len(t), t)):
        terms.append({"indices": list(idx), "coeff": rat_str(element.terms[idx])})
    return {"base_rank": element.base_rank, "grade_terms": terms}


def load_brane(path: str):
    from .abranes import brane_from_json
    return brane_from_json(load_json(path), base_dir=os.path.dirname(path) or ".",
                           pointer=os.path.basename(path))


def checks_to_json(checks):
    return [{"name": c.name, "ok": c.ok} for c in checks]


def certificate_to_json(cert):
    return {
        "kind": cert.map.kind,
        "g": [list(row) for row in cert.map.g.num],  # a lattice map is integral
        "det": cert.map.g.det(),  # an int: g is integral
        "checks": checks_to_json(cert.checks),
    }


def load_map(path: str):
    from .equivalence import map_from_json
    return map_from_json(load_json(path), base_dir=os.path.dirname(path) or ".",
                         pointer=os.path.basename(path))
