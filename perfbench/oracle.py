"""Outcome oracle: sorts each command into found / refuted / open / fail.

The verdict is read from the report's fields, never from its bytes or its
wording, and every certificate is re-checked here in exact Fraction
arithmetic with the block formulas of the doubled structures:

* ``q = [[0, 1], [1, 0]]``
* ``calI = [[I, 0], [B I + I^t B, -I^t]]``
* ``calJ = [[-I G^-1 B, I G^-1], [G I - B I G^-1 B, B I G^-1]]``
* ``calItilde = [[I, 0], [0, -I^t]]``

Like the input generator, this module does not import flattori.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

from gen import identity, inverse, matmul, transpose, zeros

FOUND, REFUTED, OPEN, FAIL = "found", "refuted", "open", "fail"


def torus_from_json(data):
    def mat(m):
        return [[Fraction(x) for x in row] for row in m]
    return {"d": data["d"], "I": mat(data["I"]), "G": mat(data["G"]), "B": mat(data["B"])}


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _neg(a):
    return [[-x for x in r] for r in a]


def _blocks(tl, tr, bl, br):
    return [list(a) + list(b) for a, b in zip(tl, tr)] + [list(a) + list(b) for a, b in zip(bl, br)]


def det(a):
    m = [list(r) for r in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def torus_is_valid(t):
    i, g, b = t["I"], t["G"], t["B"]
    n = len(i)
    return (matmul(i, i) == _neg(identity(n))
            and g == transpose(g)
            and all(det([r[:k] for r in g[:k]]) > 0 for k in range(1, n + 1))
            and matmul(matmul(transpose(i), g), i) == g
            and b == _neg(transpose(b)))


def doubled(t):
    i, g, b = t["I"], t["G"], t["B"]
    n = len(i)
    it = transpose(i)
    ig = matmul(i, inverse(g))
    z = zeros(n)
    return {
        "q": _blocks(z, identity(n), identity(n), z),
        "calI": _blocks(i, z, _add(matmul(b, i), matmul(it, b)), _neg(it)),
        "calJ": _blocks(_neg(matmul(ig, b)), ig,
                        _add(matmul(g, i), _neg(matmul(matmul(b, ig), b))), matmul(b, ig)),
        "calItilde": _blocks(i, z, z, _neg(it)),
    }


PATTERNS = {
    "iso": (("calI", "calI"), ("calJ", "calJ")),
    "mirror": (("calI", "calJ"), ("calJ", "calI")),
    "derived_eq": (("calItilde", "calItilde"),),
}


def certificate_ok(g, kind, source, target):
    """Integral, unimodular, q-preserving, and intertwining for `kind`."""
    n = 4 * source["d"]
    if (not isinstance(g, list) or len(g) != n
            or any(not isinstance(row, list) or len(row) != n for row in g)
            or any(not isinstance(x, int) for row in g for x in row)):
        return False
    g = [[Fraction(x) for x in row] for row in g]
    d1, d2 = doubled(source), doubled(target)
    if abs(det(g)) != 1 or matmul(matmul(transpose(g), d2["q"]), g) != d1["q"]:
        return False
    return all(matmul(g, d1[a]) == matmul(d2[b], g) for a, b in PATTERNS[kind])


def parse_report(res):
    """The report's ``result`` object, or None if stdout is not one JSON report."""
    try:
        result = json.loads(res.stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return None
    return result if isinstance(result, dict) else None


def search_outcome(res, kind, source, target, related):
    """Classify a check-iso / check-mirror / check-derived-eq run.

    `related` says whether the pair is related by construction (certify) or
    separated by an invariant (refute).  Returns ``(outcome, reason)``.
    """
    result = parse_report(res)
    if result is None:
        if res.rc == 2 and "budget" in res.stderr:
            return OPEN, "node budget exhausted"
        return FAIL, f"exit {res.rc}: {res.stderr.strip()[-200:]}"
    if result.get("found") is True:
        cert = result.get("certificate") or {}
        if not certificate_ok(cert.get("g"), kind, source, target):
            return FAIL, "reported certificate does not re-check"
        return (FOUND, "certificate re-checked") if related else \
            (FAIL, "certificate reported for a separated pair")
    verdict = str(result.get("verdict", "")).lower()
    if result.get("refuted_by") or "refuted" in verdict:
        return (FAIL, "refutation reported for a related pair") if related else \
            (REFUTED, str(result.get("refuted_by") or verdict))
    return OPEN, verdict or "no verdict"


def hodge_ok(result, d):
    h = result.get("h") if result else None
    return h == [[comb(d, p) * comb(d, q) for q in range(d + 1)] for p in range(d + 1)]


def is_11_class(cls, t):
    """Exact test that a nonzero 2-form is of type (1,1).

    The derivation of I^t kills exactly the (p,p) part; on a 2-form with
    skew matrix A it is zero when I^t A + A I = 0.
    """
    n = len(t["I"])
    a = zeros(n)
    for term in cls["grade_terms"]:
        if len(term["indices"]) != 2:
            return False
        i, j = term["indices"]
        a[i][j] += Fraction(term["coeff"])
        a[j][i] -= Fraction(term["coeff"])
    return any(any(r) for r in a) and _add(matmul(transpose(t["I"]), a), matmul(a, t["I"])) == zeros(n)
