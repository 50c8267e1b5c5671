"""Rational cohomology classes of flat tori and their transport under duality.

Cohomology is modeled as the exterior algebra on the dual lattice tensored
with Q, and a class is an element of it (:class:`CohClass`).  The bigrading
is read off exactly from the degree-0 derivation D extending the complex
structure's dual action, :func:`flattori.hodge.derivation`: a (p,q)-class
is an ``i(p-q)``-eigenvector, so the (p,p)-classes are the plain rational
kernel of D on grade 2p.  The ranks of the bigrading, the Lefschetz kernel
and the B-field class need no class, and live in :mod:`flattori.hodge`,
which ``hodge``, ``lefschetz`` and ``beta`` load without this module.

The duality transport lifts the two factors of the mirror certificate
``g = sw . diag(p^-1, p^t)`` to the exterior algebra: ``p^t`` rewrites a
class in the splitting basis, and the swap sends ``e_S ^ e_T`` (S in A, T in
B) to ``sign(S, S^c) (-1)^(m(m-1)/2) e_{S^c} ^ e_T`` with m = |S^c|.
"""

from __future__ import annotations

import os
from itertools import combinations

from . import jsonio
from ._record import Record
from .errors import DimensionError, GradeError, RecoveryError, SchemaError, ValidationError
from .exactlinear import RatMatrix
from .exterior import ExtElement, apply_linear, class_from_json, interior, merge_sign, wedge
# the trace plan of perfbench/traced_cli.py looks these three up here
from .hodge import beta_torsion, derivation, hodge_diamond, lefschetz_kernel_dim  # noqa: F401
from .torus import TorusData, omega, require_valid


class CohClass(Record):
    """A rational cohomology class of a flat torus."""

    torus: TorusData
    element: ExtElement

    def __post_init__(self):
        if self.element.base_rank != self.torus.rank:
            raise DimensionError("class base rank must be twice the torus dimension")


def rational_pp_classes(t: TorusData, p: int):
    """Q-basis of the rational classes of pure type (p,p).

    These form the rational kernel of the derivation D on grade 2p: the
    eigenvalue of a (p',q')-class is i(p'-q'), which vanishes exactly at
    p' = q' = p.
    """
    require_valid(t)
    if p < 0 or p > t.d:
        raise GradeError(f"p must lie in 0..{t.d}")
    n = t.rank
    dmat = derivation(t.I.transpose(), 2 * p)
    basis = list(combinations(range(n), 2 * p))
    classes = []
    for vec in dmat.kernel_basis():
        elem = ExtElement(n, {basis[i]: c for i, c in enumerate(vec) if c})
        classes.append(CohClass(t, elem))
    return classes


# ---------------------------------------------------------------------------
# duality transport
# ---------------------------------------------------------------------------


def fm_transform(s, alpha: CohClass) -> CohClass:
    """Transport a class to the mirror: the lift of the certificate's two factors.

    ``apply_linear`` with ``p^t`` rewrites the class in the splitting basis,
    then the swap dualizes A as the module docstring says.  This is the
    product-model transform (wedge with ``exp(sum eta_a ^ etahat_a)`` on
    ``A x dual(A) x B``, extract the A-volume), of which only the term on S^c
    survives.  The result lives on the mirror that
    :func:`flattori.tduality.mirror_via_tduality` builds for the splitting.
    """
    from .tduality import mirror_via_tduality
    t = alpha.torus
    mirror = mirror_via_tduality(t, s).mirror
    d = t.d
    terms = {}
    for idx, c in apply_linear(alpha.element, s.change_of_basis.transpose()).terms.items():
        k = sum(1 for i in idx if i < d)  # S = idx[:k], T = idx[k:]
        rest = tuple(i for i in range(d) if i not in idx[:k])
        sign = merge_sign(idx[:k], rest)[1] * (-1) ** (len(rest) * (len(rest) - 1) // 2)
        terms[rest + idx[k:]] = c if sign > 0 else -c
    return CohClass(mirror, ExtElement(t.rank, terms))


def inverse_bivector(w_mat: RatMatrix) -> ExtElement:
    """The bivector inverse to a symplectic form matrix.

    Normalized so that contracting the form with its inverse counts the
    dimension: ``interior(inverse_bivector(W), two_form(W)) == n`` on a
    rank-2n space.  With the left-contraction convention used by
    :func:`flattori.exterior.interior` this is minus the matrix inverse.
    """
    return ExtElement.two_form(-w_mat.inverse())


def mirror_class_condition(tprime: TorusData, alphaprime: CohClass) -> bool:
    """Exact test of ``interior(omega^-1, a') - omega ^ a' = 0`` on the mirror."""
    require_valid(tprime)
    if alphaprime.torus != tprime:
        raise ValidationError("class does not live on the given torus")
    w = omega(tprime)
    w_form = ExtElement.two_form(w)
    lhs = interior(inverse_bivector(w), alphaprime.element) - wedge(w_form, alphaprime.element)
    return not lhs


# ---------------------------------------------------------------------------
# the commands of this layer
# ---------------------------------------------------------------------------


def _load_class(path, rank):
    return class_from_json(jsonio.load_json(path), rank, pointer=os.path.basename(path))


def cmd_pp_classes(args):
    t = jsonio.load_torus(args.torus)
    if not 0 <= args.p <= t.d:
        raise SchemaError(f"p must lie in 0..{t.d}, got {jsonio.echo(args.p)}", "--p")
    classes = rational_pp_classes(t, args.p)
    result = {"p": args.p, "dimension": len(classes),
              "basis": [jsonio.class_to_json(c.element) for c in classes]}
    return {"torus": jsonio.torus_to_json(t)}, result, 0


def cmd_fm(args):
    """``fm``: the class transported to the mirror along the splitting."""
    from .tduality import parse_splitting, recovery_failed, split_json
    t = jsonio.load_torus(args.torus)
    s = parse_splitting(args.split, t.rank)
    element = _load_class(args.cls, t.rank)
    alpha = CohClass(t, element)
    inputs = {"torus": jsonio.torus_to_json(t), "class": jsonio.class_to_json(element),
              "split": split_json(s)}
    try:
        image = fm_transform(s, alpha)
    except RecoveryError as exc:
        return recovery_failed(inputs, exc)
    result = {"image": jsonio.class_to_json(image.element),
              "mirror": jsonio.torus_to_json(image.torus)}
    return inputs, result, 0


def cmd_check_mirror_class(args):
    t = jsonio.load_torus(args.torus)
    element = _load_class(args.cls, t.rank)
    ok = mirror_class_condition(t, CohClass(t, element))
    inputs = {"torus": jsonio.torus_to_json(t), "class": jsonio.class_to_json(element)}
    return inputs, {"satisfied": ok}, 0 if ok else 1
