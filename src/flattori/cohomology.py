"""Rational cohomology of flat tori and its transport under duality.

Cohomology is modeled as the exterior algebra on the dual lattice tensored
with Q.  The bigrading is read off exactly from the degree-0 derivation D
extending the complex structure's dual action: a (p,q)-class is an
``i(p-q)``-eigenvector.  D is a rational matrix, so every question about the
bigrading is answered over Q: the (p,p)-part is the plain rational kernel of
D, the ``+-i m`` eigenspaces together are the kernel of ``D^2 + m^2``, and the
(0,2)-projector on grade 2 is the polynomial ``-D^2/8 + i D/4`` in D.

The duality transport lifts the two factors of the mirror certificate
``g = sw . diag(p^-1, p^t)`` to the exterior algebra: ``p^t`` rewrites a
class in the splitting basis, and the swap sends ``e_S ^ e_T`` (S in A, T in
B) to ``sign(S, S^c) (-1)^(m(m-1)/2) e_{S^c} ^ e_T`` with m = |S^c|.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations
from math import comb

from . import jsonio
from ._rational import QZERO
from ._record import Record
from .errors import DimensionError, GradeError, RecoveryError, SchemaError, ValidationError
from .exactlinear import RatMatrix, rat_str
from .exterior import (ExtElement, apply_linear, class_from_json, derivation_map, interior,
                       merge_sign, wedge)
from .torus import TorusData, omega, require_valid


class CohClass(Record):
    """A rational cohomology class of a flat torus."""

    torus: TorusData
    element: ExtElement

    def __post_init__(self):
        if self.element.base_rank != self.torus.rank:
            raise DimensionError("class base rank must be twice the torus dimension")


class HodgeDiamond(Record):
    d: int
    h: tuple  # h[p][q]


def _dual_action(t: TorusData) -> RatMatrix:
    # the complex structure acting on covectors, in the dual basis
    return t.I.transpose()


def _projector_02(dual_i: RatMatrix):
    """Real and imaginary parts of the projector onto the (0,2) part of grade 2.

    On grade 2 the spectrum of D lies in {-2i, 0, 2i}, so the projector onto
    the -2i eigenspace is ``D (D - 2i) / ((-2i)(-4i)) = -D^2/8 + i D/4``.
    """
    dmat = derivation_map(dual_i, 2)
    return (dmat * dmat).scale(Fraction(-1, 8)), dmat.scale(Fraction(1, 4))


def hodge_diamond(t: TorusData) -> HodgeDiamond:
    """Bigraded ranks computed from the complex structure, cross-checked.

    Each ``h^{p,q}`` is the dimension of the ``i(p-q)``-eigenspace of the
    derivation D on grade p+q, found over Q.  D is real and semisimple, and
    complex conjugation swaps its ``+-i m`` eigenspaces, so ``h^{p,p} =
    dim ker D`` and, for p < q, ``h^{p,q} = h^{q,p} = dim ker(D^2 + (q-p)^2)
    / 2``.  For a flat torus this must agree with ``C(d,p) C(d,q)``; an odd
    kernel or a disagreement raises (it would mean corrupted input or a bug,
    not new mathematics).
    """
    require_valid(t)
    d = t.d
    dual_i = _dual_action(t)
    grid = [[0] * (d + 1) for _ in range(d + 1)]
    for k in range(0, 2 * d + 1):
        dmat = derivation_map(dual_i, k)
        dsq = dmat * dmat
        for p in range(max(0, k - d), k // 2 + 1):
            q = k - p
            if p == q:
                rank = dmat.rows - dmat.rank()
            else:
                both = dmat.rows - dsq.minus_scalar(-(q - p) ** 2).rank()
                if both % 2:
                    raise ValidationError(
                        f"the +-{q - p}i eigenspaces of grade {k} have odd dimension {both}")
                rank = both // 2
            if rank != comb(d, p) * comb(d, q):
                raise ValidationError(
                    f"h^{{{p},{q}}} computed as {rank}, expected {comb(d, p) * comb(d, q)}")
            grid[p][q] = grid[q][p] = rank
    return HodgeDiamond(d, tuple(tuple(row) for row in grid))


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
    dmat = derivation_map(_dual_action(t), 2 * p)
    basis = list(combinations(range(n), 2 * p))
    classes = []
    for vec in dmat.kernel_basis():
        elem = ExtElement(n, {basis[i]: c for i, c in enumerate(vec) if c})
        classes.append(CohClass(t, elem))
    return classes


def lefschetz_kernel_dim(t: TorusData) -> int:
    """Dimension of the kernel of wedging with omega from middle degree.

    Poincare duals of Lagrangian subtori live in this kernel; its dimension
    is metric-independent and equals ``C(2d,d) - C(2d,d+2)``.
    """
    n = t.rank
    d = t.d
    w_form = ExtElement.two_form(omega(t))
    source = list(combinations(range(n), d))
    if d + 2 > n:
        return len(source)
    target = {idx: i for i, idx in enumerate(combinations(range(n), d + 2))}
    cols = []
    for s in source:
        img = wedge(w_form, ExtElement.monomial(n, s))
        col = [QZERO] * len(target)
        for idx, c in img.terms.items():
            col[target[idx]] = c
        cols.append(col)
    mat = RatMatrix(cols).transpose()
    return len(source) - mat.rank()


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
# the B-field class predicate
# ---------------------------------------------------------------------------


class BetaReport(Record):
    torsion: bool
    projection_nonzero: bool
    projection: tuple  # one (re, im) pair per basis 2-form
    membership_solution: tuple


def beta_torsion(t: TorusData) -> BetaReport:
    """Whether the B-field maps to a torsion class in the analytic Brauer group.

    The (0,2)-projection of B is computed from the rational real and
    imaginary parts of the projector and tested for membership in the
    rational span of the projections of the integral basis 2-forms, one real
    and one imaginary row per coordinate.  With the rational data model this
    membership always holds (B is itself a rational combination of integral
    classes); the report exhibits the projection and one membership solution.
    """
    require_valid(t)
    re, im = _projector_02(_dual_action(t))
    bvec = [t.B.entries[i][j] for (i, j) in combinations(range(t.rank), 2)]
    parts = tuple(zip(re.apply(bvec), im.apply(bvec)))
    rows = [row for pair in zip(re.entries, im.entries) for row in pair]
    sol = RatMatrix(rows).solve([c for pair in parts for c in pair])
    return BetaReport(
        torsion=sol is not None,
        projection_nonzero=any(x or y for x, y in parts),
        projection=parts,
        membership_solution=tuple(sol) if sol is not None else (),
    )


# ---------------------------------------------------------------------------
# the commands of this layer
# ---------------------------------------------------------------------------


def _load_class(path, rank):
    return class_from_json(jsonio.load_json(path), rank, pointer=os.path.basename(path))


def cmd_hodge(args):
    t = jsonio.load_torus(args.torus)
    hd = hodge_diamond(t)
    return {"torus": jsonio.torus_to_json(t)}, {"d": hd.d, "h": [list(row) for row in hd.h]}, 0


def cmd_pp_classes(args):
    t = jsonio.load_torus(args.torus)
    if not 0 <= args.p <= t.d:
        raise SchemaError(f"p must lie in 0..{t.d}, got {jsonio.echo(args.p)}", "--p")
    classes = rational_pp_classes(t, args.p)
    result = {"p": args.p, "dimension": len(classes),
              "basis": [jsonio.class_to_json(c.element) for c in classes]}
    return {"torus": jsonio.torus_to_json(t)}, result, 0


def cmd_lefschetz(args):
    t = jsonio.load_torus(args.torus)
    result = {"kernel_dimension": lefschetz_kernel_dim(t),
              "expected": comb(2 * t.d, t.d) - comb(2 * t.d, t.d + 2)}
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


def cmd_beta(args):
    t = jsonio.load_torus(args.torus)
    rep = beta_torsion(t)
    result = {
        "torsion": rep.torsion,
        "projection_nonzero": rep.projection_nonzero,
        "projection_02": [jsonio.gauss_to_json(x) for x in rep.projection],
        "membership_solution": [rat_str(x) for x in rep.membership_solution],
    }
    return {"torus": jsonio.torus_to_json(t)}, result, 0 if rep.torsion else 1
