"""Rational cohomology of flat tori and its transport under duality.

Cohomology is modeled as the exterior algebra on the dual lattice tensored
with Q.  The bigrading is read off exactly from the degree-0 derivation D
extending the complex structure's dual action: a (p,q)-class is an
``i(p-q)``-eigenvector.  D is a rational matrix, so every question about the
bigrading is answered over Q: the (p,p)-part is the plain rational kernel of
D, the ``+-i m`` eigenspaces together are the kernel of ``D^2 + m^2``, and the
(0,2)-projector on grade 2 is the polynomial ``-D^2/8 + i D/4`` in D.

The duality transport pulls a class back to the product model
``A x dual(A) x B``, multiplies by the exponential of the canonical pairing
class, and pushes forward by extracting the A-volume coefficient from the
left.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from ._record import Record
from .errors import DimensionError, GradeError, ValidationError
from .exactlinear import QZERO, RatMatrix
from .exterior import (ExtElement, GaussRational, apply_linear, derivation_map, exp_grade2,
                       interior, wedge)
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

    def entry(self, p: int, q: int) -> int:
        return self.h[p][q]


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
    h = tuple(tuple(row) for row in grid)
    for p in range(d + 1):
        for q in range(d + 1):
            if h[p][q] != h[d - p][d - q]:
                raise ValidationError("diamond lacks 180-degree symmetry")
    return HodgeDiamond(d, h)


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


def fm_transform(s: LagrangianSplitting, alpha: CohClass,
                 mirror_result: MirrorResult | None = None) -> CohClass:
    """Transport a class to the mirror through the product model.

    Steps: rewrite the class in the splitting basis, include it into the
    exterior algebra on (A-duals, A-directions, B-duals), multiply by
    ``exp(sum eta_i ^ etahat_i)``, and extract the coefficient of the
    A-volume form from the left.  The result lives on the mirror produced
    by :func:`flattori.tduality.mirror_via_tduality` for the same splitting.
    """
    from .tduality import mirror_via_tduality, require_splitting
    t = alpha.torus
    require_splitting(t, s)
    d, n = t.d, t.rank
    mr = mirror_result or mirror_via_tduality(t, s)
    if mr.duality_map.source != t:
        raise ValidationError("mirror_result does not belong to the class's torus")
    p = s.change_of_basis
    in_split = apply_linear(alpha.element, p.transpose())

    ambient = 3 * d
    # ambient indices: 0..d-1 the A-duals, d..2d-1 the A-directions,
    # 2d..3d-1 the B-duals
    embed = {i: (i if i < d else d + i) for i in range(n)}
    embedded = ExtElement(ambient, {
        tuple(embed[i] for i in idx): c for idx, c in in_split.terms.items()
    })
    pairing = ExtElement(ambient, {(i, d + i): 1 for i in range(d)})
    total = wedge(embedded, exp_grade2(pairing))

    a_set = tuple(range(d))
    out_terms = {}
    for idx, c in total.terms.items():
        if not set(a_set) <= set(idx):
            continue
        sign = 0
        seen_other = 0
        for i in idx:
            if i < d:
                sign += seen_other
            else:
                seen_other += 1
        rest = tuple(i - d for i in idx if i >= d)
        out_terms[rest] = c if sign % 2 == 0 else -c
    return CohClass(mr.mirror, ExtElement(n, out_terms))


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
    projection: tuple
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
    parts = list(zip(re.apply(bvec), im.apply(bvec)))
    bproj = [GaussRational(x, y) for x, y in parts]
    rows = [row for pair in zip(re.entries, im.entries) for row in pair]
    sol = RatMatrix(rows).solve([c for pair in parts for c in pair])
    return BetaReport(
        torsion=sol is not None,
        projection_nonzero=any(bool(x) for x in bproj),
        projection=tuple(bproj),
        membership_solution=tuple(sol) if sol is not None else (),
    )
