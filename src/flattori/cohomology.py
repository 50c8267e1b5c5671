"""Rational cohomology of flat tori and its transport under duality.

Cohomology is modeled as the exterior algebra on the dual lattice tensored
with Q.  The bigrading is read off exactly from the degree-0 derivation D
extending the complex structure's dual action: a (p,q)-class is an
``i(p-q)``-eigenvector, so the rational (p,p)-part is the plain rational
kernel of D and the full bigraded ranks are computed over the Gaussian
rationals.

The duality transport pulls a class back to the product model
``A x dual(A) x B``, multiplies by the exponential of the canonical pairing
class, and pushes forward by extracting the A-volume coefficient from the
left.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import DimensionError, GradeError, ValidationError
from .exactlinear import (GAUSS_I, GaussRational, ExtElement, QZERO, RatMatrix,
                          apply_linear, derivation_map, exp_grade2, interior, wedge)
from .tduality import LagrangianSplitting, MirrorResult, mirror_via_tduality, require_splitting
from .torus import TorusData, omega, require_valid


@dataclass(frozen=True)
class CohClass:
    """A rational cohomology class of a flat torus."""

    torus: TorusData
    element: ExtElement

    def __post_init__(self):
        if self.element.base_rank != self.torus.rank:
            raise DimensionError("class base rank must be twice the torus dimension")


@dataclass(frozen=True)
class HodgeDiamond:
    d: int
    h: tuple  # h[p][q]

    def entry(self, p: int, q: int) -> int:
        return self.h[p][q]


def _dual_action(t: TorusData) -> RatMatrix:
    # the complex structure acting on covectors, in the dual basis
    return t.I.transpose()


def _bidegree_projector(dual_i: RatMatrix, k: int, p: int):
    """Projector onto the (p, k-p) part of grade k, over Q(i)."""
    dmat = derivation_map(dual_i, k).to_gauss()
    dim = dmat.rows
    ident = RatMatrix.identity(dim).to_gauss()
    # eigenvalues i(p'-q') over all p'+q'=k with 0 <= p',q' <= d
    d = dual_i.rows // 2
    values = [(pp, GAUSS_I * (2 * pp - k)) for pp in range(max(0, k - d), min(d, k) + 1)]
    target = GAUSS_I * (2 * p - k)
    proj = ident
    for pp, lam in values:
        if pp == p:
            continue
        proj = proj * (dmat - ident.scale(lam))
        proj = proj.scale(GaussRational(1) / (target - lam))
    return proj


def hodge_diamond(t: TorusData) -> HodgeDiamond:
    """Bigraded ranks computed from the complex structure, cross-checked.

    Each ``h^{p,q}`` is the exact dimension of the ``i(p-q)``-eigenspace of
    the derivation D on grade p+q over Q(i); for a flat torus this must agree
    with ``C(d,p) C(d,q)``, and a disagreement raises (it would mean corrupted
    input or a bug, not new mathematics).
    """
    require_valid(t)
    d = t.d
    dual_i = _dual_action(t)
    grid = [[0] * (d + 1) for _ in range(d + 1)]
    for k in range(0, 2 * d + 1):
        dmat = derivation_map(dual_i, k).to_gauss()
        ident = RatMatrix.identity(dmat.rows).to_gauss()
        for p in range(max(0, k - d), min(d, k) + 1):
            q = k - p
            rank = dmat.rows - (dmat - ident.scale(GAUSS_I * (p - q))).rank()
            if rank != comb(d, p) * comb(d, q):
                raise ValidationError(
                    f"h^{{{p},{q}}} computed as {rank}, expected {comb(d, p) * comb(d, q)}")
            grid[p][q] = rank
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
    require_valid(t)
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
    :func:`flattori.exactlinear.interior` this is minus the matrix inverse.
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


@dataclass(frozen=True)
class BetaReport:
    torsion: bool
    projection_nonzero: bool
    projection: tuple
    membership_solution: tuple


def beta_torsion(t: TorusData) -> BetaReport:
    """Whether the B-field maps to a torsion class in the analytic Brauer group.

    The (0,2)-projection of B is computed over the Gaussian rationals and
    tested for membership in the rational span of the projections of the
    integral basis 2-forms.  With the rational data model this membership
    always holds (B is itself a rational combination of integral classes);
    the report exhibits the projection and one membership solution.
    """
    require_valid(t)
    n = t.rank
    dual_i = _dual_action(t)
    proj02 = _bidegree_projector(dual_i, 2, 0)
    basis = list(combinations(range(n), 2))
    bvec = [t.B.entries[i][j] for (i, j) in basis]
    bproj = proj02.apply([GaussRational.coerce(x) for x in bvec])
    cols = []
    for k in range(len(basis)):
        unit = [GaussRational(1) if a == k else GaussRational(0) for a in range(len(basis))]
        cols.append(proj02.apply(unit))
    rows = []
    rhs = []
    for i in range(len(basis)):
        rows.append([cols[k][i].re for k in range(len(basis))])
        rhs.append(bproj[i].re)
        rows.append([cols[k][i].im for k in range(len(basis))])
        rhs.append(bproj[i].im)
    sol = RatMatrix(rows).solve(rhs)
    return BetaReport(
        torsion=sol is not None,
        projection_nonzero=any(bool(x) for x in bproj),
        projection=tuple(bproj),
        membership_solution=tuple(sol) if sol is not None else (),
    )
