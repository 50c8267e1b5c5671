"""Coisotropic brane checks for affine subtori with constant curvature.

A candidate brane is an affine subtorus spanned by primitive integer
directions ``Y`` inside a flat symplectic torus, carrying an integral
constant curvature form F on its tangent directions.  For constant data the
acceptance conditions are finite exact linear algebra:

(i)   the subtorus is coisotropic (skew-orthogonal complement inside it);
(ii)  F annihilates the characteristic foliation (the kernel of the
      restricted symplectic form);
(iii) the ratio of the two induced transverse forms squares to minus the
      identity, i.e. it is a complex structure transverse to the leaves.

The conditions are evaluated in the order (i), dimension law, (ii), (iii);
a rejection names the first failing condition.  Integrability statements
(the foliation, the transverse complex structure) are automatic here since
all distributions and forms are constant.
"""

from __future__ import annotations

from functools import cached_property

from ._intlat import column_pivots
from ._record import Check, Record, failures
from .errors import DimensionError, InconsistencyError, ValidationError
from .exactlinear import QONE, QZERO, RatMatrix, bareiss, cleared
from .exterior import ExtElement, apply_linear, wedge
from .torus import TorusData, omega, require_valid


class AffineBrane(Record):
    """An affine subtorus with a constant integral curvature 2-form.

    ``y_basis``: integer direction vectors (each of length 2d) spanning the
    tangent space V; ``curvature``: integral skew matrix in Y-coordinates;
    ``translation``: rational offset, carried along but irrelevant to every
    check below (all data are translation invariant).
    """

    torus: TorusData
    y_basis: tuple
    curvature: RatMatrix
    translation: tuple = ()

    def __post_init__(self):
        n = self.torus.rank
        if not self.y_basis or any(len(v) != n for v in self.y_basis):
            raise DimensionError("brane directions must have length 2d")
        if any(not isinstance(x, int) for v in self.y_basis for x in v):
            raise ValidationError("brane directions must be integral")
        r = len(self.y_basis)
        if self.curvature.rows != r or self.curvature.cols != r:
            raise DimensionError("curvature must be square of size rank(Y)")
        if not self.curvature.is_skew() or not self.curvature.is_integral():
            raise ValidationError("curvature must be an integral skew matrix")
        if self.translation and len(self.translation) != n:
            raise DimensionError("translation must have length 2d")

    @property
    def r(self) -> int:
        return len(self.y_basis)

    def direction_matrix(self) -> RatMatrix:
        n = self.torus.rank
        return RatMatrix([[self.y_basis[j][i] for j in range(self.r)] for i in range(n)])

    @cached_property
    def acceptance(self) -> AbraneReport:
        """The :func:`check_abrane` report, computed once and shared by every reader."""
        return check_abrane(self)


def _require_structural(b: AffineBrane):
    require_valid(b.torus)
    pivots = column_pivots([list(v) for v in b.y_basis])
    if len(pivots) != b.r:
        raise ValidationError("brane directions are linearly dependent")
    if any(abs(p) != 1 for p in pivots):
        raise ValidationError("brane directions do not span a primitive sublattice")


class FoliationData(Record):
    """Kernel of the restricted symplectic form and the transverse data.

    All vectors are in Y-coordinates.  ``sigma`` and ``f`` are the induced
    forms on the coordinate directions that complement the kernel (the
    non-pivot columns of its echelon form), None in the Lagrangian case,
    where the transverse space is zero.
    """

    l_basis: tuple
    n_rank: int
    sigma: RatMatrix | None
    f: RatMatrix | None


def _complement_indices(l_rows, r):
    if not l_rows:
        return tuple(range(r))
    pivots = bareiss(cleared(RatMatrix(l_rows))[1])[0]
    return tuple(j for j in range(r) if j not in pivots)


def _restricted_form(mat: RatMatrix, indices):
    return RatMatrix([[mat.entries[i][j] for j in indices] for i in indices])


def _foliation(b: AffineBrane) -> FoliationData:
    """The foliation data of a structurally valid, coisotropic brane."""
    y = b.direction_matrix()
    w_v = y.transpose() * omega(b.torus) * y
    l_basis = tuple(w_v.kernel_basis())
    comp = _complement_indices(l_basis, b.r)
    sigma = _restricted_form(w_v, comp) if comp else None
    f = _restricted_form(b.curvature, comp) if comp else None
    return FoliationData(l_basis=l_basis, n_rank=len(comp), sigma=sigma, f=f)


def coisotropy_witness(b: AffineBrane):
    """A vector in the skew-orthogonal complement of V outside V, or None
    exactly when V is coisotropic."""
    w = omega(b.torus)
    y = b.direction_matrix()
    perp = (y.transpose() * w).kernel_basis()
    for v in perp:
        if y.solve(v) is None:
            return v
    return None


class AbraneReport(Record):
    conditions: tuple
    k: int | None
    transverse_j: RatMatrix | None
    foliation: FoliationData | None

    @property
    def rejection(self):
        bad = failures(self.conditions)
        return bad[0] if bad else None

    @property
    def accepted(self) -> bool:
        return self.rejection is None


def check_abrane(b: AffineBrane) -> AbraneReport:
    """Run the acceptance conditions in order; stop at the first failure."""
    _require_structural(b)
    conditions = []
    d = b.torus.d
    r = b.r

    witness = coisotropy_witness(b)
    if witness is not None:
        conditions.append(Check(
            "coisotropic", False, f"witness {tuple(str(x) for x in witness)}"))
        return AbraneReport(tuple(conditions), None, None, None)
    conditions.append(Check("coisotropic", True))

    if (r - d) % 2 != 0 or r < d:
        conditions.append(Check(
            "dimension_law", False, f"dim Y = {r} is not n + 2k for n = {d}"))
        return AbraneReport(tuple(conditions), None, None, None)
    k = (r - d) // 2
    conditions.append(Check("dimension_law", True, f"k = {k}"))

    fol = _foliation(b)
    bad = [l for l in fol.l_basis
           if any(x != 0 for x in b.curvature.apply(l))]
    if bad:
        conditions.append(Check(
            "curvature_annihilates_foliation", False,
            f"curvature does not annihilate leaf direction {tuple(str(x) for x in bad[0])}"))
        return AbraneReport(tuple(conditions), None, None, fol)
    conditions.append(Check("curvature_annihilates_foliation", True))

    if fol.n_rank == 0:
        conditions.append(Check("transverse_complex_structure", True,
                                "vacuous for a Lagrangian"))
        return AbraneReport(tuple(conditions), k, None, fol)
    try:
        j_n = fol.sigma.inverse() * fol.f
    except ZeroDivisionError:
        conditions.append(Check(
            "transverse_complex_structure", False, "induced symplectic form degenerate"))
        return AbraneReport(tuple(conditions), None, None, fol)
    if j_n * j_n != -RatMatrix.identity(fol.n_rank):
        conditions.append(Check(
            "transverse_complex_structure", False, "(sigma^-1 f)^2 != -id"))
        return AbraneReport(tuple(conditions), None, None, fol)
    conditions.append(Check("transverse_complex_structure", True))
    return AbraneReport(tuple(conditions), k, j_n, fol)


class WedgePowerReport(Record):
    k: int
    vanishing_powers: tuple
    first_vanishing_power: int | None
    stated_conditions_hold: bool
    condition_iii_holds: bool
    agreement: bool


def wedge_characterization(b: AffineBrane) -> WedgePowerReport:
    """Evaluate the wedge-power conditions on ``f + i sigma`` and compare.

    The literal conditions tested are "all powers below k are nonzero and
    the k-th power vanishes".  For accepted branes the observed first
    vanishing power is k+1 (the transverse space has complex rank 2k and
    carries a nondegenerate holomorphic symplectic form), so the report
    records agreement or disagreement with condition (iii) instead of
    asserting either indexing; see the package notes.
    """
    report = b.acceptance
    passed = {c.name for c in report.conditions if c.ok}
    if not {"coisotropic", "dimension_law", "curvature_annihilates_foliation"} <= passed:
        raise ValidationError("wedge characterization needs conditions (i)-(ii) to hold")
    fol = report.foliation
    k = (b.r - b.torus.d) // 2
    powers_vanish = []
    if fol.n_rank:
        phi = (ExtElement.two_form(fol.f), ExtElement.two_form(fol.sigma))
        current = (ExtElement.scalar(fol.n_rank, QONE), ExtElement.zero(fol.n_rank))
        for rr in range(1, fol.n_rank // 2 + 2):
            current = _complex_wedge(current, phi)
            if not any(current):
                powers_vanish.append(rr)
    first_zero = powers_vanish[0] if powers_vanish else None
    stated = all(rr not in powers_vanish for rr in range(1, k)) and (k == 0 or k in powers_vanish)
    iii = "transverse_complex_structure" in passed
    return WedgePowerReport(
        k=k,
        vanishing_powers=tuple(powers_vanish),
        first_vanishing_power=first_zero,
        stated_conditions_hold=stated,
        condition_iii_holds=iii,
        agreement=stated == iii,
    )


class AnomalyReport(Record):
    h_constant: bool
    bockstein_class_zero: bool
    top_coefficient: tuple  # (re, im)


def _complex_wedge(x, y):
    """Wedge of two Q(i)-valued elements, each a ``(re, im)`` pair."""
    return (wedge(x[0], y[0]) - wedge(x[1], y[1]), wedge(x[0], y[1]) + wedge(x[1], y[0]))


def _plus_i_covectors(t: TorusData):
    """The echelon Q(i)-basis of the +i eigencovectors of the complex structure,
    each as the ``(re, im)`` pair of its rational coordinate vectors.

    It is the echelon kernel of ``J - i`` (J the transpose of I), found over
    Q: on ``v = x + iy`` the real and imaginary parts of ``(J - i) v`` are
    ``Jx + y`` and ``Jy - x``, whose columns are interleaved as
    ``x_0, y_0, x_1, ...``.  The free columns of that real system come in
    pairs ``(x_f, y_f)``, and the kernel vector of each ``x_f``, read as
    ``x + iy``, is the complex echelon kernel vector of column f.
    """
    n = t.rank
    j = t.I.transpose().entries
    rows = []
    for r in range(n):
        rows.append([c for a in range(n) for c in (j[r][a], QONE if a == r else QZERO)])
        rows.append([c for a in range(n) for c in (-QONE if a == r else QZERO, j[r][a])])
    kernel = RatMatrix(rows).kernel_basis()[::2]
    if len(kernel) != t.d:
        raise InconsistencyError("eigenspace of the complex structure has wrong dimension")
    return [(v[0::2], v[1::2]) for v in kernel]


def holomorphic_volume(t: TorusData):
    """Wedge of a Q(i)-basis of +i eigencovectors of the complex structure,
    as the ``(re, im)`` pair of its rational parts.

    Any two such choices differ by a nonzero constant, which affects none of
    the reported conclusions.
    """
    require_valid(t)
    n = t.rank
    result = (ExtElement.scalar(n, QONE), ExtElement.zero(n))
    for vec in _plus_i_covectors(t):
        theta = tuple(ExtElement(n, {(i,): c for i, c in enumerate(part)}) for part in vec)
        result = _complex_wedge(result, theta)
    return result


def anomaly_check_affine(b: AffineBrane) -> AnomalyReport:
    """Anomaly data for an accepted brane: constant data force a trivial class.

    ``Omega|_Y ^ F^k`` is a constant multiple of the volume form on Y; the
    multiple is an exact Gaussian rational, reported as the ``(re, im)`` pair
    of the real and imaginary parts of Omega each pulled back and wedged with
    ``F^k``.  It must be nonzero (a zero would contradict acceptance and
    raises).  Since the ratio h is a nonzero constant, its Bockstein image
    vanishes.
    """
    report = b.acceptance
    if not report.accepted:
        raise ValidationError("anomaly check requires an accepted brane")
    k = report.k
    yt = b.direction_matrix().transpose()
    f_form = ExtElement.two_form(b.curvature)
    top = tuple(range(b.r))
    coeff = []
    for part in holomorphic_volume(b.torus):
        total = apply_linear(part, yt)
        for _ in range(k):
            total = wedge(total, f_form)
        coeff.append(total.coefficient(top))
    if not any(coeff):
        raise InconsistencyError(
            "top-form coefficient vanished for an accepted brane (bug)")
    return AnomalyReport(h_constant=True, bockstein_class_zero=True,
                         top_coefficient=tuple(coeff))
