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
from ._record import Record
from .errors import DimensionError, InconsistencyError, ValidationError
from .exactlinear import QONE, QZERO, RatMatrix
from .exterior import GAUSS_I, ExtElement, GaussRational, apply_linear, wedge
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

    All vectors are in Y-coordinates.  ``complement`` lists the coordinate
    indices representing the transverse space; ``sigma`` and ``f`` are the
    induced forms on those representatives (None in the Lagrangian case,
    where the transverse space is zero).
    """

    l_basis: tuple
    n_rank: int
    complement: tuple
    sigma: RatMatrix | None
    f: RatMatrix | None


def _complement_indices(l_rows, r):
    if not l_rows:
        return tuple(range(r))
    _, pivots = RatMatrix(l_rows).rref()
    return tuple(j for j in range(r) if j not in pivots)


def _restricted_form(mat: RatMatrix, indices):
    return RatMatrix([[mat.entries[i][j] for j in indices] for i in indices])


def characteristic_foliation(b: AffineBrane) -> FoliationData:
    """Compute the foliation data; raises with a witness if not coisotropic.

    Coisotropy is checked through the equivalent finite condition that the
    skew-orthogonal complement of V is contained in V.  For an affine
    subtorus the kernel distribution is constant, hence integrable.
    """
    _require_structural(b)
    witness = coisotropy_witness(b)
    if witness is not None:
        raise ValidationError(
            f"subtorus is not coisotropic; witness vector {witness} is "
            "skew-orthogonal to it but lies outside")
    return _foliation(b)


def _foliation(b: AffineBrane) -> FoliationData:
    """The foliation data of a structurally valid, coisotropic brane."""
    y = b.direction_matrix()
    w_v = y.transpose() * omega(b.torus) * y
    l_basis = tuple(w_v.kernel_basis())
    comp = _complement_indices(l_basis, b.r)
    sigma = _restricted_form(w_v, comp) if comp else None
    f = _restricted_form(b.curvature, comp) if comp else None
    return FoliationData(l_basis=l_basis, n_rank=len(comp), complement=comp,
                         sigma=sigma, f=f)


def coisotropy_witness(b: AffineBrane):
    """A vector in the skew-orthogonal complement of V outside V, or None."""
    w = omega(b.torus)
    y = b.direction_matrix()
    perp = (y.transpose() * w).kernel_basis()
    for v in perp:
        if y.solve(v) is None:
            return v
    return None


class ConditionResult(Record):
    name: str
    ok: bool
    detail: str = ""


class AbraneReport(Record):
    conditions: tuple
    accepted: bool
    k: int | None
    transverse_j: RatMatrix | None
    foliation: FoliationData | None

    @property
    def rejection(self):
        return next((c.name for c in self.conditions if not c.ok), None)


def check_abrane(b: AffineBrane) -> AbraneReport:
    """Run the acceptance conditions in order; stop at the first failure."""
    _require_structural(b)
    conditions = []
    d = b.torus.d
    r = b.r

    witness = coisotropy_witness(b)
    if witness is not None:
        conditions.append(ConditionResult(
            "coisotropic", False, f"witness {tuple(str(x) for x in witness)}"))
        return AbraneReport(tuple(conditions), False, None, None, None)
    conditions.append(ConditionResult("coisotropic", True))

    if (r - d) % 2 != 0 or r < d:
        conditions.append(ConditionResult(
            "dimension_law", False, f"dim Y = {r} is not n + 2k for n = {d}"))
        return AbraneReport(tuple(conditions), False, None, None, None)
    k = (r - d) // 2
    conditions.append(ConditionResult("dimension_law", True, f"k = {k}"))

    fol = _foliation(b)
    bad = [l for l in fol.l_basis
           if any(x != 0 for x in b.curvature.apply(l))]
    if bad:
        conditions.append(ConditionResult(
            "curvature_annihilates_foliation", False,
            f"curvature does not annihilate leaf direction {tuple(str(x) for x in bad[0])}"))
        return AbraneReport(tuple(conditions), False, None, None, fol)
    conditions.append(ConditionResult("curvature_annihilates_foliation", True))

    if fol.n_rank == 0:
        conditions.append(ConditionResult("transverse_complex_structure", True,
                                          "vacuous for a Lagrangian"))
        return AbraneReport(tuple(conditions), True, k, None, fol)
    try:
        j_n = fol.sigma.inverse() * fol.f
    except ZeroDivisionError:
        conditions.append(ConditionResult(
            "transverse_complex_structure", False, "induced symplectic form degenerate"))
        return AbraneReport(tuple(conditions), False, None, None, fol)
    if j_n * j_n != -RatMatrix.identity(fol.n_rank):
        conditions.append(ConditionResult(
            "transverse_complex_structure", False, "(sigma^-1 f)^2 != -id"))
        return AbraneReport(tuple(conditions), False, None, None, fol)
    conditions.append(ConditionResult("transverse_complex_structure", True))
    return AbraneReport(tuple(conditions), True, k, j_n, fol)


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
    n_rank = max(fol.n_rank, 1)
    powers_vanish = []
    if fol.n_rank:
        phi = ExtElement.two_form(fol.f) + ExtElement.two_form(fol.sigma).scale(GAUSS_I)
        current = ExtElement.scalar(n_rank, GaussRational(1))
        for rr in range(1, fol.n_rank // 2 + 2):
            current = wedge(current, phi)
            if not current:
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
    top_coefficient: GaussRational


def _plus_i_covectors(t: TorusData):
    """The echelon Q(i)-basis of the +i eigencovectors of the complex structure.

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
    return [tuple(GaussRational(v[2 * i], v[2 * i + 1]) for i in range(n)) for v in kernel]


def holomorphic_volume(t: TorusData) -> ExtElement:
    """Wedge of a Q(i)-basis of +i eigencovectors of the complex structure.

    Any two such choices differ by a nonzero constant, which affects none of
    the reported conclusions.
    """
    require_valid(t)
    n = t.rank
    result = ExtElement.scalar(n, GaussRational(1))
    for vec in _plus_i_covectors(t):
        result = wedge(result, ExtElement(n, {(i,): c for i, c in enumerate(vec) if c}))
    return result


def anomaly_check_affine(b: AffineBrane) -> AnomalyReport:
    """Anomaly data for an accepted brane: constant data force a trivial class.

    ``Omega|_Y ^ F^k`` is a constant multiple of the volume form on Y; the
    multiple is an exact Gaussian rational and must be nonzero (a zero would
    contradict acceptance and raises).  Since the ratio h is a nonzero
    constant, its Bockstein image vanishes.
    """
    report = b.acceptance
    if not report.accepted:
        raise ValidationError("anomaly check requires an accepted brane")
    k = report.k
    t = b.torus
    y = b.direction_matrix()
    om = holomorphic_volume(t)
    total = apply_linear(om, y.transpose())
    f_form = ExtElement.two_form(b.curvature)
    for _ in range(k):
        total = wedge(total, f_form)
    top = tuple(range(b.r))
    coeff = total.coefficient(top)
    if not coeff:
        raise InconsistencyError(
            "top-form coefficient vanished for an accepted brane (bug)")
    return AnomalyReport(h_constant=True, bockstein_class_zero=True,
                         top_coefficient=coeff)
