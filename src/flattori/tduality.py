"""Mirror construction by dualizing a Lagrangian factor.

Given a splitting ``T = A x B`` into omega-isotropic halves, the doubled
lattice admits the obvious pairing-preserving isomorphism that exchanges
the A-windings with the A-momenta.  Transporting calJ to the calI slot and
calI to the calJ slot along this map and then solving the block formulas
backwards yields the mirror data ``(I', G', B')``.

Every recovered matrix is re-substituted into the forward block formulas;
any mismatch raises :class:`RecoveryError` naming the offending block, so a
wrong inversion branch cannot survive silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from ._intlat import spans_direct_summand
from .equivalence import Certificate, LatticeMap, verify_map
from .errors import RecoveryError, ValidationError
from .exactlinear import QZERO, RatMatrix
from .torus import TorusData, doubled, omega, require_valid


@dataclass(frozen=True)
class LagrangianSplitting:
    """An integral splitting of the winding lattice into isotropic halves.

    ``change_of_basis`` has the A vectors as its first d columns and the B
    vectors as its last d columns, expressed in the torus basis.
    """

    a_basis: tuple
    b_basis: tuple
    change_of_basis: RatMatrix

    @staticmethod
    def from_vectors(a_vectors, b_vectors) -> "LagrangianSplitting":
        a = tuple(tuple(int(x) for x in v) for v in a_vectors)
        b = tuple(tuple(int(x) for x in v) for v in b_vectors)
        cols = list(a) + list(b)
        mat = RatMatrix([[col[i] for col in cols] for i in range(len(cols[0]))])
        return LagrangianSplitting(a, b, mat)


def splitting_report(t: TorusData, s: LagrangianSplitting):
    """Validity checks of a splitting for a given torus."""
    n = t.rank
    checks = []
    shape_ok = (len(s.a_basis) == t.d and len(s.b_basis) == t.d
                and all(len(v) == n for v in s.a_basis + s.b_basis))
    checks.append(("shape", shape_ok))
    if not shape_ok:
        return checks
    checks.append(("unimodular", spans_direct_summand(s.a_basis + s.b_basis)))
    w = _integral(omega(t))

    def isotropic(vectors):
        return all(_dot(u, _image(w, v)) == 0
                   for i, u in enumerate(vectors) for v in vectors[i + 1:])

    checks.append(("A_isotropic", isotropic(s.a_basis)))
    checks.append(("B_isotropic", isotropic(s.b_basis)))
    return checks


def _integral(m: RatMatrix):
    """The rows of ``m`` times the lcm of its denominators.

    Scaling keeps every isotropy question, and turns each pairing
    ``u^t m v`` of integer vectors into an integer dot product.
    """
    den = lcm(*(x.denominator for row in m.entries for x in row))
    return [[int(x * den) for x in row] for row in m.entries]


def _image(w, v):
    """``w v`` for integer rows ``w`` and an integer vector ``v``."""
    return tuple(_dot(row, v) for row in w)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def require_splitting(t: TorusData, s: LagrangianSplitting):
    bad = [name for name, ok in splitting_report(t, s) if not ok]
    if bad:
        raise ValidationError(f"invalid Lagrangian splitting: {', '.join(bad)}")


# ---------------------------------------------------------------------------
# splitting construction
# ---------------------------------------------------------------------------


def _symplectic_blocks(w):
    """Pairs ``(e, f)`` with ``e^t w f != 0`` that are w-orthogonal pair to
    pair and together form a basis of ``Z^n``, in which the nondegenerate
    integral skew form ``w`` is block diagonal with 2x2 blocks.

    Take the pair of working vectors with the smallest nonzero ``|w|`` (first
    in index order on ties), reduce every other working vector against it by
    one Euclid step, and repeat until the others are w-orthogonal to the pair;
    then set the pair aside and go on with the rest.  Each round that does
    not close a pair leaves a remainder smaller than its ``|w|``, so the loop
    ends, and every step is unimodular.
    """
    n = len(w)
    work = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    blocks = []
    while work:
        images = [_image(w, v) for v in work]
        _, i, j = min((abs(_dot(u, images[b])), a, b) for a, u in enumerate(work)
                      for b in range(a + 1, len(work)) if _dot(u, images[b]))
        e, f = work[i], work[j]
        m = _dot(e, images[j])
        closed = True
        for k, v in enumerate(work):
            if k in (i, j):
                continue
            # v - a f + b e pairs with e to r and with f to s
            a, r = divmod(_dot(e, images[k]), m)
            b, s = divmod(_dot(f, images[k]), m)
            work[k] = tuple(x - a * y + b * z for x, y, z in zip(v, f, e))
            closed = closed and r == s == 0
        if closed:
            blocks.append((e, f))
            work = [v for k, v in enumerate(work) if k not in (i, j)]
    return blocks


def _ext_gcd(a, b):
    """``(s, u)`` with ``s a + u b = gcd(a, b) >= 0``."""
    if b == 0:
        return (1, 0) if a >= 0 else (-1, 0)
    s, u = _ext_gcd(b, a % b)
    return u, s - (a // b) * u


def find_lagrangian_splitting(t: TorusData) -> LagrangianSplitting:
    """A splitting into omega-isotropic halves, built from a symplectic basis.

    Every nondegenerate integral skew form has a basis of blocks ``(e_i,
    f_i)``, w-orthogonal to one another (:func:`_symplectic_blocks`, applied
    to omega scaled to integers).  One primitive vector ``x_i = alpha e_i +
    beta f_i`` per block spans A and its completion ``y_i = gamma e_i +
    delta f_i`` (``alpha delta - beta gamma = 1``) spans B, so both halves
    are omega-isotropic and together unimodular.  The mirror recovery needs
    A to be B-isotropic too: ``x_i`` is the primitive solution of
    ``B(x_j, x_i) = 0`` for every earlier ``x_j`` when those conditions are
    proportional (always so in the first two blocks, and when B is a
    multiple of omega), and ``e_i`` otherwise.
    """
    b_form = _integral(t.B)
    a_vectors, b_vectors = [], []
    for e, f in _symplectic_blocks(_integral(omega(t))):
        be, bf = _image(b_form, e), _image(b_form, f)
        rows = [(_dot(x, be), _dot(x, bf)) for x in a_vectors]
        rows = [r for r in rows if r != (0, 0)]
        alpha, beta = 1, 0
        if rows and all(p * rows[0][1] == q * rows[0][0] for p, q in rows):
            p, q = rows[0]
            g = gcd(p, q)
            alpha, beta = q // g, -p // g
        delta, minus_gamma = _ext_gcd(alpha, beta)
        a_vectors.append(tuple(alpha * u + beta * v for u, v in zip(e, f)))
        b_vectors.append(tuple(delta * v - minus_gamma * u for u, v in zip(e, f)))
    return LagrangianSplitting.from_vectors(a_vectors, b_vectors)


# ---------------------------------------------------------------------------
# the duality itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MirrorResult:
    mirror: TorusData
    duality_map: LatticeMap
    duality_certificate: Certificate
    recovery_report: tuple


def _swap_matrix(d: int) -> RatMatrix:
    """Exchange A-windings with A-momenta on the doubled split basis."""
    n4 = 4 * d
    n = 2 * d
    rows = [[QZERO] * n4 for _ in range(n4)]
    for i in range(d):
        rows[i][n + i] = 1       # new winding along dual A = old A momentum
        rows[n + i][i] = 1       # new A momentum = old A winding
    for i in range(d, n):
        rows[i][i] = 1           # B windings unchanged
        rows[n + i][n + i] = 1   # B momenta unchanged
    return RatMatrix(rows)


def mirror_via_tduality(t: TorusData, s: LagrangianSplitting) -> MirrorResult:
    """Construct the mirror torus and its certified duality map.

    The mirror is presented in the splitting-adapted basis: the first d
    coordinates are the duals of the A vectors, the last d are the B
    vectors.
    """
    require_valid(t)
    require_splitting(t, s)
    d, n = t.d, t.rank
    p = s.change_of_basis
    p_inv = p.inverse()
    t_split = TorusData(
        d=d,
        I=p_inv * t.I * p,
        G=p.transpose() * t.G * p,
        B=p.transpose() * t.B * p,
        label=f"{t.label}#split" if t.label else "split",
    )
    ds = doubled(t_split)
    sw = _swap_matrix(d)
    cal_i_new = sw * ds.calJ * sw
    cal_j_new = sw * ds.calI * sw

    report = []

    def check(name, ok):
        report.append((name, ok))
        if not ok:
            raise RecoveryError(f"mirror recovery failed at {name}", block=name)

    z = RatMatrix.zero(n, n)
    i_new = cal_i_new.block(0, n, 0, n)
    check("calI_upper_right_vanishes", cal_i_new.block(0, n, n, 2 * n) == z)
    check("I_squares_to_minus_id", i_new * i_new == -RatMatrix.identity(n))
    ur = cal_j_new.block(0, n, n, 2 * n)
    try:
        ur_inv = ur.inverse()
    except ZeroDivisionError:
        check("calJ_upper_right_invertible", False)
    g_new = ur_inv * i_new
    check("G_symmetric", g_new.is_symmetric())
    check("G_positive_definite", g_new.is_positive_definite())
    w_new = g_new * i_new
    b_new = w_new * cal_j_new.block(0, n, 0, n)
    check("B_skew", b_new.is_skew())
    mirror = TorusData(d=d, I=i_new, G=g_new, B=b_new,
                       label=f"{t.label}|mirror" if t.label else "mirror")
    check("mirror_validates", mirror.validation.ok)
    ds_mirror = doubled(mirror)
    check("calI_resubstitutes", ds_mirror.calI == cal_i_new)
    check("calJ_resubstitutes", ds_mirror.calJ == cal_j_new)

    # duality map: original coordinates -> split coordinates -> swap
    basis_change = RatMatrix.from_blocks([
        [p_inv, RatMatrix.zero(n, n)],
        [RatMatrix.zero(n, n), p.transpose()],
    ])
    g_total = sw * basis_change
    dmap = LatticeMap(g=g_total, source=t, target=mirror, kind="mirror")
    cert = verify_map(dmap)
    check("duality_map_verifies", cert.valid)
    return MirrorResult(mirror=mirror, duality_map=dmap,
                        duality_certificate=cert, recovery_report=tuple(report))


def dual_splitting(mirror: TorusData) -> LagrangianSplitting:
    """The splitting of a mirror along its dualized factor (first d coordinates).

    Used for the round trip: dualizing the mirror along this splitting
    returns to a torus isomorphic to the original.
    """
    n = mirror.rank
    d = mirror.d
    a = [tuple(1 if i == k else 0 for i in range(n)) for k in range(d)]
    b = [tuple(1 if i == k else 0 for i in range(n)) for k in range(d, n)]
    s = LagrangianSplitting.from_vectors(a, b)
    require_splitting(mirror, s)
    return s
