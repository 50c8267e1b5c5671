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
from itertools import product
from math import lcm

from ._intlat import spans_direct_summand
from .equivalence import Certificate, LatticeMap, verify_map
from .errors import BudgetExceededError, RecoveryError, ValidationError
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
    w = _integral_omega(t)

    def isotropic(vectors):
        return all(_dot(u, _image(w, v)) == 0
                   for i, u in enumerate(vectors) for v in vectors[i + 1:])

    checks.append(("A_isotropic", isotropic(s.a_basis)))
    checks.append(("B_isotropic", isotropic(s.b_basis)))
    return checks


def _integral_omega(t: TorusData):
    """The rows of omega times the lcm of its denominators.

    Scaling keeps every isotropy question, and turns each pairing
    ``u^t omega v`` of integer vectors into an integer dot product.
    """
    rows = omega(t).entries
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows]


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
# splitting search
# ---------------------------------------------------------------------------


def _candidate_vectors(n, bound):
    """All nonzero integer vectors of max-norm <= bound, in canonical order.

    Order: height, then support size, then position of the first nonzero,
    then digitwise rank with 0 < 1 < -1 < 2 < -2 < ...; this makes the
    standard basis vectors e_1, e_2, ... come first.
    """
    rank = {0: 0}
    for a in range(1, bound + 1):
        rank[a] = 2 * a - 1
        rank[-a] = 2 * a
    vecs = [v for v in product(range(-bound, bound + 1), repeat=n) if any(v)]

    def key(v):
        nz = [i for i, x in enumerate(v) if x]
        return (max(abs(x) for x in v), len(nz), nz[0], tuple(rank[x] for x in v))

    vecs.sort(key=key)
    return vecs


def find_lagrangian_splitting(t: TorusData, bound: int = 1,
                              node_budget: int = 10 ** 6) -> LagrangianSplitting | None:
    """Deterministic search for an isotropic-halves splitting.

    Depth-first over candidate columns in canonical order (A columns first,
    then B columns, both index-increasing), pruning non-isotropic and
    non-summand partial choices; returns the first splitting whose full
    change of basis is unimodular, or None within the bound.  Each candidate
    is paired with the integral omega through its image, computed once.
    Running out of ``node_budget`` raises :class:`BudgetExceededError` with
    ``nodes_used == node_budget``.
    """
    d = t.d
    w = _integral_omega(t)
    vecs = _candidate_vectors(t.rank, bound)
    images = [_image(w, v) for v in vecs]
    nodes = 0

    def extend(chosen, start):
        nonlocal nodes
        depth = len(chosen)
        if depth == 2 * d:
            # the last summand test saw the one maximal minor: |det| = 1
            return list(chosen)
        in_b = depth >= d
        half = chosen[d:] if in_b else chosen[:d]
        lo = start if (depth != d) else 0  # B half restarts the index scan
        for idx in range(lo, len(vecs)):
            if nodes == node_budget:
                raise BudgetExceededError("splitting search budget exhausted",
                                          nodes, node_budget)
            nodes += 1
            wv = images[idx]
            if any(_dot(u, wv) for u in half):
                continue
            cand = chosen + [vecs[idx]]
            if not spans_direct_summand(cand):
                continue
            got = extend(cand, idx + 1)
            if got is not None:
                return got
        return None

    cols = extend([], 0)
    if cols is None:
        return None
    return LagrangianSplitting.from_vectors(cols[:d], cols[d:])


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
