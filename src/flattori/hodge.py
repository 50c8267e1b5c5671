"""Hodge ranks, the Lefschetz kernel and the B-field class, on int rows.

``hodge``, ``lefschetz`` and ``beta`` read two grade operators, the
derivation D extending Iᵀ and wedging with omega, and build no element of
the exterior algebra.  Each operator is int rows over the denominator of
the matrix it extends, on the basis of :mod:`flattori.exterior`, from one
sign: ``e_i ^ e_S = (-1)^#{s in S : s < i} e_{S + i}`` (:func:`_insert`).
So ``hodge`` and ``lefschetz`` load neither the exterior algebra nor
:mod:`fractions`, and ``beta``, whose report holds Fractions, loads
:mod:`flattori._rational` alone.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from . import jsonio
from ._record import Record
from .errors import ValidationError
from .exactlinear import RatMatrix, rat_str
from .torus import TorusData, omega, require_valid


def _insert(i, s):
    """``e_i ^ e_S`` for i not in S: the tuple S with i inserted, and the
    number of its entries below i, whose parity is the sign."""
    below = sum(1 for x in s if x < i)
    return s[:below] + (i,) + s[below:], below


def derivation(m: RatMatrix, grade: int) -> RatMatrix:
    """Matrix of the degree-0 derivation extending ``m`` to the grade component.

    It sends ``e_S`` to ``sum_t e_{s_1}^..^(m e_{s_t})^..^e_{s_k}``: the term
    ``m[i][s_t] e_i`` moves past the t factors before it, then into the rest
    of S, with the sign (-1)^t times that of :func:`_insert`.
    """
    basis = list(combinations(range(m.rows), grade))
    pos = {s: a for a, s in enumerate(basis)}
    rows = [[0] * len(basis) for _ in basis]
    for b, s in enumerate(basis):
        for t, gen in enumerate(s):
            rest = s[:t] + s[t + 1:]
            for i, row in enumerate(m.num):
                c = row[gen]
                if c and i not in rest:
                    idx, below = _insert(i, rest)
                    rows[pos[idx]][b] += -c if (t + below) % 2 else c
    return RatMatrix.over(m.den, rows)


def lefschetz_map(w: RatMatrix, grade: int) -> RatMatrix:
    """Matrix of wedging with the 2-form ``sum_{i<j} w[i][j] e_i^e_j`` (w
    skew), from the grade component to the one two above, which must exist."""
    n = w.rows
    source = list(combinations(range(n), grade))
    target = {idx: a for a, idx in enumerate(combinations(range(n), grade + 2))}
    rows = [[0] * len(source) for _ in target]
    for b, s in enumerate(source):
        for i, j in combinations(range(n), 2):
            c = w.num[i][j]
            if c and i not in s and j not in s:
                mid, first = _insert(j, s)
                idx, second = _insert(i, mid)
                rows[target[idx]][b] += -c if (first + second) % 2 else c
    return RatMatrix.over(w.den, rows)


class HodgeDiamond(Record):
    d: int
    h: tuple  # h[p][q]


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
    dual_i = t.I.transpose()
    grid = [[0] * (d + 1) for _ in range(d + 1)]
    for k in range(0, 2 * d + 1):
        dmat = derivation(dual_i, k)
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


def lefschetz_kernel_dim(t: TorusData) -> int:
    """Dimension of the kernel of wedging with omega from middle degree.

    Poincare duals of Lagrangian subtori live in this kernel; its dimension
    is metric-independent and equals ``C(2d,d) - C(2d,d+2)``.
    """
    w = omega(t)  # validates the torus, also at d = 1
    if t.d + 2 > t.rank:
        return comb(t.rank, t.d)
    mat = lefschetz_map(w, t.d)
    return mat.cols - mat.rank()


def _projector_02(dual_i: RatMatrix):
    """Real and imaginary parts of the projector onto the (0,2) part of grade 2.

    On grade 2 the spectrum of D lies in {-2i, 0, 2i}, so the projector onto
    the -2i eigenspace is ``D (D - 2i) / ((-2i)(-4i)) = -D^2/8 + i D/4``.
    """
    dmat = derivation(dual_i, 2)
    dsq = dmat * dmat
    return RatMatrix.over(-8 * dsq.den, dsq.num), RatMatrix.over(4 * dmat.den, dmat.num)


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
    re, im = _projector_02(t.I.transpose())
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


def cmd_hodge(args):
    t = jsonio.load_torus(args.torus)
    hd = hodge_diamond(t)
    return {"torus": jsonio.torus_to_json(t)}, {"d": hd.d, "h": [list(row) for row in hd.h]}, 0


def cmd_lefschetz(args):
    t = jsonio.load_torus(args.torus)
    result = {"kernel_dimension": lefschetz_kernel_dim(t),
              "expected": comb(2 * t.d, t.d) - comb(2 * t.d, t.d + 2)}
    return {"torus": jsonio.torus_to_json(t)}, result, 0


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
