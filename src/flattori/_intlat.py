"""Integer-lattice helpers: integer kernels, saturation, pairwise size
reduction, and the short vectors of a positive definite form.

These support the certificate search: the lattice of *integral* solutions of
the intertwining constraints is the integer kernel of the constraint rows, as
the caller built them, and is then size-reduced so that natural
certificates tend to have small, sparse coordinates.  Everything here is
integer arithmetic; one column reduction (:func:`column_pivots`) answers every
kernel and primitivity question (plain ranks and determinants come from
:func:`~flattori.exactlinear.bareiss`), and the size reduction
(:func:`pair_reduce`) keeps the Gram matrix of its basis, so a reduction step
reads its inner products instead of recomputing them.  :func:`short_vectors`
lists every lattice vector of bounded norm under a positive definite integer
form: integral LLL, then a Fincke-Pohst walk whose every pruning decision is
an integer comparison.
"""

from __future__ import annotations

from math import isqrt
from operator import mul


def column_pivots(work, trans=()):
    """Column-reduce the integer rows of ``work`` in place; return the pivots.

    Row by row, unimodular column operations gcd-reduce the entries from the
    next pivot column on into it (HNF-style): pivot j lands in column j with
    zeros to its right, and every column past the last pivot ends up zero,
    so the number of pivots is the rank.  Each operation is mirrored on the
    rows of ``trans`` (an identity matrix there accumulates the transform).
    A row already reduced is zero from the current pivot column on, and the
    operations only touch those columns, so they skip it.
    """
    n = len(work[0]) if work else 0
    pivots = []
    for r, row in enumerate(work):
        c = len(pivots)
        if c == n:
            break
        live = [*work[r:], *trans]
        nz = [j for j, x in enumerate(row[c:], c) if x]
        if not nz:
            continue
        while nz:
            # swap the smallest nonzero entry into column c, then reduce the
            # entries to its right by it
            j0 = min(nz, key=lambda j: abs(row[j]))
            for x in live:
                x[c], x[j0] = x[j0], x[c]
            quotients = [(j, row[j] // row[c]) for j, x in enumerate(row[c + 1:], c + 1) if x]
            for x in live:
                v = x[c]
                if v:
                    for j, q in quotients:
                        x[j] -= q * v
            nz = [j for j, x in enumerate(row[c + 1:], c + 1) if x]
        pivots.append(row[c])
    return pivots


def spans_direct_summand(vectors):
    """True iff the k integer vectors span a direct summand of ``Z^n``.

    That is, the gcd of the maximal minors of the matrix with these rows is
    1.  Column operations keep that gcd, and when the vectors are independent
    :func:`column_pivots` leaves ``[L | 0]`` with L lower triangular, whose
    one nonzero maximal minor is the product of the pivots.  So the test is:
    one pivot per vector, and every pivot is +-1.
    """
    pivots = column_pivots([list(v) for v in vectors])
    return len(pivots) == len(vectors) and all(abs(p) == 1 for p in pivots)


def integer_kernel(rows):
    """Basis of ``{x in Z^n : A x = 0}`` for an integer matrix given by rows.

    Column-reduction (HNF-style) on an identity-augmented matrix; the
    columns of the transform past the pivots generate the full (saturated)
    integer kernel.
    """
    work = [list(r) for r in rows]
    if not work:
        raise ValueError("need at least one row to fix the ambient dimension")
    n = len(work[0])
    trans = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # columns of U
    rank = len(column_pivots(work, trans))
    return [[row[j] for row in trans] for j in range(rank, n)]


def integral_coordinate_lattice(rows):
    """Basis of ``{x in Z^n : A x = 0}`` for a matrix A given by rows.

    This is :func:`integer_kernel` itself, kept under its own name because the
    benchmark's trace plan (``perfbench/traced_cli.py``) times the lattice
    step by this name.  The rows may be rational: :func:`column_pivots` takes
    the same steps on a row scaled by any positive factor (the pivot choice
    and every floor quotient are unchanged), and a row in the span of earlier
    rows is zero from the next pivot column on, so it is passed over.
    """
    return integer_kernel(rows)


MAX_SWEEPS = 8  # pair_reduce stops after this many sweeps, even if the last changed a vector


def _sortkey(v):
    return (max(map(abs, v)), sum(map(abs, v)), sum(1 for x in v if x < 0), v)


def pair_reduce(basis):
    """Deterministic pairwise size reduction of integer lattice vectors.

    Each sweep sorts the vectors by size, then tries for every ordered pair
    ``i != j`` the unimodular step ``b_i -> b_i - round(<b_i,b_j>/<b_j,b_j>) b_j``
    and keeps it when it makes ``b_i`` smaller in that order.  The sweeps
    stop when one changes nothing, or after ``MAX_SWEEPS`` sweeps; then signs
    are normalized and the vectors sorted.  Cheaper than LLL and adequate
    here: the echelon kernel bases this is applied to are already close to
    elementary vectors.

    The Gram matrix of the basis is kept, so a step reads both inner
    products from it and an accepted step updates one row and one column;
    a candidate vector (and its size key) is built only when the rounded
    quotient is nonzero.
    """
    b = [list(v) for v in basis]
    keys = [_sortkey(v) for v in b]
    k = len(b)
    gram = [[0] * k for _ in range(k)]
    for i, u in enumerate(b):
        for j in range(i, k):
            gram[i][j] = gram[j][i] = sum(map(mul, u, b[j]))
    for _ in range(MAX_SWEEPS):
        order = sorted(range(k), key=keys.__getitem__)  # stable, as a sort of b would be
        b, keys = [b[p] for p in order], [keys[p] for p in order]
        gram = [[gram[p][t] for t in order] for p in order]
        changed = False
        for i in range(k):
            row = gram[i]
            for j in range(k):
                den = gram[j][j]
                if i == j or den == 0:
                    continue
                q = (2 * row[j] + den) // (2 * den)  # round(num/den), halves up (toward +inf)
                if q != 0:
                    cand = [x - q * y for x, y in zip(b[i], b[j])]
                    key = _sortkey(cand)
                    if key < keys[i]:
                        b[i], keys[i] = cand, key
                        # <b_i - q b_j, b_t> = G_it - q G_jt, then the t = i entry
                        # picks up the second -q from b_i's own change
                        row = [x - q * y for x, y in zip(row, gram[j])]
                        row[i] -= q * row[j]
                        gram[i] = row
                        for t in range(k):
                            gram[t][i] = row[t]
                        changed = True
        if not changed:
            break
    # canonical sign: first nonzero entry positive
    for v in b:
        first = next((x for x in v if x != 0), 0)
        if first < 0:
            for t in range(len(v)):
                v[t] = -v[t]
    b.sort(key=_sortkey)
    return b


def _lll(gram):
    """Integral LLL with delta = 3/4 on a positive definite integer Gram matrix.

    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.6.7
    (Lenstra, Lenstra and Lovasz, Math. Ann. 261, 1982), indexed from 1 as
    there.  Returns ``(basis, d, lam)``: ``basis[i - 1]`` holds the
    coordinates of the i-th reduced vector b_i in the input basis, ``d[i]``
    is the Gram determinant of b_1..b_i (``d[0] = 1``) and ``lam[i][j] =
    d[j] mu_ij`` for j < i, with mu the Gram-Schmidt coefficients; all are
    integers.  They are updated in place by each size reduction and swap, so
    Gram-Schmidt is never recomputed.  A vector past ``kmax`` has not been
    touched yet, so its inner products are read off its row of ``gram``.
    (On the d = 3 generic-B lattice of ``tier1.yml``, whose Gram entries
    have 206 bits, delta = 99/100 took about four times as long, and the
    walk after it visited the same nodes.)
    """
    m = len(gram)
    h = [None] + [[int(i == j) for j in range(m)] for i in range(m)]
    d = [1] * (m + 1)
    lam = [[0] * (m + 1) for _ in range(m + 1)]
    k, kmax = 1, 0
    while k <= m:
        if k > kmax:
            kmax = k
            lk, row = lam[k], gram[k - 1]
            for j in range(1, k + 1):
                u = sum(map(mul, h[j], row))
                lj = lam[j]
                for i in range(1, j):
                    u = (d[i] * u - lk[i] * lj[i]) // d[i - 1]
                if j < k:
                    lk[j] = u
                elif u > 0:
                    d[k] = u
                else:
                    raise ValueError("the form is not positive definite")
        for l in range(k - 1, 0, -1):
            # size-reduce b_k by b_l (Cohen's REDI), b_{k-1} first
            lk, dl = lam[k], d[l]
            if 2 * abs(lk[l]) > dl:
                q = (2 * lk[l] + dl) // (2 * dl)
                h[k] = [x - q * y for x, y in zip(h[k], h[l])]
                lk[l] -= q * dl
                lk[1:l] = [x - q * y for x, y in zip(lk[1:l], lam[l][1:l])]
            if l == k - 1 and 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lk[l] ** 2:
                # Lovasz condition fails: swap b_k and b_{k-1} (Cohen's SWAPI)
                h[k], h[k - 1] = h[k - 1], h[k]
                lk1 = lam[k - 1]
                lk[1:k - 1], lk1[1:k - 1] = lk1[1:k - 1], lk[1:k - 1]
                c = lk[k - 1]
                b = (d[k - 2] * d[k] + c * c) // d[k - 1]
                for i in range(k + 1, kmax + 1):
                    li = lam[i]
                    t = li[k]
                    li[k] = (d[k] * li[k - 1] - c * t) // d[k - 1]
                    li[k - 1] = (b * t + c * li[k]) // d[k]
                d[k - 1] = b
                k = max(2, k - 1)
                break
        else:
            k += 1
    return h[1:], d, lam


def short_vectors(gram, bound):
    """The vectors of norm at most ``bound`` under a positive definite integer form.

    Returns ``(basis, vectors, nodes)``.  ``basis`` is the LLL-reduced basis
    of :func:`_lll`, as coordinate rows in the input basis; ``vectors`` lists
    ``(x, x^t A x)`` for every nonzero x, in coordinates over ``basis``,
    with ``x^t A x <= bound``, one of each pair +-x (the one whose last
    nonzero coordinate is positive), in the walk's order; ``nodes`` counts
    the coordinate values the walk tried.

    Fincke-Pohst (Math. Comp. 44, 1985): with B_i = d_i / d_(i-1) and
    mu_ji = lam_ji / d_i, ``x^t A x = sum_i B_i (x_i + sum_(j>i) mu_ji x_j)^2``,
    fixed from the last coordinate down.  ``N_i = d_(i-1) T_i``, T_i the sum
    from i on, is an integer: it is the Gram determinant of b_1..b_(i-1) and
    ``sum_(j>=i) x_j b_j``.  With ``s = sum_(j>i) lam_ji x_j`` and
    ``y = d_i x_i + s``, ``N_i = (d_(i-1) N_(i+1) + y^2) / d_i`` exactly, and
    ``T_i <= bound`` reads ``y^2 <= d_(i-1) (bound d_i - N_(i+1))``: each
    level's range of x_i comes from one integer square root.
    """
    m = len(gram)
    basis, d, lam = _lll(gram)
    x = [0] * (m + 1)
    vectors = []
    nodes = 0

    def walk(i, rest, top):
        """Coordinate x_i, given x_(i+1)..x_m and ``rest`` = N_(i+1); ``top``
        while they are all zero, when x_i may not be negative."""
        nonlocal nodes
        s = sum(lam[j][i] * x[j] for j in range(i + 1, m + 1) if x[j])
        di, dp = d[i], d[i - 1]
        r = isqrt(dp * (bound * di - rest))
        lo = 0 if top else -((r + s) // di)
        for v in range(lo, (r - s) // di + 1):
            nodes += 1
            x[i] = v
            y = di * v + s
            norm = (dp * rest + y * y) // di
            if i > 1:
                walk(i - 1, norm, top and not v)
            elif v or not top:
                vectors.append((tuple(x[1:]), norm))
        x[i] = 0

    if m and bound >= 0:
        walk(m, 0, True)
    return basis, vectors, nodes
