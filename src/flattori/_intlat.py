"""Integer-lattice helpers: integer kernels, saturation, LLL reduction, and
the short vectors of a positive definite form.

These support the certificate searches: for ``derived_eq`` the lattice of
*integral* solutions of the intertwining constraints is the integer kernel of
the constraint rows, as the caller built them, and is then LLL-reduced and
put in canonical form (:func:`pair_reduce`) so that natural certificates
tend to have small, sparse coordinates.  Everything here is integer
arithmetic; one column reduction
(:func:`~flattori._intkernel.column_pivots`, re-exported here with
:func:`~flattori._intkernel.integer_kernel` and
:func:`~flattori._intkernel.spans_direct_summand`) answers every kernel and
primitivity question (plain ranks and determinants come from
:func:`~flattori.exactlinear.bareiss`), and one lattice reduction, integral
LLL (:func:`_lll`), serves every search.  :func:`short_vectors` lists every
lattice vector of bounded norm under a positive definite integer form:
:func:`_lll`, then a Fincke-Pohst walk (:func:`fincke_pohst`) whose every
pruning decision is an integer comparison; the ``iso`` and ``mirror``
search and ``spectrum`` read them on the Narain lattices, and the search
inverts its generators' rows by :func:`scaled_inverse`.

The integer forms that the ``derived_eq`` verdicts read live here too:
:func:`frobenius_gram` with the :func:`split_pairing` q is the Gram matrix
of ``tr(q h^t q h)`` that decides a refutation, and :func:`packed_form`
packs the q-congruence into the one form that picks a certificate in the
scan of :mod:`flattori.kernels_py`.
"""

from __future__ import annotations

from math import gcd, inf, isqrt, lcm
from operator import mul

from ._intkernel import column_pivots, integer_kernel, spans_direct_summand  # noqa: F401


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


def _sortkey(v):
    return (max(map(abs, v)), sum(map(abs, v)), sum(1 for x in v if x < 0), v)


def pair_reduce(basis):
    """The LLL-reduced basis (:func:`_lll`) of the lattice spanned by
    linearly independent integer vectors, in canonical form.

    :func:`_lll` runs on the dot-product Gram matrix of ``basis``, and its
    coordinates are mapped back to vectors, both summed over the nonzero
    entries of ``basis`` alone (kernel bases are sparse); then each vector's
    first nonzero entry is made positive and the vectors are sorted by size.
    A dependent input (a zero vector included) raises ``ValueError``; an
    integer kernel basis never is one.  The name is kept because the
    benchmark's trace plan (``perfbench/traced_cli.py``) times the reduction
    by it.
    """
    sparse = [[(t, x) for t, x in enumerate(v) if x] for v in basis]
    gram = [[sum(x * v[t] for t, x in s) for v in basis] for s in sparse]
    reduced = []
    for coords in _lll(gram)[0]:
        v = [0] * len(basis[0])
        for c, s in zip(coords, sparse):
            if c:
                for t, x in s:
                    v[t] += c * x
        if next(x for x in v if x) < 0:  # canonical sign: first nonzero entry positive
            v = [-x for x in v]
        reduced.append(v)
    reduced.sort(key=_sortkey)
    return reduced


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


def short_vectors(gram, bound, cap=inf):
    """``(basis, vectors, nodes)``: the LLL-reduced basis of :func:`_lll` and
    :func:`fincke_pohst` on it, the vectors of norm at most ``bound``."""
    reduced = _lll(gram)
    return (reduced[0], *fincke_pohst(reduced, bound, cap))


def fincke_pohst(reduced, bound, cap=inf):
    """``(vectors, nodes)``: the short vectors over the basis of ``reduced = _lll(gram)``.

    ``vectors`` lists ``(x, x^t A x)`` for every nonzero x, in coordinates
    over the reduced basis, with ``x^t A x <= bound``, one of each pair +-x
    (the one whose last nonzero coordinate is positive), in the walk's
    order; ``nodes`` counts the coordinate values the walk tried.  The walk
    stops once it has listed ``cap + 1`` vectors.

    Fincke-Pohst (Math. Comp. 44, 1985): with B_i = d_i / d_(i-1) and
    mu_ji = lam_ji / d_i, ``x^t A x = sum_i B_i (x_i + sum_(j>i) mu_ji x_j)^2``,
    fixed from the last coordinate down.  ``N_i = d_(i-1) T_i``, T_i the sum
    from i on, is an integer: it is the Gram determinant of b_1..b_(i-1) and
    ``sum_(j>=i) x_j b_j``.  With ``s = sum_(j>i) lam_ji x_j`` and
    ``y = d_i x_i + s``, ``N_i = (d_(i-1) N_(i+1) + y^2) / d_i`` exactly, and
    ``T_i <= bound`` reads ``y^2 <= d_(i-1) (bound d_i - N_(i+1))``: each
    level's range of x_i comes from one integer square root.
    """
    basis, d, lam = reduced
    m = len(basis)
    x = [0] * (m + 1)
    vectors = []
    nodes = 0

    def walk(i, rest, top):
        """Coordinate x_i, given x_(i+1)..x_m and ``rest`` = N_(i+1); ``top``
        while they are all zero, when x_i may not be negative; True past ``cap``."""
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
                if walk(i - 1, norm, top and not v):
                    return True
            elif v or not top:
                vectors.append((tuple(x[1:]), norm))
                if len(vectors) > cap:
                    return True
        x[i] = 0

    if m and bound >= 0:
        walk(m, 0, True)
    return vectors, nodes


def scaled_inverse(rows):
    """``(D, P)`` with ``P M = D`` times the identity, for a nonsingular square
    integer matrix M by rows: fraction-free Gauss-Jordan, each row cut by its gcd."""
    m = len(rows)
    a = [[*row, *(int(i == j) for j in range(m))] for i, row in enumerate(rows)]
    for c in range(m):
        p = next(i for i in range(c, m) if a[i][c])
        a[c], a[p] = a[p], a[c]
        for i, row in enumerate(a):
            if row[c] and i != c:
                row = [a[c][c] * x - row[c] * y for x, y in zip(row, a[c])]
                g = gcd(*row)
                a[i] = [x // g for x in row]
    den = lcm(*(row[i] for i, row in enumerate(a)))
    return den, [[den // row[i] * x for x in row[m:]] for i, row in enumerate(a)]


# ---------------------------------------------------------------------------
# the integer forms on intertwiner lattices that the verdicts read
# ---------------------------------------------------------------------------


def split_pairing(n):
    """The split pairing q on Z^n as sparse rows: row c is ``e_{c + n/2 mod n}``."""
    return [[((c + n // 2) % n, 1)] for c in range(n)]


def frobenius_gram(basis_flat, n, right):
    """The integer K x K matrix ``X_ij = <M_i, q M_j R>`` (Frobenius product).

    ``basis_flat`` holds the M_i flattened row-major and ``right`` the rows of
    a symmetric R as ``(column, value)`` pairs of its nonzero entries; X is
    then symmetric, and only ``i <= j`` is summed.  Row s of M_j is row s + h
    (mod n, h = n/2) of ``q M_j``, so the sums run over the nonzero entries of
    the basis and of each row of R only.
    """
    half = n // 2
    sparse = [[(t, v) for t, v in enumerate(m) if v] for m in basis_flat]
    k = len(basis_flat)
    gram = [[0] * k for _ in range(k)]
    for j, mj in enumerate(sparse):
        y = [0] * (n * n)
        for t, v in mj:
            base = (t // n + half) % n * n
            for x, w in right[t % n]:
                y[base + x] += v * w
        for i in range(j + 1):
            gram[i][j] = gram[j][i] = sum(v * y[t] for t, v in sparse[i])
    return gram


def packed_form(basis_flat, n, bound):
    """``(X, target)`` with ``F(c) = sum_i X_ii/2 c_i^2 + sum_{i<j} X_ij c_i c_j``.

    The q-congruence ``g^t q g = q`` of ``g = sum c_i M_i`` is ``n(n+1)/2``
    integer quadratic forms in c, one per entry ``a <= b`` of ``g^t q g``.
    They are packed into one by Kronecker substitution,
    ``F(c) = sum_{a<=b} W^e(a,b) (g^t q g)_ab``, with
    ``W > 2 (bound^2 max_{a<=b} sum_r (A_ra A_r+h,b + A_r+h,a A_rb) + 1)``,
    where ``A = sum |M_i|`` entrywise and h = n/2.  Every entry of
    ``g^t q g - q`` then has magnitude below W/2, so ``F(c) = target`` (the
    packed q) holds exactly when every entry matches.  X is
    :func:`frobenius_gram` with R symmetric, ``R_ab = W^e(a,b)`` off the
    diagonal and ``2 W^e(a,a)`` on it.  Valid for candidates of max-norm at
    most ``bound``.
    """
    half = n // 2
    size = n * n
    a = [sum(abs(m[t]) for m in basis_flat) for t in range(size)]
    worst = max(sum(a[r * n + x] * a[(r + half) * n + y] + a[(r + half) * n + x] * a[r * n + y]
                    for r in range(half))
                for x in range(n) for y in range(x, n))
    w = 1 << (2 * (bound * bound * worst + 1)).bit_length()
    weight = [[0] * n for _ in range(n)]
    power = 1
    target = 0
    for x in range(n):
        for y in range(x, n):
            weight[x][y] = weight[y][x] = power
            if y - x == half:
                target += power
            power *= w
        weight[x][x] *= 2
    return frobenius_gram(basis_flat, n, [list(enumerate(row)) for row in weight]), target
