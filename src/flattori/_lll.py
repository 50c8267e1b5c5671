"""Integral LLL: the one lattice reduction of every search.

The ``iso`` and ``mirror`` search (:mod:`flattori.isometry`) reduces the
source's Narain form with it before it lists short vectors, and the
``derived_eq`` scan (:func:`flattori._intlat.pair_reduce`) reduces the
intertwiner lattice it walks.  It is a module of its own so that each
compiles it and neither compiles the other.
"""

from __future__ import annotations

from operator import mul


def lll(gram):
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
