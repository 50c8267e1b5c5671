"""Integer-lattice helpers: integer kernels, saturation, and pairwise size
reduction.

These support the certificate search: the lattice of *integral* solutions of
the intertwining constraints is the integer kernel of the constraint rows, as
the caller built them, and is then size-reduced so that natural
certificates tend to have small, sparse coordinates.  Everything here is
integer arithmetic; one column reduction (:func:`column_pivots`) answers every
rank, kernel and primitivity question, and the size reduction
(:func:`pair_reduce`) keeps the Gram matrix of its basis, so a reduction step
reads its inner products instead of recomputing them.
"""

from __future__ import annotations

from operator import mul


def column_pivots(work, trans=()):
    """Column-reduce the integer rows of ``work`` in place; return the pivots.

    Row by row, unimodular column operations gcd-reduce the entries from the
    next pivot column on into it (HNF-style): pivot j lands in column j with
    zeros to its right, and every column past the last pivot ends up zero,
    so the number of pivots is the rank.  Each operation is mirrored on the
    rows of ``trans`` (an identity matrix there accumulates the transform).
    """
    rows = [*work, *trans]
    n = len(work[0]) if work else 0

    def addmul_col(dst, src, f):
        for row in rows:
            row[dst] += f * row[src]

    def swap_col(a, b):
        for row in rows:
            row[a], row[b] = row[b], row[a]

    pivots = []
    for row in work:
        c = len(pivots)
        if c == n:
            break
        # find a column with a nonzero entry in this row at position >= c
        nz = [j for j in range(c, n) if row[j] != 0]
        if not nz:
            continue
        # gcd-reduce the nonzero entries of the row into column c
        j0 = min(nz, key=lambda j: abs(row[j]))
        swap_col(c, j0)
        while True:
            nz = [j for j in range(c + 1, n) if row[j] != 0]
            if not nz:
                break
            for j in nz:
                q = row[j] // row[c]
                addmul_col(j, c, -q)
            nz = [j for j in range(c + 1, n) if row[j] != 0]
            if nz:
                j0 = min(nz, key=lambda j: abs(row[j]))
                swap_col(c, j0)
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
