"""Integer-lattice helpers: integer kernels, saturation, and pairwise size
reduction.

These support the certificate search: the lattice of *integral* solutions of
the intertwining constraints is the integer kernel of the constraint rows,
each scaled to integers, and is then size-reduced so that natural
certificates tend to have small, sparse coordinates.  Everything here is
integer arithmetic; one column reduction (:func:`column_pivots`) answers every
rank, kernel and primitivity question.
"""

from __future__ import annotations

from math import lcm


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
    """Basis of ``{x in Z^n : A x = 0}`` for a matrix A given by rational rows.

    Scaling a row by the lcm of its denominators keeps its solutions, so this
    is :func:`integer_kernel` of the scaled rows.  All-zero and repeated rows
    are skipped: once its first copy is reduced, a repeated row is zero past
    that copy's pivot, so the reduction would pass over it anyway.
    """
    n = len(rows[0])
    scaled = {}
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints = tuple(x.numerator * (den // x.denominator) for x in row)
        if any(ints):
            scaled.setdefault(ints, None)
    return integer_kernel(list(scaled) or [[0] * n])


MAX_SWEEPS = 8  # pair_reduce stops after this many sweeps, even if the last changed a vector


def pair_reduce(basis):
    """Deterministic pairwise size reduction of integer lattice vectors.

    Repeatedly replaces ``b_i`` by ``b_i - round(<b_i,b_j>/<b_j,b_j>) b_j``
    (a unimodular operation) until a sweep makes no change, then normalizes
    signs and sorts.  Cheaper than LLL and adequate here: the echelon kernel
    bases this is applied to are already close to elementary vectors.
    """
    b = [list(v) for v in basis]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def sortkey(v):
        return (max(abs(x) for x in v), sum(abs(x) for x in v),
                sum(1 for x in v if x < 0), list(v))

    for _ in range(MAX_SWEEPS):
        b.sort(key=sortkey)
        changed = False
        for i in range(len(b)):
            for j in range(len(b)):
                if i == j:
                    continue
                den = dot(b[j], b[j])
                if den == 0:
                    continue
                num = dot(b[i], b[j])
                q = (2 * num + den) // (2 * den)  # round(num/den) toward -inf ties
                if q != 0:
                    cand = [x - q * y for x, y in zip(b[i], b[j])]
                    if sortkey(cand) < sortkey(b[i]):
                        b[i] = cand
                        changed = True
        if not changed:
            break
    # canonical sign: first nonzero entry positive
    for v in b:
        first = next((x for x in v if x != 0), 0)
        if first < 0:
            for t in range(len(v)):
                v[t] = -v[t]
    b.sort(key=sortkey)
    return b
