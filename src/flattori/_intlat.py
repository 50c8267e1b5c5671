"""Integer-lattice helpers: integer kernels, saturation, and pairwise size
reduction.

These support the certificate search: the rational solution space of the
intertwining constraints is turned into a basis of the full lattice of
*integral* solutions, then reduced so that natural certificates tend to have
small, sparse coordinates.  Everything here is pure integer arithmetic; one
column reduction (:func:`column_pivots`) answers every rank, kernel and
primitivity question.
"""

from __future__ import annotations


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


def integral_coordinate_lattice(coord_rows, denominator):
    """Basis of ``{t in Z^k : M t = 0 mod D}``.

    ``coord_rows`` is an integer matrix with k columns, ``denominator`` the
    positive modulus D.  Computed as the projection of the integer kernel of
    ``[M | D*I]`` onto the first k coordinates, these generate the full
    preimage lattice.
    """
    m = len(coord_rows)
    k = len(coord_rows[0]) if m else 0
    if m == 0 or denominator == 1:
        return [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    aug = [list(coord_rows[i]) + [denominator if j == i else 0 for j in range(m)] for i in range(m)]
    ker = integer_kernel(aug)
    projected = [v[:k] for v in ker]
    return lattice_basis(projected, k)


def lattice_basis(generators, n):
    """Extract an independent basis (column-HNF style) from integer generators."""
    work = [list(g) for g in generators if any(g)]
    basis = []
    # row-style reduction over Z: bring to echelon with gcd pivots
    rows = work
    col = 0
    while rows and col < n:
        rows = [r for r in rows if any(r)]
        cand = [r for r in rows if r[col] != 0]
        if not cand:
            col += 1
            continue
        while True:
            cand = [r for r in rows if r[col] != 0]
            if len(cand) <= 1:
                break
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            for r in cand[1:]:
                q = r[col] // piv[col]
                for j in range(n):
                    r[j] -= q * piv[j]
        piv = next(r for r in rows if r[col] != 0)
        basis.append(list(piv))
        rows = [r for r in rows if r is not piv and any(r)]
        for r in rows:
            if r[col] != 0:
                # cannot happen: loop above cleared them
                raise AssertionError("echelon reduction incomplete")
        col += 1
    return basis


def pair_reduce(basis, max_sweeps=8):
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

    for _ in range(max_sweeps):
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
