"""Integer kernels and primitivity, from one integer column reduction.

:func:`column_pivots` column-reduces integer rows by unimodular steps;
:func:`integer_kernel` reads the saturated integer kernel off its
transform, and :func:`spans_direct_summand` its pivots.  The mirror
splitting, the brane foliation and the ``derived_eq`` lattices need only
these; :mod:`flattori._intlat` imports :func:`integer_kernel` for the
``derived_eq`` lattice work, which ``mirror``, ``fm`` and ``abrane-check``
do not compile.
"""

from __future__ import annotations


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
