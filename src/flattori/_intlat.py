"""The integer lattice work of the ``derived_eq`` search: integer kernels,
their canonical LLL-reduced form, and the integer forms its verdicts read.

The lattice of *integral* solutions of the intertwining constraints is the
integer kernel of the constraint rows, as the caller built them
(:func:`integral_coordinate_lattice`, by
:func:`~flattori._intkernel.integer_kernel`); plain ranks and determinants
come from :func:`~flattori.exactlinear.bareiss`.  :func:`frobenius_gram`
with the :func:`split_pairing` q is the Gram matrix of ``tr(q h^t q h)``
that decides a refutation.  A pair that it does not refute is scanned:
:func:`pair_reduce` puts the lattice in canonical LLL-reduced form, so that
natural certificates tend to have small, sparse coordinates, and the scan
of :mod:`flattori.kernels_py` packs the q-congruence into one form with
:func:`frobenius_gram`.  Everything here is integer arithmetic.  The
Narain-ball enumerator of the ``iso`` and ``mirror`` search lives in
:mod:`flattori.isometry`, and integral LLL in :mod:`flattori._lll`, which
only :func:`pair_reduce` imports, when it runs.
"""

from __future__ import annotations

from ._intkernel import integer_kernel


def integral_coordinate_lattice(rows):
    """Basis of ``{x in Z^n : A x = 0}`` for a matrix A given by rows.

    This is :func:`integer_kernel` itself, kept under its own name because the
    benchmark's trace plan (``perfbench/traced_cli.py``) times the lattice
    step by this name.  The rows may be rational:
    :func:`~flattori._intkernel.column_pivots` takes the same steps on a row
    scaled by any positive factor (the pivot choice and every floor quotient
    are unchanged), and a row in the span of earlier rows is zero from the
    next pivot column on, so it is passed over.
    """
    return integer_kernel(rows)


def _sortkey(v):
    return (max(map(abs, v)), sum(map(abs, v)), sum(1 for x in v if x < 0), v)


def pair_reduce(basis):
    """The LLL-reduced basis (:func:`~flattori._lll.lll`) of the lattice
    spanned by linearly independent integer vectors, in canonical form.

    :func:`~flattori._lll.lll` runs on the dot-product Gram matrix of
    ``basis``, and its coordinates are mapped back to vectors, both summed
    over the nonzero entries of ``basis`` alone (kernel bases are sparse); then each vector's
    first nonzero entry is made positive and the vectors are sorted by size.
    A dependent input (a zero vector included) raises ``ValueError``; an
    integer kernel basis never is one.  The name is kept because the
    benchmark's trace plan (``perfbench/traced_cli.py``) times the reduction
    by it.
    """
    from ._lll import lll
    sparse = [[(t, x) for t, x in enumerate(v) if x] for v in basis]
    gram = [[sum(x * v[t] for t, x in s) for v in basis] for s in sparse]
    reduced = []
    for coords in lll(gram)[0]:
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
