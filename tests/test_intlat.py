"""Integer-lattice helpers: the column reduction against minor-based references."""

from itertools import combinations
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flattori._intlat import column_pivots, integer_kernel, spans_direct_summand

BIG = 2 ** 40


def integer_det(rows):
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def minors_gcd(vectors):
    """gcd of the maximal minors of the matrix whose rows are ``vectors``."""
    n = len(vectors[0])
    g = 0
    for cols in combinations(range(n), len(vectors)):
        g = gcd(g, integer_det([[v[c] for c in cols] for v in vectors]))
    return g


@st.composite
def vector_sets(draw):
    n = draw(st.integers(1, 6))
    k = n if draw(st.booleans()) else draw(st.integers(1, n))
    entry = st.one_of(st.integers(-3, 3), st.sampled_from([BIG, -BIG, BIG + 1, 3 * BIG - 1]))
    vecs = [[draw(entry) for _ in range(n)] for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        # force a dependent row: an integer combination of the others
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        other = vecs[1] if k >= 3 else [0] * n
        vecs[-1] = [a * x + b * y for x, y in zip(vecs[0], other)]
    return vecs


class TestColumnReduction:
    @settings(max_examples=300, deadline=None)
    @given(vector_sets())
    @example([[2, 0, 0, 0], [0, 1, 0, 0]])
    @example([[1, 1], [1, -1]])
    @example([[BIG, BIG + 1]])
    @example([[1, 2, 3], [2, 4, 6]])
    def test_direct_summand_matches_minors(self, vectors):
        assert spans_direct_summand(vectors) == (minors_gcd(vectors) == 1)

    @settings(max_examples=100, deadline=None)
    @given(vector_sets())
    def test_pivots_give_rank_and_kernel(self, vectors):
        n = len(vectors[0])
        work = [list(v) for v in vectors]
        rank = len(column_pivots(work))
        assert all(x == 0 for row in work for x in row[rank:])
        kernel = integer_kernel(vectors)
        assert len(kernel) == n - rank
        assert all(sum(x * y for x, y in zip(v, k)) == 0 for v in vectors for k in kernel)
        # the kernel is saturated: a direct summand of Z^n
        assert not kernel or spans_direct_summand(kernel)
