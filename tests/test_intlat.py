"""Integer-lattice helpers: the column reduction against minor-based references."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flattori._intlat import (MAX_SWEEPS, column_pivots, integer_kernel,
                              integral_coordinate_lattice, pair_reduce, spans_direct_summand)

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


@st.composite
def rational_rows(draw):
    """Rational rows with zero rows and exact repeats mixed in."""
    n = draw(st.integers(1, 6))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
    extra = draw(st.lists(st.integers(0, len(rows)), max_size=4))
    for i in extra:
        rows.insert(draw(st.integers(0, len(rows))),
                    list(rows[i]) if i < len(rows) else [Fraction(0)] * n)
    return rows


def scaled(row):
    den = lcm(*(x.denominator for x in row))
    return [int(x * den) for x in row]


class TestIntegralCoordinateLattice:
    def test_fractions_zero_and_repeated_rows(self):
        half = [Fraction(1, 2), Fraction(-1, 3), 0, Fraction(1, 6)]
        quarter = [0, Fraction(1, 4), Fraction(1, 4), 0]
        basis = integral_coordinate_lattice([half, [0] * 4, half, quarter, half])
        assert basis == integer_kernel([[3, -2, 0, 1], [0, 1, 1, 0]])
        assert len(basis) == 2 and spans_direct_summand(basis)
        for row in (half, quarter):
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for v in basis)

    def test_zero_rows_leave_every_vector(self):
        assert integral_coordinate_lattice([[0, 0, 0], [0, 0, 0]]) == \
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    # Skipping zero and repeated rows leaves the column reduction unchanged:
    # the basis equals the integer kernel of every scaled row.
    @settings(max_examples=200, deadline=None)
    @given(rational_rows())
    def test_skipped_rows_change_nothing(self, rows):
        assert integral_coordinate_lattice(rows) == integer_kernel([scaled(r) for r in rows])


@st.composite
def scaled_rows_with_combinations(draw):
    """Integer rows, and the same rows each times a positive int with integer
    combinations of the rows before them inserted."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                         min_size=1, max_size=5))
    padded = []
    for row in rows + [None]:
        for _ in range(draw(st.integers(0, 2))):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(padded),
                                   max_size=len(padded)))
            padded.append([sum(c * r[j] for c, r in zip(coeffs, padded)) for j in range(n)])
        if row is not None:
            scale = draw(st.integers(1, 7))
            padded.append([scale * x for x in row])
    return rows, padded


class TestIntegerKernel:
    # The column reduction takes the same steps on a positively scaled row,
    # and passes over a row in the span of earlier rows, so neither changes
    # the basis.
    @settings(max_examples=300, deadline=None)
    @given(scaled_rows_with_combinations())
    def test_row_scale_and_dependent_rows_change_nothing(self, case):
        rows, padded = case
        assert integer_kernel(padded) == integer_kernel(rows)


def reference_pair_reduce(basis, max_sweeps=MAX_SWEEPS):
    """pair_reduce as it was before it kept the Gram matrix: every step
    recomputes both dot products from the vectors."""
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
                q = (2 * num + den) // (2 * den)
                if q != 0:
                    cand = [x - q * y for x, y in zip(b[i], b[j])]
                    if sortkey(cand) < sortkey(b[i]):
                        b[i] = cand
                        changed = True
        if not changed:
            break
    for v in b:
        first = next((x for x in v if x != 0), 0)
        if first < 0:
            for t in range(len(v)):
                v[t] = -v[t]
    b.sort(key=sortkey)
    return b


@st.composite
def reducible_bases(draw):
    """Up to 10 integer vectors, with zero vectors, exact and negated repeats,
    and entries up to 2^40."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-50, 50), st.integers(-BIG, BIG),
                      st.sampled_from([BIG, -BIG, BIG - 1]))
    vecs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=10))
    for _ in range(draw(st.integers(0, 10 - len(vecs)))):
        if vecs and draw(st.booleans()):
            sign = draw(st.sampled_from([1, -1]))
            vecs.insert(draw(st.integers(0, len(vecs))),
                        [sign * x for x in vecs[draw(st.integers(0, len(vecs) - 1))]])
        else:
            vecs.insert(draw(st.integers(0, len(vecs))), [0] * n)
    return vecs


# Three dependent vectors in Z^2 whose reduction still changes a vector in
# its last allowed sweep.
SWEEP_CAP_CASE = [[-50, 41], [9, 43], [23, -9]]


class TestPairReduce:
    @settings(max_examples=300, deadline=None)
    @given(reducible_bases())
    @example([[0, 0], [0, 0]])
    @example([[BIG, 1], [BIG, 1], [-BIG, -1]])
    def test_matches_dot_product_reference(self, basis):
        assert pair_reduce(basis) == reference_pair_reduce(basis)

    def test_sweep_cap_case_reaches_the_cap(self):
        capped = reference_pair_reduce(SWEEP_CAP_CASE)
        assert reference_pair_reduce(SWEEP_CAP_CASE, MAX_SWEEPS + 1) != capped
        assert pair_reduce(SWEEP_CAP_CASE) == capped

    def test_leaves_the_input_unchanged(self):
        basis = [[3, -1], [-5, 2]]
        pair_reduce(basis)
        assert basis == [[3, -1], [-5, 2]]
