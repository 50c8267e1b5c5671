"""Integer-lattice helpers: the column reduction against minor-based references,
and the short-vector enumerator against brute force."""

import random
from fractions import Fraction
from itertools import combinations
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_valid_torus
from flattori._intkernel import column_pivots, integer_kernel, spans_direct_summand
from flattori._intlat import _sortkey, integral_coordinate_lattice, pair_reduce
from flattori._lll import lll
from flattori.equivalence import _constraint_rows
from flattori.exactlinear import RatMatrix, bareiss, int_det
from flattori.isometry import short_vectors
from test_equivalence import _rebased

BIG = 2 ** 40


def minors_gcd(vectors):
    """gcd of the maximal minors of the matrix whose rows are ``vectors``."""
    n = len(vectors[0])
    g = 0
    for cols in combinations(range(n), len(vectors)):
        g = gcd(g, int(RatMatrix([[v[c] for c in cols] for v in vectors]).det()))
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


def reference_column_pivots(work, trans=()):
    """The column reduction as it was before it skipped reduced rows: every
    column operation runs over every row (the oracle)."""
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
        nz = [j for j in range(c, n) if row[j] != 0]
        if not nz:
            continue
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


@st.composite
def reduction_inputs(draw):
    """Integer or rational rows (dependent and zero rows mixed in), with or
    without an identity transform."""
    n = draw(st.integers(1, 7))
    entry = draw(st.sampled_from([
        st.integers(-9, 9), st.one_of(st.integers(-3, 3), st.sampled_from([BIG, -BIG + 1])),
        st.fractions(min_value=-3, max_value=3, max_denominator=6)]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows.insert(draw(st.integers(0, len(rows))),
                    [a * x + b * y for x, y in zip(rows[i], rows[j])])
    with_trans = draw(st.booleans())
    return rows, with_trans


class TestColumnPivotsAgainstReference:
    # Skipping the rows already reduced changes no pivot, no reduced row and
    # no transform entry.
    @settings(max_examples=200, deadline=None)
    @given(reduction_inputs())
    @example(([[0, 2, 4], [3, 0, 6], [1, 1, 1]], True))
    @example(([[0, 0], [0, 5]], True))
    def test_same_pivots_rows_and_transform(self, case):
        rows, with_trans = case
        n = len(rows[0])
        work, ref_work = [list(r) for r in rows], [list(r) for r in rows]
        trans = [[int(i == j) for j in range(n)] for i in range(n)] if with_trans else []
        ref_trans = [list(r) for r in trans]
        assert column_pivots(work, trans) == reference_column_pivots(ref_work, ref_trans)
        assert work == ref_work and trans == ref_trans


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


@st.composite
def independent_bases(draw):
    """Up to 6 linearly independent integer vectors in Z^n, n <= 6, with
    entries up to 2^40 (a huge multiple of one vector added to another in
    some, so the reduction has work to do)."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-50, 50), st.integers(-BIG, BIG),
                      st.sampled_from([BIG, -BIG, BIG - 1]))
    vecs = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
    if len(vecs) >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(vecs))))[:2]
        f = draw(st.integers(-BIG, BIG))
        vecs[i] = [x + f * y for x, y in zip(vecs[i], vecs[j])]
    assume(len(bareiss(vecs)[0]) == len(vecs))
    return vecs


def derived_eq_kernel(seed, d, partner):
    """The integer kernel basis that :func:`~flattori.equivalence.intertwiner_space`
    reduces, for a random torus against itself, a rebased copy or another one."""
    rng = random.Random(seed)
    t1 = random_valid_torus(rng, d)
    t2 = (t1 if partner == "self" else _rebased(t1, rng) if partner == "rebased"
          else random_valid_torus(rng, d))
    return integral_coordinate_lattice(_constraint_rows(t1, t2, "derived_eq"))


def assert_canonical_reduction(basis):
    """:func:`pair_reduce` spans the lattice of ``basis`` and is in canonical form."""
    reduced = pair_reduce(basis)
    assert len(reduced) == len(basis)

    def gram(vecs):
        return [[sum(map(mul, u, v)) for v in vecs] for u in vecs]

    # the same Gram determinant, and every input vector an integer
    # combination of the output: the two span the same lattice
    out_gram = gram(reduced)
    assert int_det(out_gram) == int_det(gram(basis))
    if basis:
        inverse = RatMatrix(out_gram).inverse().entries
        for v in basis:
            dots = [sum(map(mul, v, u)) for u in reduced]
            coords = [sum(map(mul, row, dots)) for row in inverse]
            assert all(c.denominator == 1 for c in coords)
            assert [sum(c * u[t] for c, u in zip(coords, reduced))
                    for t in range(len(v))] == v
    # canonical form: first nonzero entry positive, sorted by size
    assert all(next(x for x in v if x) > 0 for v in reduced)
    assert reduced == sorted(reduced, key=_sortkey)


class TestPairReduce:
    @settings(max_examples=300, deadline=None)
    @given(independent_bases())
    @example([])
    @example([[-BIG, 1], [BIG - 1, 1]])
    def test_spans_the_input_lattice_in_canonical_form(self, basis):
        assert_canonical_reduction(basis)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]),
           st.sampled_from(["self", "rebased", "random"]))
    def test_reduces_derived_eq_kernels(self, seed, d, partner):
        assert_canonical_reduction(derived_eq_kernel(seed, d, partner))

    @settings(max_examples=200, deadline=None)
    @given(independent_bases(), st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 5),
           st.integers(0, 5), st.integers(0, 6))
    @example([[1, 2]], 0, 0, 0, 0, 0)  # a zero vector added
    def test_dependent_input_raises(self, basis, a, b, i, j, at):
        assume(basis)
        u, v = basis[i % len(basis)], basis[j % len(basis)]
        with pytest.raises(ValueError):
            pair_reduce([*basis[:at], [a * x + b * y for x, y in zip(u, v)], *basis[at:]])

    def test_leaves_the_input_unchanged(self):
        basis = [[3, -1], [-5, 2]]
        pair_reduce(basis)
        assert basis == [[3, -1], [-5, 2]]


def form_value(gram, c):
    return sum(ci * sum(a * cj for a, cj in zip(row, c)) for ci, row in zip(c, gram))


def box_radii(gram, bound):
    """``isqrt(bound (A^-1)_ii)``: no vector of ``c^t A c <= bound`` leaves this box."""
    inv = RatMatrix(gram).inverse()
    return [isqrt(int(bound * inv.entries[i][i])) for i in range(len(gram))]


def brute_force_shell(gram, bound):
    """Every nonzero integer c in the box of :func:`box_radii` with ``c^t A c <= bound``."""
    ranges = [range(-r, r + 1) for r in box_radii(gram, bound)]
    return {c for c in product(*ranges) if any(c) and form_value(gram, c) <= bound}


def enumerated_shell(gram, bound):
    """:func:`short_vectors`, in the input basis and with both signs; each
    reported norm is checked on the way."""
    basis, vectors, _ = short_vectors(gram, bound)
    shell = set()
    for x, norm in vectors:
        c = tuple(sum(xi * row[t] for xi, row in zip(x, basis)) for t in range(len(gram)))
        assert form_value(gram, c) == norm <= bound
        assert x[max(t for t, v in enumerate(x) if v)] > 0  # one of +-x
        shell |= {c, tuple(-v for v in c)}
    assert len(shell) == 2 * len(vectors)
    return shell


@st.composite
def definite_grams(draw):
    """``B^t B`` for a nonsingular integer B of size up to 5 (entries up to 2^40
    in some rows, so the LLL has work to do)."""
    k = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    rows = [[draw(entry) for _ in range(k)] for _ in range(k)]
    if draw(st.booleans()):
        # a skewed basis of the same lattice: add a huge multiple of one row
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i != j:
            f = draw(st.integers(-BIG, BIG))
            rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
    assume(RatMatrix(rows).det() != 0)
    return [[sum(r[a] * r[b] for r in rows) for b in range(k)] for a in range(k)]


class TestShortVectors:
    @settings(max_examples=200, deadline=None)
    @given(definite_grams())
    @example([[1]])
    @example([[2, 1], [1, 2]])
    def test_lll_basis_is_unimodular_and_reduced(self, gram):
        basis, d, lam = lll(gram)
        k = len(gram)
        assert abs(RatMatrix(basis).det()) == 1
        reduced = [[form_value_pair(gram, u, v) for v in basis] for u in basis]
        # d and lam are the Gram-Schmidt data of the reduced basis
        for i in range(1, k + 1):
            assert d[i] == RatMatrix([row[:i] for row in reduced[:i]]).det()
        mu = gram_schmidt_mu(reduced)
        for i in range(k):
            for j in range(i):
                assert lam[i + 1][j + 1] == d[j + 1] * mu[i][j]
                assert 2 * abs(lam[i + 1][j + 1]) <= d[j + 1]  # size-reduced
        for i in range(2, k + 1):
            # Lovasz with delta = 3/4: B_i >= (3/4 - mu^2) B_(i-1), B_i = d_i / d_(i-1)
            assert 4 * d[i] * d[i - 2] >= 3 * d[i - 1] ** 2 - 4 * lam[i][i - 1] ** 2

    @settings(max_examples=200, deadline=None)
    @given(definite_grams(), st.integers(0, 12))
    @example([[2, 1], [1, 2]], 2)   # the whole hexagonal first shell lies on F = bound
    @example([[1]], 0)
    def test_shell_equals_brute_force(self, gram, bound):
        radii = box_radii(gram, bound)
        assume(all(r <= 4 for r in radii))
        assert enumerated_shell(gram, bound) == brute_force_shell(gram, bound)

    # the walk lists cap + 1 vectors at most, the first ones of the whole walk
    @settings(max_examples=100, deadline=None)
    @given(definite_grams(), st.integers(0, 12), st.integers(0, 20))
    def test_cap_stops_the_walk_past_it(self, gram, bound, cap):
        basis, vectors, nodes = short_vectors(gram, bound)
        capped = short_vectors(gram, bound, cap)
        assert capped[:2] == (basis, vectors[:cap + 1])
        assert capped[2] <= nodes
        if len(vectors) <= cap:
            assert capped[2] == nodes

    def test_nodes_count_every_coordinate_tried(self):
        # Z^2 with bound 1: x_2 in {0, 1} (top level, sign fixed), then x_1 in
        # {0, 1} below x_2 = 0 and {0} below x_2 = 1
        assert short_vectors([[1, 0], [0, 1]], 1)[1:] == ([((1, 0), 1), ((0, 1), 1)], 5)

    def test_rejects_an_indefinite_form(self):
        with pytest.raises(ValueError, match="not positive definite"):
            short_vectors([[1, 2], [2, 1]], 4)


def form_value_pair(gram, u, v):
    return sum(ui * sum(a * vj for a, vj in zip(row, v)) for ui, row in zip(u, gram))


def gram_schmidt_mu(gram):
    """The Gram-Schmidt coefficients of a basis with this Gram matrix, in Fractions."""
    k = len(gram)
    mu = [[Fraction(0)] * k for _ in range(k)]
    norms = []
    for i in range(k):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][t] * mu[i][t] * norms[t] for t in range(j))) \
                / norms[j]
        norms.append(Fraction(gram[i][i]) - sum(mu[i][t] ** 2 * norms[t] for t in range(i)))
    return mu
