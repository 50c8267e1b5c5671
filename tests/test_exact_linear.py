"""Exterior algebra and exact matrix substrate."""

from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FractionMatrix, Gaussian, diag, exp_grade2, mono
from flattori._rational import Q, rat
from flattori.errors import DimensionError, GradeError
from flattori.exactlinear import RatMatrix, bareiss, cleared, rat_str
from flattori.exterior import ExtElement, apply_linear, induced_map, interior, wedge
from flattori.hodge import derivation


def e(rank, *indices):
    return mono(rank, indices)


class TestRationals:
    def test_rat_parsing(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat(5) == 5
        assert rat_str(Fraction(-7, 2)) == "-7/2"
        assert rat_str(Fraction(4)) == "4"

    # the oracles' Q(i) arithmetic, which the package itself does not have
    def test_gauss_field_ops(self):
        i = Gaussian(0, 1)
        assert i * i == Gaussian(-1)
        z = Gaussian(Q(1, 2), Q(-3, 4))
        assert z * (1 / z) == Gaussian(1)

    def test_gauss_mixed_arithmetic(self):
        z = Gaussian(1, 1)
        assert 2 * z == Gaussian(2, 2)
        assert z - 1 == Gaussian(0, 1)
        assert 1 - z == Gaussian(0, -1)


class TestMatrix:
    def test_inverse_exact(self):
        m = RatMatrix([[1, 2], [3, 5]])
        assert m * m.inverse() == RatMatrix.identity(2)
        assert m.inverse() * m == RatMatrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            RatMatrix([[1, 2], [2, 4]]).inverse()

    def test_kernel_and_rank(self):
        m = RatMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert m.rank() == 2
        for v in m.kernel_basis():
            assert all(x == 0 for x in m.apply(v))

    def test_positive_definite(self):
        assert RatMatrix([[2, 1], [1, 1]]).is_positive_definite()
        assert not diag([1, -1]).is_positive_definite()

    def test_minus_scalar_shifts_the_diagonal(self):
        m = RatMatrix([[1, Q(1, 2)], [0, -3]])
        for c in (Q(2, 3), Q(-4)):
            assert m.minus_scalar(c) == m - RatMatrix.identity(2).scale(c)
        with pytest.raises(DimensionError):
            RatMatrix([[1, 2]]).minus_scalar(1)

    def test_solve(self):
        m = RatMatrix([[1, 1], [0, 1]])
        assert m.solve((3, 2)) == (Q(1), Q(2))
        assert RatMatrix([[1, 1], [1, 1]]).solve((0, 1)) is None


def _dense_rref(rows):
    """Reference Gauss-Jordan elimination that updates every entry of a row."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nrows):
            if i != r:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _dense_det(rows):
    """Reference determinant by Fraction elimination with row swaps."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _ldlt_positive_definite(rows):
    """Reference definiteness test: the d_k of ``A = L D L^t``, built without
    pivoting, are all positive exactly when the symmetric A is positive
    definite (and the factorization stops at the first d_k <= 0)."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return True


BIG = 2 ** 40

square_matrices = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-4, 4), st.just(0), st.integers(-BIG, BIG)),
             min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def integer_rows(draw):
    """Rectangular integer rows with zero rows and exact repeats mixed in."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-4, 4), st.just(0), st.integers(-BIG, BIG))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=8))
    for i in draw(st.lists(st.integers(0, len(rows)), max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))),
                    list(rows[i]) if i < len(rows) else [0] * n)
    return rows


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices ``M^t M + s 1``, or a symmetric matrix as drawn."""
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    m = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        s = draw(st.integers(-2, 2))
        return [[sum(m[k][i] * m[k][j] for k in range(n)) + s * (i == j) for j in range(n)]
                for i in range(n)]
    return [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# about two entries in three are zero
sparse_entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_fraction)


@st.composite
def sparse_matrices(draw, square=False):
    """Sparse rational matrices; square ones get a nonzero diagonal, so most invert."""
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 7))
    m = [draw(st.lists(sparse_entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if square:
        for i in range(rows):
            m[i][i] = draw(small_fraction.filter(bool))
    return m


@st.composite
def wide_matrices(draw):
    """Rational matrices with more columns than rows, like ``[A | I]``, some
    entries of size 2^40."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(rows + 1, 3 * rows + 2))
    entry = st.one_of(sparse_entry, st.integers(-BIG, BIG).map(Fraction))
    return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]


@st.composite
def linear_systems(draw):
    """``(A, b)`` with b = A x for a drawn x, or b drawn freely (often inconsistent)."""
    rows = draw(sparse_matrices())
    if draw(st.booleans()):
        x = draw(st.lists(small_fraction, min_size=len(rows[0]), max_size=len(rows[0])))
        return rows, list(RatMatrix(rows).apply(x))
    return rows, draw(st.lists(small_fraction, min_size=len(rows), max_size=len(rows)))


class TestEliminationAgainstDenseReference:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sparse_matrices(), integer_rows(), wide_matrices()))
    @example([[0, 0, 0], [0, 0, 0]])             # a zero matrix
    @example([[0, 1, 2], [0, 3, 4]])             # the first column has no pivot
    @example([[1, 2, 3], [1, 2, 3], [0, 1, 1]])  # a repeated row
    @example([[2, 0, 1], [0, 3, 0], [0, 0, 5]])  # a row above a pivot left alone, then caught up
    def test_rref(self, rows):
        rows = [[Fraction(x) for x in r] for r in rows]
        red, pivots = RatMatrix(rows).rref()
        ref, ref_pivots = _dense_rref(rows)
        assert red == RatMatrix(ref)
        assert list(pivots) == ref_pivots

    @settings(max_examples=60, deadline=None)
    @given(linear_systems())
    @example(([[1, 1], [1, 1]], [0, 1]))        # inconsistent
    @example(([[0, 0], [0, 0]], [0, 0]))        # a zero matrix, consistent
    @example(([[0, 2, 1], [0, 4, 2]], [1, 2]))  # a free first column
    def test_solve(self, system):
        rows, b = system
        n = len(rows[0])
        ref, pivots = _dense_rref([[Fraction(x) for x in r] + [Fraction(v)]
                                   for r, v in zip(rows, b)])
        m = RatMatrix(rows)
        if n in pivots:
            assert m.solve(b) is None
            return
        expected = [Fraction(0)] * n
        for r, pc in enumerate(pivots):
            expected[pc] = ref[r][n]
        assert m.solve(b) == tuple(expected)
        assert m.apply(expected) == tuple(b)

    @settings(max_examples=30, deadline=None)
    @given(sparse_matrices())
    def test_kernel_basis(self, rows):
        ref, pivots = _dense_rref(rows)
        expected = []
        for fc in (c for c in range(len(rows[0])) if c not in pivots):
            v = [Fraction(0)] * len(rows[0])
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -ref[r][fc]
            expected.append(tuple(v))
        m = RatMatrix(rows)
        assert m.kernel_basis() == expected
        assert all(not any(m.apply(v)) for v in expected)

    @settings(max_examples=30, deadline=None)
    @given(sparse_matrices(square=True))
    def test_inverse(self, rows):
        n = len(rows)
        aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
        ref, pivots = _dense_rref(aug)
        m = RatMatrix(rows)
        if pivots[:n] != list(range(n)):
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            return
        inv = m.inverse()
        assert inv == RatMatrix([row[n:] for row in ref])
        assert m * inv == RatMatrix.identity(n)

    @settings(max_examples=100, deadline=None)
    @given(integer_rows())
    @example([[0, 1, 2], [0, 3, 4]])             # the first column has no pivot
    @example([[1, 2], [0, 0], [3, 4]])           # a zero row
    @example([[1, 2, 3], [1, 2, 3], [0, 1, 1]])  # a repeated row
    @example([[2, 0, 1], [0, 0, 3], [1, 0, 0]])  # a row left alone, then caught up
    def test_rank_of_integer_rows(self, rows):
        _, pivots = _dense_rref([[Fraction(x) for x in r] for r in rows])
        assert bareiss(rows)[0] == tuple(pivots)
        assert RatMatrix(rows).rank() == len(pivots)

    @settings(max_examples=100, deadline=None)
    @given(symmetric_matrices())
    @example([[1, 1], [1, 1]])     # singular, positive semidefinite
    @example([[2, 1], [1, 1]])
    @example([[0, 1], [1, 0]])
    @example([[1, 2], [2, 1]])
    def test_positive_definite(self, rows):
        assert RatMatrix(rows).is_positive_definite() == _ldlt_positive_definite(rows)

    # Sylvester's criterion read off Bareiss pivots of the int rows agrees
    # with the leading minors taken over the rationals, on singular and
    # indefinite matrices too, and where row swaps would leave every pivot
    # of the whole matrix positive (two hyperbolic planes)
    @settings(max_examples=200, deadline=None)
    @given(symmetric_matrices())
    @example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    @example([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    @example([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
    @example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]])
    def test_positive_definite_is_sylvester(self, rows):
        minors = [_dense_det([r[:k] for r in rows[:k]]) for k in range(1, len(rows) + 1)]
        assert RatMatrix(rows).is_positive_definite() == all(m > 0 for m in minors)


class TestIntegerDet:
    @settings(max_examples=150, deadline=None)
    @given(square_matrices)
    @example([[0, 1], [1, 0]])                      # a swap at the first step
    @example([[1, 2, 3], [2, 4, 7], [1, 0, 0]])     # a zero pivot after one step
    @example([[1, 2, 3], [2, 4, 6], [0, 1, 5]])     # singular
    @example([[2, 0, 0], [0, 3, 0], [1, 0, 5]])     # rows left alone, then caught up
    def test_matches_the_rational_determinant(self, rows):
        pivots, last, _ = bareiss(rows)
        ref = _dense_det(rows)
        assert (last if len(pivots) == len(rows) else 0) == ref
        assert RatMatrix(rows).det() == ref

    @settings(max_examples=50, deadline=None)
    @given(sparse_matrices(square=True))
    def test_rational_determinant(self, rows):
        assert RatMatrix(rows).det() == _dense_det(rows)

    def test_empty_matrix_has_determinant_one(self):
        assert bareiss([]) == ((), 1, [])


class TestWedge:
    def test_basis_case(self):
        assert wedge(e(2, 0), e(2, 1)) == e(2, 0, 1)

    def test_alternation(self):
        assert not wedge(e(2, 0), e(2, 0))

    def test_bilinear_expansion(self):
        a = e(2, 0) + e(2, 1)
        b = e(2, 0) - e(2, 1)
        assert wedge(a, b) == mono(2, (0, 1), -2)

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            wedge(e(2, 0), e(3, 0))

    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    def test_graded_anticommutativity(self, ka, kb, data):
        rank = 5
        idx_a = tuple(sorted(data.draw(st.sets(st.integers(0, rank - 1),
                                               min_size=ka, max_size=ka))))
        idx_b = tuple(sorted(data.draw(st.sets(st.integers(0, rank - 1),
                                               min_size=kb, max_size=kb))))
        a = mono(rank, idx_a)
        b = mono(rank, idx_b)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (ka * kb) % 2:
            rhs = -rhs
        assert lhs == rhs

    def test_associativity(self):
        a = e(4, 0) + mono(4, (1,), 2)
        b = e(4, 1) + mono(4, (2,), -3)
        c = e(4, 3) + ExtElement.scalar(4, Q(1, 2))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


class TestInterior:
    def test_dual_pairing(self):
        assert interior(e(4, 0, 1), e(4, 0, 1)) == ExtElement.scalar(4, 1)

    def test_disjoint_support(self):
        assert not interior(e(4, 0, 1), e(4, 2, 3))

    def test_contraction_of_volume(self):
        assert interior(e(4, 0, 1), e(4, 0, 1, 2, 3)) == e(4, 2, 3)

    def test_low_grade_gives_zero(self):
        assert not interior(e(4, 0, 1), e(4, 0))
        assert not interior(e(4, 0, 1), ExtElement.scalar(4, 7))

    def test_non_bivector_rejected(self):
        with pytest.raises(GradeError):
            interior(e(4, 0), e(4, 0, 1))

    def test_adjoint_of_wedge_exhaustive_rank6(self):
        # <interior(e_ij, a), b> == <a, e_ij ^ b> for monomial pairing
        rank = 6
        for i, j in combinations(range(rank), 2):
            biv = e(rank, i, j)
            for ga in range(2, rank + 1):
                for a_idx in combinations(range(rank), ga):
                    a = mono(rank, a_idx)
                    contracted = interior(biv, a)
                    for b_idx in combinations(range(rank), ga - 2):
                        b = mono(rank, b_idx)
                        lhs = contracted.coefficient(b_idx)
                        rhs = wedge(biv, b).coefficient(a_idx)
                        assert lhs == rhs


class TestExp:
    def test_exp_zero(self):
        assert exp_grade2(ExtElement.zero(2)) == ExtElement.scalar(2, 1)

    def test_exp_single_block(self):
        a = e(2, 0, 1)
        assert exp_grade2(a) == ExtElement.scalar(2, 1) + a

    def test_exp_two_blocks(self):
        a = ExtElement(4, {(0, 1): 1, (2, 3): 1})
        expected = ExtElement(4, {(): 1, (0, 1): 1, (2, 3): 1, (0, 1, 2, 3): 1})
        assert exp_grade2(a) == expected

    def test_exp_rejects_wrong_grade(self):
        with pytest.raises(GradeError):
            exp_grade2(e(3, 0))


class TestInducedMap:
    def test_identity(self):
        assert induced_map(RatMatrix.identity(4), 2) == RatMatrix.identity(6)

    def test_diagonal_determinant(self):
        assert induced_map(diag([2, 3]), 2) == RatMatrix([[6]])

    def test_rotation_preserves_area(self):
        rot = RatMatrix([[0, -1], [1, 0]])
        assert induced_map(rot, 2) == RatMatrix([[1]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            induced_map(RatMatrix([[1, 0]]), 1)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                    min_size=16, max_size=16),
           st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                    min_size=16, max_size=16),
           st.integers(1, 3))
    def test_functoriality(self, flat_m, flat_n, grade):
        m = RatMatrix([flat_m[i * 4:(i + 1) * 4] for i in range(4)])
        n = RatMatrix([flat_n[i * 4:(i + 1) * 4] for i in range(4)])
        assert induced_map(m * n, grade) == induced_map(m, grade) * induced_map(n, grade)

    def test_derivation_leibniz_against_functor(self):
        # derivation of m = d/dt of induced(1 + t m) at t=0, checked on grade 2
        m = RatMatrix([[1, 2, 0], [0, -1, 1], [3, 0, 1]])
        dm = derivation(m, 2)
        basis = list(combinations(range(3), 2))
        for col, s in enumerate(basis):
            img = ExtElement.zero(3)
            for t in range(2):
                cols = []
                for pos, gen in enumerate(s):
                    if pos == t:
                        cols.append(ExtElement(3, {(i,): m.entries[i][gen]
                                                   for i in range(3) if m.entries[i][gen]}))
                    else:
                        cols.append(mono(3, (gen,)))
                term = ExtElement.scalar(3, 1)
                for c in cols:
                    term = wedge(term, c)
                img = img + term
            for row, tpl in enumerate(basis):
                assert dm.entries[row][col] == img.coefficient(tpl)


class TestApplyLinear:
    def test_matches_induced_map_on_monomials(self):
        # two routes to the same functor: minors vs sparse wedge expansion
        m = RatMatrix([[1, 2, 0, -1], [0, 1, 1, 0], [3, 0, 1, 2], [1, 1, 0, 1]])
        for k in (1, 2, 3):
            ind = induced_map(m, k)
            basis = list(combinations(range(4), k))
            for col, s in enumerate(basis):
                img = apply_linear(mono(4, s), m)
                for row, t in enumerate(basis):
                    assert ind.entries[row][col] == img.coefficient(t)

    def test_algebra_map(self):
        m = RatMatrix([[1, 1], [0, 1]])
        a = e(2, 0, 1)
        # columns: e0 -> e0, e1 -> e0 + e1, so e0^e1 -> e0^e1
        assert apply_linear(a, m) == e(2, 0, 1)

    def test_rectangular_restriction(self):
        m = RatMatrix([[1, 0, 2]])  # rank-3 generators restricted to a line
        a = e(3, 0) + e(3, 2)
        assert apply_linear(a, m) == mono(1, (0,), 3)


@st.composite
def rational_matrices(draw):
    """One to three rational matrices of their own shapes."""
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        mats.append(RatMatrix(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                            min_size=rows, max_size=rows))))
    return mats


def prime_factors(n):
    p, out = 2, set()
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


class TestCleared:
    # D is the lcm of every denominator, so no proper divisor of D clears all
    # the matrices, and each D m holds the exact ints D x
    @settings(max_examples=200, deadline=None)
    @given(rational_matrices())
    def test_one_least_scale_clears_every_matrix(self, mats):
        den, *scaled = cleared(*mats)
        assert den == lcm(*(x.denominator for m in mats for row in m.entries for x in row))
        assert all(any((den // p * x).denominator != 1
                       for m in mats for row in m.entries for x in row)
                   for p in prime_factors(den))
        assert len(scaled) == len(mats)
        for m, rows in zip(mats, scaled):
            assert all(type(v) is int for row in rows for v in row)
            assert rows == [[den * x for x in row] for row in m.entries]

    def test_integer_matrices_keep_their_entries(self):
        assert cleared(RatMatrix([[2, -3]]), RatMatrix([[0]])) == (1, [[2, -3]], [[0]])


product_entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9,
                                                             max_denominator=15))


@st.composite
def product_pairs(draw):
    """Factors of shapes n x k and k x m."""
    n, k, m = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return [RatMatrix([draw(st.lists(product_entry, min_size=cols, max_size=cols))
                       for _ in range(rows)])
            for rows, cols in ((n, k), (k, m))]


def reference_product(a, b):
    """The entrywise field-operation product."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b.entries)]
            for row in a.entries]


class TestProduct:
    # rational factors are multiplied on cleared ints and rescaled once; the
    # result must be the exact product, entry by entry, as Fractions
    @settings(max_examples=300, deadline=None)
    @given(product_pairs())
    def test_rational_product_is_the_exact_product(self, pair):
        a, b = pair
        prod = a * b
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
        assert prod.entries == tuple(map(tuple, reference_product(a, b)))
        assert all(type(x) is Fraction for row in prod.entries for x in row)

    # matrices are rational only: a Gaussian-rational entry, even one with a
    # zero imaginary part, is refused by every way of making a matrix
    @settings(max_examples=100, deadline=None)
    @given(product_pairs(), product_entry, product_entry, st.data())
    def test_gaussian_entry_raises_type_error(self, pair, re, im, data):
        a, _ = pair
        z = Gaussian(re, im)
        i = data.draw(st.integers(0, a.rows - 1))
        j = data.draw(st.integers(0, a.cols - 1))
        entries = [list(row) for row in a.entries]
        entries[i][j] = z
        with pytest.raises(TypeError):
            RatMatrix(entries)
        with pytest.raises(TypeError):
            diag([z])
        with pytest.raises(TypeError):
            a.scale(z)
        with pytest.raises(TypeError):
            a * z
        if a.is_square():
            with pytest.raises(TypeError):
                a.minus_scalar(z)

    @settings(max_examples=50, deadline=None)
    @given(product_pairs(), st.integers(1, 5))
    def test_mismatched_shapes_raise(self, pair, extra):
        a, b = pair
        c = RatMatrix([[1] * b.cols] * (a.cols + extra))
        with pytest.raises(DimensionError):
            a * c


def assert_cleared_form(m):
    """``m`` is held in its one normal form: a positive den that is the lcm
    of the entries' denominators, int rows coprime to it, and den m = num."""
    assert m.den > 0
    assert all(type(x) is int for x in chain(*m.num))
    assert all(type(x) is Fraction for x in chain(*m.entries))
    assert m.den == lcm(*(x.denominator for x in chain(*m.entries)))
    assert gcd(m.den, *chain(*m.num)) == 1
    assert m.num == tuple(tuple(m.den * x for x in row) for row in m.entries)


def agrees(m, ref):
    """``m`` is in normal form and has the reference's entries; returns m."""
    assert_cleared_form(m)
    assert (m.rows, m.cols) == (ref.rows, ref.cols)
    assert m.entries == ref.entries
    return m


# small rationals, zeros, and both numerators and denominators of size 2^40
int_form_entry = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.integers(-BIG, BIG).map(Fraction),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


@st.composite
def int_form_matrix(draw, rows, cols):
    """Rows of :data:`int_form_entry`; now and then a row is zero, or a
    rational multiple of an earlier row, so that singular matrices are common."""
    m = []
    for _ in range(rows):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            m.append([Fraction(0)] * cols)
        elif kind == 1 and m:
            c = draw(int_form_entry)
            m.append([c * x for x in draw(st.sampled_from(m))])
        else:
            m.append(draw(st.lists(int_form_entry, min_size=cols, max_size=cols)))
    return m


@st.composite
def operand_sets(draw):
    """``(A, B, C, s, cut)``: A and B of shape n x k, C of shape k x m, s a
    scalar and cut the bounds ``(r0, r1, c0, c1)`` of a block of A."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    r0, c0 = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))
    cut = (r0, draw(st.integers(r0 + 1, n)), c0, draw(st.integers(c0 + 1, k)))
    return (draw(int_form_matrix(n, k)), draw(int_form_matrix(n, k)),
            draw(int_form_matrix(k, m)), draw(int_form_entry), cut)


@st.composite
def elimination_operands(draw):
    """``(S, W, b)``: S square of size n, W of n rows, b of length n."""
    n = draw(st.integers(1, 5))
    return (draw(int_form_matrix(n, n)), draw(int_form_matrix(n, draw(st.integers(1, 7)))),
            draw(st.lists(int_form_entry, min_size=n, max_size=n)))


class TestIntRowsAgainstFractionReference:
    # every operation on the int rows over one denominator gives the entries
    # the entrywise Fraction reference gives, and leaves its result in normal form

    @settings(max_examples=150, deadline=None)
    @given(operand_sets())
    @example(([[1, 2]], [[-1, -2]], [[1], [1]], Fraction(0), (0, 1, 1, 2)))  # zero sums, scalings
    @example(([[Fraction(1, 2)]], [[Fraction(1, 2)]], [[2]], Fraction(2, 3), (0, 1, 0, 1)))
    def test_arithmetic(self, operands):
        a, b, c, s, cut = operands
        ra, rb, rc = (FractionMatrix(x) for x in (a, b, c))
        a, b, c = (agrees(RatMatrix(x), r) for x, r in ((a, ra), (b, rb), (c, rc)))
        agrees(a * c, ra * rc)
        agrees(a + b, ra + rb)
        agrees(a - b, ra - rb)
        agrees(-a, -ra)
        agrees(a.transpose(), ra.transpose())
        agrees(a.scale(s), ra * s)
        agrees(a * s, ra * s)
        agrees(s * a, ra * s)
        agrees(RatMatrix.from_blocks([[a, b], [b, a]]),
               FractionMatrix.from_blocks([[ra, rb], [rb, ra]]))
        agrees(RatMatrix.from_blocks([[a * c, a], [b * c, b]]),
               FractionMatrix.from_blocks([[ra * rc, ra], [rb * rc, rb]]))
        agrees(a.block(*cut), ra.block(*cut))
        if a.is_square():
            eye = FractionMatrix([[int(i == j) for j in range(a.rows)] for i in range(a.rows)])
            agrees(a.minus_scalar(s), ra - eye * s)

    @settings(max_examples=150, deadline=None)
    @given(operand_sets())
    # equal int rows over different denominators: different matrices
    @example(([[1, 3]], [[Fraction(1, 2), Fraction(3, 2)]], [[1], [1]], Fraction(1, 2), (0, 1, 0, 1)))
    def test_equality_and_hash(self, operands):
        a, b, _, s, _ = operands
        ra, rb = FractionMatrix(a), FractionMatrix(b)
        a, b = RatMatrix(a), RatMatrix(b)
        assert (a == b) == (ra == rb)
        assert (a != b) == (ra != rb)
        assert (a.scale(s) == a) == (ra * s == ra)
        # one matrix reached by different paths is one value, with one hash
        same = [a, (a + b) - b, a.transpose().transpose(), -(-a), a * RatMatrix.identity(a.cols),
                RatMatrix([[str(x) for x in row] for row in a.entries])]
        if s:
            same.append(a.scale(s).scale(1 / s))
        for m in same:
            agrees(m, ra)
            assert m == a and hash(m) == hash(a)
        assert len({*same}) == 1

    @settings(max_examples=150, deadline=None)
    @given(elimination_operands())
    @example(([[0, 0], [0, 0]], [[1, 2, 3], [2, 4, 6]], [0, 0]))
    @example(([[2, 1], [4, 2]], [[0, 1, 0], [0, 0, 0]], [1, 1]))
    def test_elimination(self, operands):
        sq, wide, rhs = operands
        for rows in (sq, wide):
            m, ref = RatMatrix(rows), FractionMatrix(rows)
            red, pivots = m.rref()
            ref_red, ref_pivots = ref.rref()
            agrees(red, ref_red)
            assert tuple(pivots) == ref_pivots
            assert m.rank() == ref.rank()
            assert m.kernel_basis() == ref.kernel_basis()
            assert m.solve(rhs) == ref.solve(rhs)
            assert m.is_integral() == ref.is_integral()
        m, ref = RatMatrix(sq), FractionMatrix(sq)
        assert m.det() == ref.det()
        if ref.det():
            agrees(m.inverse(), ref.inverse())
        else:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
