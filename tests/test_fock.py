"""Truncated oscillator algebras and their (anti)commutation sweeps."""

import tracemalloc
import weakref
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from flattori import fock
from flattori.errors import TruncationError, ValidationError
from flattori.exactlinear import Q, RatMatrix
from flattori.fock import (TruncatedFock, _bracket_is, _verify_pairs, build_oscillator,
                           ccr_car_sweep, verify_car, verify_ccr)

HALF = Fraction(1, 2)

# metrics whose inverse has denominators: D = 3 at d = 1, D = 5 at d = 2
PAIRED = RatMatrix([[2, 1], [1, 2]])
TRIDIAGONAL = RatMatrix([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]])


@pytest.fixture
def space1():
    return TruncatedFock(1, Fraction(3), RatMatrix.identity(2))


class TestSpace:
    def test_basis_is_graded_and_deterministic(self, space1):
        levels = [sum(g[1] for g in m[0]) + sum(g[1] for g in m[1])
                  for m in space1.basis]
        assert levels == sorted(levels)
        again = TruncatedFock(1, Fraction(3), RatMatrix.identity(2))
        assert again.basis == space1.basis

    def test_vacuum_is_first(self, space1):
        assert space1.basis[0] == ((), ())

    def test_odd_variables_never_repeat(self, space1):
        for even, odd in space1.basis:
            assert len(set(odd)) == len(odd)

    @pytest.mark.parametrize("d, cap", [(1, c) for c in ("1/2", "1", "3/2", "2", "5/2")]
                             + [(2, c) for c in ("1/2", "1", "3/2", "2")])
    def test_basis_equals_brute_force_enumeration(self, d, cap):
        # every multiset of even variables times every set of odd variables,
        # within the cap, in (level, even part, odd part) order
        cap = Fraction(cap)
        space = TruncatedFock(d, cap, RatMatrix.identity(2 * d))
        even = sorted((fam, Fraction(a), i) for fam in ("a", "abar")
                      for a in range(1, int(cap) + 1) for i in range(2 * d))
        odd = sorted((fam, Fraction(2 * a + 1, 2), i) for fam in ("th", "thbar")
                     for a in range(int(cap + HALF)) for i in range(2 * d))
        variables = even + odd

        def level(ranks):
            return sum(variables[r][1] for r in ranks)

        # an even variable has level at least 1, an odd one at least 1/2
        monomials = sorted(
            (level(e + o), e, o)
            for k in range(int(cap) + 1)
            for e in combinations_with_replacement(range(len(even)), k)
            for m in range(int(2 * (cap - level(e))) + 1)
            for o in combinations(range(len(even), len(variables)), m)
            if level(e + o) <= cap)
        assert space._keys == tuple(e + o for _, e, o in monomials)
        assert space.basis == tuple((tuple(variables[r] for r in e),
                                     tuple(variables[r] for r in o)) for _, e, o in monomials)

    def test_indefinite_metric_rejected(self):
        with pytest.raises(ValidationError):
            TruncatedFock(1, Fraction(2), RatMatrix.diag([1, -1]))


def column(op, col):
    """The exact entries ``(row, Fraction)`` of one column of ``op``."""
    return [(row, Fraction(a, op.scale)) for row, a in op.int_column(col)]


class TestOscillators:
    # the vacuum is the first basis monomial, at position 0
    def test_creator_on_vacuum(self, space1):
        op = build_oscillator(space1, "alpha", 0, -1)
        [(row, coeff)] = column(op, 0)
        assert space1.basis[row] == ((("a", Q(1), 0),), ())
        assert coeff == 1

    def test_annihilator_kills_vacuum(self, space1):
        assert build_oscillator(space1, "alpha", 0, 1).int_column(0) == ()
        assert build_oscillator(space1, "psi", 0, HALF).int_column(0) == ()

    def test_fermionic_derivative_rule(self, space1):
        cre = build_oscillator(space1, "psi", 0, -HALF)
        ann = build_oscillator(space1, "psi", 0, HALF)
        [(row, c)] = column(cre, 0)
        assert [(r, c * a) for r, a in column(ann, row)] == [(0, 1)]

    def test_mode_parity_enforced(self, space1):
        with pytest.raises(ValidationError):
            build_oscillator(space1, "alpha", 0, HALF)
        with pytest.raises(ValidationError):
            build_oscillator(space1, "psi", 0, 1)

    def test_mode_beyond_cap_rejected(self, space1):
        with pytest.raises(TruncationError):
            build_oscillator(space1, "alpha", 0, -4)

    def test_adjointness_against_wick_pairing(self):
        assert_adjoint_to_creators(TruncatedFock(1, Fraction(2), RatMatrix([[2, 1], [1, 1]])))

    def test_scaled_annihilators_are_adjoint(self):
        # G^-1 = [[2, -1], [-1, 2]] / 3, so the annihilator columns carry scale 3
        space = TruncatedFock(1, Fraction(2), PAIRED)
        assert build_oscillator(space, "alpha", 0, 1).scale == 3
        assert_adjoint_to_creators(space)


def assert_adjoint_to_creators(space):
    """Each annihilator is the Wick-pairing adjoint of its creator."""
    flavors = (("alpha", (1, 2)), ("psi", (HALF, Fraction(3, 2))),
               ("alphabar", (1,)), ("psibar", (HALF,)))
    basis = space.basis
    for kind, modes in flavors:
        for i in range(2):
            for s in modes:
                cre = build_oscillator(space, kind, i, -s)
                ann = build_oscillator(space, kind, i, s)
                for c1, m1 in enumerate(basis):
                    lift = column(cre, c1)
                    for c2, m2 in enumerate(basis):
                        lhs = sum(c * monomial_pairing(space, basis[r], m2) for r, c in lift)
                        rhs = sum(c * monomial_pairing(space, m1, basis[r])
                                  for r, c in column(ann, c2))
                        assert lhs == rhs


def monomial_pairing(space, m1, m2):
    """Wick pairing of two basis monomials (the creator-adjointness oracle).

    Independent of the operator implementation: a permanent over bosonic
    contractions times a determinant over fermionic contractions, each
    single contraction pairing equal levels and families through
    ``level * G^-1`` (bosons) or ``G^-1`` (fermions).
    """
    even1, odd1 = m1
    even2, odd2 = m2
    if len(even1) != len(even2) or len(odd1) != len(odd2):
        return Fraction(0)
    ginv = space.ginv

    def single_even(g1, g2):
        if g1[0] != g2[0] or g1[1] != g2[1]:
            return Fraction(0)
        return g1[1] * ginv.entries[g1[2]][g2[2]]

    def single_odd(g1, g2):
        if g1[0] != g2[0] or g1[1] != g2[1]:
            return Fraction(0)
        return ginv.entries[g1[2]][g2[2]]

    even_total = Fraction(0)
    if even1:
        for perm in permutations(range(len(even2))):
            term = Fraction(1)
            for a, b in enumerate(perm):
                term *= single_even(even1[a], even2[b])
                if not term:
                    break
            even_total += term
    else:
        even_total = Fraction(1)
    odd_total = Fraction(0)
    if odd1:
        for perm in permutations(range(len(odd2))):
            term = Fraction(_perm_sign(perm))
            for a, b in enumerate(perm):
                term *= single_odd(odd1[a], odd2[b])
                if not term:
                    break
            odd_total += term
    else:
        odd_total = Fraction(1)
    return even_total * odd_total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestCcrCar:
    def test_standard_commutator(self, space1):
        assert verify_ccr(space1, 0, 0, 1, -1).status == "pass"

    def test_mismatched_modes_commute(self, space1):
        out = verify_ccr(space1, 0, 0, 1, -2)
        assert out.status == "pass" and out.expected == 0

    def test_metric_inverse_normalization(self):
        space = TruncatedFock(1, Fraction(3), RatMatrix.diag([2, 1]))
        out = verify_ccr(space, 0, 0, 1, -1)
        assert out.status == "pass"
        assert out.expected == Q(1, 2)

    def test_car_standard(self, space1):
        assert verify_car(space1, 0, 0, HALF, -HALF).status == "pass"

    def test_car_cross_flavor_zero(self, space1):
        # included in every verify_car call; also check an off-diagonal pair
        assert verify_car(space1, 0, 1, HALF, Fraction(3, 2)).status == "pass"

    def test_odd_square_vanishes(self, space1):
        out = verify_car(space1, 0, 0, -HALF, -HALF)
        assert out.status == "pass" and out.expected == 0

    def test_inconclusive_outside_guard(self, space1):
        # at cap 3 the guard 3 - |s| - |p| is negative: no column is tested
        out = verify_ccr(space1, 0, 0, 3, -3)
        assert (out.status, out.tested_dimension) == ("inconclusive", 0)
        assert verify_ccr(space1, 0, 0, 3, 3).status == "inconclusive"

    @pytest.mark.parametrize("d, g", [(1, None), (2, None), (1, PAIRED), (2, TRIDIAGONAL)],
                             ids=["1", "2", "1-D3", "2-D5"])
    def test_sweep_has_no_failures(self, d, g):
        space = TruncatedFock(d, Fraction(2), g or RatMatrix.identity(2 * d))
        rows = ccr_car_sweep(space)
        assert all(r["status"] != "fail" for r in rows)
        assert any(r["status"] == "pass" for r in rows)

    @pytest.mark.parametrize("d, g, scale", [(1, PAIRED, 3), (2, TRIDIAGONAL, 5)],
                             ids=["1-D3", "2-D5"])
    def test_scaled_bracket_rejects_a_wrong_value(self, d, g, scale):
        space = TruncatedFock(d, Fraction(3), g)
        assert space.ginv.entries[0][1].denominator == scale
        ccr = (("alpha", "alphabar"), -1)
        car = (("psi", "psibar"), +1)
        cases = (
            (ccr, 1, -1, verify_ccr(space, 0, 1, 1, -1).expected),       # annihilator, creator
            (car, HALF, -HALF, verify_car(space, 0, 1, HALF, -HALF).expected),
            (ccr, 1, -2, Q(0)),                                           # mismatched modes
            (ccr, -1, -1, Q(0)),                                          # two creators, scale 1
        )
        for (flavors, sign), s, p, right in cases:
            assert _verify_pairs(space, 0, 1, s, p, flavors, sign, right).status == "pass"
            wrong = right + Fraction(1, scale)
            assert _verify_pairs(space, 0, 1, s, p, flavors, sign, wrong).status == "fail"

    def test_bracket_sees_entries_off_the_diagonal(self, space1):
        # a boson and a fermion creator commute, so their anticommutator is
        # 2 a psi: zero on the diagonal, nonzero below it
        a = build_oscillator(space1, "alpha", 0, -1)
        psi = build_oscillator(space1, "psi", 0, -HALF)
        assert _bracket_is(a, psi, -1, range(1), Q(0))
        assert not _bracket_is(a, psi, +1, range(1), Q(0))

    def test_cap_between_half_integers_rounds_down(self):
        # 2 * 7/3 rounds down to 4, so cap 7/3 truncates exactly like cap 2,
        # and so does every guard 7/3 - |s| - |p|
        at_two = TruncatedFock(1, Fraction(2), RatMatrix.identity(2))
        at_seven_thirds = TruncatedFock(1, Fraction(7, 3), RatMatrix.identity(2))
        assert at_seven_thirds.basis == at_two.basis
        assert ccr_car_sweep(at_seven_thirds) == ccr_car_sweep(at_two)


class TestSweepMemory:
    def test_operators_live_for_one_algebra_pass(self, monkeypatch):
        # every operator the sweep builds is gone when it returns, and the
        # CCR operators are gone before the first CAR operator is built
        space = TruncatedFock(1, Fraction(2), PAIRED)
        built = []
        unreleased_at_car = []

        def tracked(space, kind, i, s):
            if kind.startswith("psi") and not unreleased_at_car:
                unreleased_at_car.append(sum(ref() is not None for ref in built))
            op = build_oscillator(space, kind, i, s)
            built.append(weakref.ref(op))
            return op

        monkeypatch.setattr(fock, "build_oscillator", tracked)
        before = set(vars(space))
        rows = ccr_car_sweep(space)
        assert built and unreleased_at_car == [0]
        assert all(ref() is None for ref in built)
        # the space gained only its cached metric inverses
        assert set(vars(space)) - before <= {"ginv", "_scaled_ginv"}
        assert any(r["status"] == "pass" for r in rows)

    def test_two_sweeps_on_one_space_agree(self):
        space = TruncatedFock(2, Fraction(2), TRIDIAGONAL)
        assert ccr_car_sweep(space) == ccr_car_sweep(space)

    def test_off_diagonal_inverse_at_cap_five_halves(self):
        # G^-1 = [[2, -1], [-1, 2]] / 3: every annihilator column mixes both
        # indices, and cap 5/2 tests the CCR at mode 1 and the CAR up to 3/2
        rows = ccr_car_sweep(TruncatedFock(1, Fraction(5, 2), PAIRED))
        assert all(r["status"] != "fail" for r in rows)
        passed = {(r["algebra"], r["s"], r["p"]) for r in rows if r["status"] == "pass"}
        assert {("ccr", "1", "-1"), ("car", "1/2", "-1/2"), ("car", "3/2", "-1/2")} <= passed

    def test_d2_cap3_sweep_stays_in_bounded_memory(self):
        # the space plus the sweep peaked at 6.0 MiB traced when the space
        # kept every operator for its life; with one pass's operators alive
        # at a time they peak at 3.4 MiB (CPython 3.11), and the bound leaves
        # room for other versions
        tracemalloc.start()
        try:
            space = TruncatedFock(2, Fraction(3), RatMatrix.identity(4))
            rows = ccr_car_sweep(space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert space.basis_dimension == 4791 and len(rows) == 1152
        assert peak < 4.5 * 2 ** 20
