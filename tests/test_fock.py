"""Truncated oscillator algebras and the superconformal vectors."""

from fractions import Fraction

import pytest

from flattori.equivalence import chiral_transports
from flattori.errors import TruncationError, ValidationError
from flattori.exactlinear import GaussRational, Q, RatMatrix
from flattori.fock import (RootTwoScalar, TruncatedFock, _bracket_is, _verify_pairs,
                           build_oscillator, ccr_car_sweep, field_modes,
                           monomial_pairing, state_level, state_parity,
                           superconformal_states, verify_car, verify_ccr)
from flattori.torus import ChargeVector, omega, square_torus

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

    def test_indefinite_metric_rejected(self):
        with pytest.raises(ValidationError):
            TruncatedFock(1, Fraction(2), RatMatrix.diag([1, -1]))


class TestOscillators:
    def test_creator_on_vacuum(self, space1):
        op = build_oscillator(space1, "alpha", 0, -1)
        [(row, coeff)] = op.apply_monomial(space1.vacuum())
        assert space1.basis[row] == ((("a", Q(1), 0),), ())
        assert coeff == 1

    def test_annihilator_kills_vacuum(self, space1):
        assert build_oscillator(space1, "alpha", 0, 1).apply_monomial(space1.vacuum()) == ()
        assert build_oscillator(space1, "psi", 0, HALF).apply_monomial(space1.vacuum()) == ()

    def test_fermionic_derivative_rule(self, space1):
        cre = build_oscillator(space1, "psi", 0, -HALF)
        ann = build_oscillator(space1, "psi", 0, HALF)
        state = {space1.basis[r]: c for r, c in cre.apply_monomial(space1.vacuum())}
        assert ann.apply_state(state) == {space1.vacuum(): Q(1)}

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
    for kind, modes in flavors:
        for i in range(2):
            for s in modes:
                cre = build_oscillator(space, kind, i, -s)
                ann = build_oscillator(space, kind, i, s)
                for m1 in space.basis:
                    lift = {space.basis[r]: c for r, c in cre.apply_monomial(m1)}
                    for m2 in space.basis:
                        lhs = sum((c * monomial_pairing(space, mono, m2)
                                   for mono, c in lift.items()), Q(0))
                        drop = {space.basis[r]: c for r, c in ann.apply_monomial(m2)}
                        rhs = sum((c * monomial_pairing(space, m1, mono)
                                   for mono, c in drop.items()), Q(0))
                        assert lhs == rhs


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


class TestSuperconformalStates:
    def test_levels_and_parities(self, square1):
        space = TruncatedFock(1, Fraction(2), square1.G)
        states = superconformal_states(space, square1)
        assert state_level(states["L"]) == 2 and state_parity(states["L"]) == 0
        assert state_level(states["J"]) == 1 and state_parity(states["J"]) == 0
        for name in ("Qplus", "Qminus", "Qplusbar", "Qminusbar"):
            assert state_level(states[name]) == Fraction(3, 2)
            assert state_parity(states[name]) == 1
        for name in ("L", "Qplus", "Qminus", "J",
                     "Lbar", "Qplusbar", "Qminusbar", "Jbar"):
            assert states[name]

    def test_j_expansion_square_torus(self, square1):
        space = TruncatedFock(1, Fraction(2), square1.G)
        states = superconformal_states(space, square1)
        mono = ((), (("th", HALF, 0), ("th", HALF, 1)))
        # omega_{01} = -1, so the single coefficient is -i * omega_{01} = +i
        assert states["J"] == {mono: RootTwoScalar(GaussRational(0, 1))}

    def test_supercurrent_combination_is_metric_bilinear(self, square1):
        # the Kaehler-form parts of Qplus and Qminus cancel exactly,
        # leaving the metric pairing with the universal -i/(2 sqrt2) factor
        space = TruncatedFock(1, Fraction(2), square1.G)
        states = superconformal_states(space, square1)
        total = dict(states["Qplus"])
        for mono, c in states["Qminus"].items():
            total[mono] = total.get(mono, RootTwoScalar(0)) + c
        expected = {}
        for a in range(2):
            for b in range(2):
                g = square1.G.entries[a][b]
                if g:
                    mono = ((("a", Q(1), b),), (("th", HALF, a),))
                    expected[mono] = RootTwoScalar(GaussRational(0, Q(-g, 4)), 1)
        assert {m: c for m, c in total.items() if c} == expected

    def test_truncation_guard(self, square1):
        space = TruncatedFock(1, Fraction(1), square1.G)
        with pytest.raises(TruncationError):
            superconformal_states(space, square1)

    def test_mirror_flips_left_kaehler_pairing(self, square1):
        # under the duality certificate the left-mover labels transform by
        # O_L and the right-mover labels by O_R; the J coefficient matrix
        # (the Kaehler form) must pull back to -omega on the left and
        # +omega on the right
        from flattori.exactlinear import RatMatrix
        from flattori.tduality import find_lagrangian_splitting, mirror_via_tduality
        from flattori.torus import TorusData
        with_b = TorusData(1, square1.I, square1.G,
                           RatMatrix([[0, Q(1, 2)], [Q(-1, 2), 0]]), "with-B")
        for t in (square1, square_torus(2), with_b):
            mr = mirror_via_tduality(t, find_lagrangian_splitting(t))
            o_l, o_r = chiral_transports(mr.duality_map)
            w1 = omega(t)
            w2 = omega(mr.mirror)
            assert o_l.transpose() * w2 * o_l == -w1
            assert o_r.transpose() * w2 * o_r == w1
            assert o_l.transpose() * mr.mirror.G * o_l == t.G
            assert o_r.transpose() * mr.mirror.G * o_r == t.G


class TestFieldModes:
    def test_nonzero_mode_is_oscillator(self, square1):
        space = TruncatedFock(1, Fraction(2), square1.G)
        op = field_modes(space, square1, "dX", 0, 1)
        assert op.kind == "alpha" and op.mode == 1

    def test_fermionic_half_mode(self, square1):
        space = TruncatedFock(1, Fraction(2), square1.G)
        op = field_modes(space, square1, "psi", 0, HALF)
        assert op.kind == "psi" and op.mode == HALF

    def test_zero_mode_descriptor(self, square1):
        space = TruncatedFock(1, Fraction(2), square1.G)
        zm = field_modes(space, square1, "dX", 0, 0)
        assert zm.apply_charge(ChargeVector((1, 0), (0, 0))) == -1
        zbar = field_modes(space, square1, "dXbar", 0, 0)
        assert zbar.apply_charge(ChargeVector((1, 0), (0, 0))) == 1

    def test_unknown_field_rejected(self, square1):
        space = TruncatedFock(1, Fraction(2), square1.G)
        with pytest.raises(ValueError):
            field_modes(space, square1, "X", 0, 1)
