"""Torus validation, doubled structures, zero modes, and the positive form."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flattori._record import failures
from flattori.errors import DimensionError, ValidationError
from flattori.exactlinear import Q, RatMatrix
from flattori.torus import (TorusData, doubled, narain_form, omega, q_matrix,
                            random_valid_torus, standard_complex_structure,
                            validate, zero_mode_momenta)


class TestValidate:
    def test_square_torus_passes(self, square1):
        assert not failures(validate(square1))

    def test_identity_complex_structure_fails(self):
        t = TorusData(1, RatMatrix.identity(2), RatMatrix.identity(2),
                      RatMatrix.zero(2, 2))
        bad = failures(validate(t))
        assert bad
        assert "I_squares_to_minus_id" in bad

    def test_indefinite_metric_fails(self):
        t = TorusData(1, standard_complex_structure(1), RatMatrix.diag([1, -1]),
                      RatMatrix.zero(2, 2))
        assert "G_positive_definite" in failures(validate(t))

    def test_incompatible_metric_fails(self):
        # diag(2,1) is not Kaehler for the standard rotation
        t = TorusData(1, standard_complex_structure(1), RatMatrix.diag([2, 1]),
                      RatMatrix.zero(2, 2))
        assert "G_hermitian_for_I" in failures(validate(t))

    def test_dimension_mismatch_is_structural(self):
        with pytest.raises(DimensionError):
            TorusData(2, standard_complex_structure(1), RatMatrix.identity(2),
                      RatMatrix.zero(2, 2))


class TestOmega:
    def test_square_torus(self, square1):
        assert omega(square1) == RatMatrix([[0, -1], [1, 0]])

    def test_scaling(self, square1):
        t4 = TorusData(1, square1.I, square1.G.scale(4), square1.B)
        assert omega(t4) == omega(square1).scale(4)

    def test_block_diagonal(self, square1, square2):
        w1 = omega(square1)
        w2 = omega(square2)
        z = RatMatrix.zero(2, 2)
        assert w2 == RatMatrix.from_blocks([[w1, z], [z, w1]])

    def test_invalid_torus_rejected(self):
        t = TorusData(1, RatMatrix.identity(2), RatMatrix.identity(2),
                      RatMatrix.zero(2, 2))
        with pytest.raises(ValidationError):
            omega(t)


class TestDoubled:
    def test_square_blocks(self, square1):
        ds = doubled(square1)
        i = square1.I
        z = RatMatrix.zero(2, 2)
        assert ds.calI == RatMatrix.from_blocks([[i, z], [z, -i.transpose()]])
        assert ds.calI == ds.calItilde
        assert ds.calJ == RatMatrix.from_blocks([[z, i], [i, z]])

    def test_calJ_depends_only_on_omega(self, square1):
        # a different compatible pair (G', I') with the same Kaehler form
        i2 = RatMatrix([[1, -1], [2, -1]])
        g2 = RatMatrix([[2, -1], [-1, 1]])
        t2 = TorusData(1, i2, g2, square1.B)
        assert not failures(validate(t2))
        assert omega(t2) == omega(square1)
        assert t2.G != square1.G
        assert doubled(t2).calJ == doubled(square1).calJ
        # and with a nonzero B-field on both
        b = RatMatrix([[0, Q(1, 3)], [Q(-1, 3), 0]])
        ta = TorusData(1, square1.I, square1.G, b)
        tb = TorusData(1, i2, g2, b)
        assert doubled(ta).calJ == doubled(tb).calJ

    def test_b11_makes_calI_product_like(self, square2):
        b = RatMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        t = TorusData(2, square2.I, square2.G, b)
        assert square2.I.transpose() * b * square2.I == b  # type (1,1)
        ds = doubled(t)
        assert ds.calI == ds.calItilde

    def test_b02_separates_calI_from_product(self, square2):
        # B = e1*^e3* - e2*^e4* has a nonzero (0,2) part on the square abelian surface
        b = RatMatrix([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]])
        t = TorusData(2, square2.I, square2.G, b)
        assert not failures(validate(t))
        ds = doubled(t)
        assert ds.calI != ds.calItilde

    def test_structure_invariants_random_suite(self, rng):
        for _ in range(30):
            d = rng.choice((1, 2, 3))
            t = random_valid_torus(rng, d)
            ds = doubled(t)
            q = q_matrix(d)
            minus = -RatMatrix.identity(4 * d)
            assert ds.calI * ds.calI == minus
            assert ds.calJ * ds.calJ == minus
            assert ds.calItilde * ds.calItilde == minus
            assert ds.calI.transpose() * q * ds.calI == q
            assert ds.calJ.transpose() * q * ds.calJ == q


class TestZeroModes:
    def test_unit_winding(self, square1):
        p, pbar, p2_half, pbar2_half = zero_mode_momenta(square1, (1, 0), (0, 0))
        assert p == (Q(-1), Q(0))
        assert pbar == (Q(1), Q(0))
        assert p2_half == Q(1, 2) and pbar2_half == Q(1, 2)

    def test_zero_charge(self, square1):
        p, pbar, _, _ = zero_mode_momenta(square1, (0, 0), (0, 0))
        assert p == (0, 0) and pbar == (0, 0)

    def test_mixed_charge_matches_pairing(self, square1):
        p, pbar, p2_half, pbar2_half = zero_mode_momenta(square1, (1, 0), (1, 0))
        assert p == (0, 0)
        assert pbar == (2, 0)
        assert pbar2_half - p2_half == 2 * (1 * 1 + 0 * 0) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_norm_difference_is_pairing(self, d, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        t = random_valid_torus(rng, d)
        coords = data.draw(st.lists(st.integers(-5, 5), min_size=4 * d, max_size=4 * d))
        w, m = coords[:2 * d], coords[2 * d:]
        _, _, p2_half, pbar2_half = zero_mode_momenta(t, w, m)
        assert pbar2_half - p2_half == 2 * sum(a * b for a, b in zip(w, m))


class TestNarainForm:
    def test_square_is_identity(self, square1):
        assert narain_form(square1) == RatMatrix.identity(4)

    def test_quadratic_values(self, square1):
        n = narain_form(square1)
        q = q_matrix(1)

        def val(mat, coords):
            return sum(coords[i] * mat.entries[i][j] * coords[j]
                       for i in range(4) for j in range(4))

        assert val(n, (1, 0, 0, 0)) == 1 and val(q, (1, 0, 0, 0)) == 0
        assert val(n, (1, 0, 1, 0)) == 2 and val(q, (1, 0, 1, 0)) == 2

    def test_equals_minus_q_calI_calJ(self, rng):
        # cross-check of two independent constructions: the positive form
        # from its own block formula equals -q calI calJ built from the
        # block formulas of the doubled structures
        from flattori.torus import doubled, q_matrix, random_valid_torus
        for _ in range(12):
            d = rng.choice((1, 2, 3))
            t = random_valid_torus(rng, d)
            ds = doubled(t)
            assert narain_form(t) == -(q_matrix(d) * ds.calI * ds.calJ)

    def test_positive_definite_and_consistent(self, rng):
        for _ in range(10):
            d = rng.choice((1, 2))
            t = random_valid_torus(rng, d)
            n = narain_form(t)
            assert n.is_symmetric()
            assert n.is_positive_definite()
            coords = [rng.randint(-3, 3) for _ in range(4 * d)]
            _, _, p2_half, pbar2_half = zero_mode_momenta(t, coords[:2 * d], coords[2 * d:])
            total = sum(coords[i] * n.entries[i][j] * coords[j]
                        for i in range(4 * d) for j in range(4 * d))
            assert total == p2_half + pbar2_half
