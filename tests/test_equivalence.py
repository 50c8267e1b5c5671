"""Relation certificates: verification, intertwiner spaces, bounded search."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flattori.equivalence import (LatticeMap, _half_norm_forms, _quadratic,
                                  chiral_transports, intertwiner_space,
                                  search_relation, spectrum_fingerprint,
                                  verify_map)
from flattori.errors import ValidationError
from flattori.exactlinear import Q, RatMatrix
from flattori.torus import (ChargeVector, TorusData, q_value, random_valid_torus,
                            square_torus, zero_mode_momenta)

E1_SWAP = RatMatrix([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])


class TestVerifyMap:
    def test_identity_iso(self, square1):
        cert = verify_map(LatticeMap(RatMatrix.identity(4), square1, square1, "iso"))
        assert cert.valid
        assert [c.name for c in cert.checks] == [
            "preserves_q", "intertwines_calI", "intertwines_calJ"]

    def test_swap_is_mirror_on_square(self, square1):
        cert = verify_map(LatticeMap(E1_SWAP, square1, square1, "mirror"))
        assert cert.valid

    def test_swap_declared_iso_on_stretched_torus_refuted(self, stretched1):
        cert = verify_map(LatticeMap(E1_SWAP, stretched1, stretched1, "iso"))
        assert not cert.valid
        # both structure intertwinings fail; the first named is calI
        # (checks run in the contract order q, calI, calJ)
        assert cert.first_failure == "intertwines_calI"

    def test_non_unimodular_rejected(self, square1):
        with pytest.raises(ValidationError):
            verify_map(LatticeMap(RatMatrix.diag([2, 1, 1, 1]), square1, square1, "iso"))

    def test_sign_flip_invariance(self, square1):
        for kind, g in (("mirror", E1_SWAP), ("iso", RatMatrix.identity(4))):
            plus = verify_map(LatticeMap(g, square1, square1, kind))
            minus = verify_map(LatticeMap(-g, square1, square1, kind))
            assert plus.valid and minus.valid

    def test_derived_eq_identity(self, square1):
        cert = verify_map(LatticeMap(RatMatrix.identity(4), square1, square1,
                                     "derived_eq"))
        assert cert.valid


class TestIntertwinerSpace:
    def test_contains_identity_for_self_iso(self, square1):
        basis = intertwiner_space(square1, square1, "iso")
        flat_id = RatMatrix.identity(4)
        coords = _coordinates_of(flat_id, basis)
        assert coords is not None

    def test_square_self_iso_dimension(self, square1):
        # commutant of the two doubled structures; exact dimension frozen
        # from the kernel computation
        assert len(intertwiner_space(square1, square1, "iso")) == 4

    def test_mirror_space_dimension(self, square1):
        assert len(intertwiner_space(square1, square1, "mirror")) == 4

    def test_heterogeneous_pairs_solution_dimension(self, square1, stretched1):
        # for valid data the doubled structures commute and split the doubled
        # space evenly, so the solution space is never empty; the computed
        # dimension at d=1 is always 4 (recorded from the kernel oracle)
        from flattori.torus import doubled
        d1, d2 = doubled(square1), doubled(stretched1)
        basis = intertwiner_space(square1, stretched1, "iso")
        assert len(basis) == 4
        for m in basis:
            assert m * d1.calI == d2.calI * m
            assert m * d1.calJ == d2.calJ * m

    def test_doubled_structures_commute_on_valid_data(self, rng):
        # the fact behind the previous test, checked on random valid tori
        from flattori.torus import doubled, random_valid_torus
        for _ in range(6):
            t = random_valid_torus(rng, rng.choice((1, 2)))
            ds = doubled(t)
            assert ds.calI * ds.calJ == ds.calJ * ds.calI

    def test_basis_elements_are_integral(self, square1):
        for m in intertwiner_space(square1, square1, "mirror"):
            assert m.is_integral()


def _coordinates_of(mat, basis):
    n = mat.rows
    cols = [[b.entries[i][j] for b in basis] for i in range(n) for j in range(n)]
    rhs = [mat.entries[i][j] for i in range(n) for j in range(n)]
    return RatMatrix(cols).solve(rhs)


class TestSearchRelation:
    def test_square_self_mirror_finds_swap(self, square1):
        out = search_relation(square1, square1, "mirror", 2)
        assert out.found
        g = out.certificate.map.g
        assert g == E1_SWAP or g == -E1_SWAP

    def test_dual_torus_iso(self):
        t = TorusData(1, square_torus(1).I, RatMatrix.diag([4, 4]),
                      RatMatrix.zero(2, 2), "G4")
        dual = TorusData(1, -t.I.transpose(), t.G.inverse(),
                         RatMatrix.zero(2, 2), "G4-dual")
        out = search_relation(t, dual, "iso", 2)
        assert out.found
        full_swap = RatMatrix.from_blocks([
            [RatMatrix.zero(2, 2), RatMatrix.identity(2)],
            [RatMatrix.identity(2), RatMatrix.zero(2, 2)]])
        assert out.certificate.map.g in (full_swap, -full_swap)

    def test_none_within_bound_for_distinct_spectra(self, square1, stretched1):
        out = search_relation(square1, stretched1, "iso", 3)
        assert not out.found
        assert out.exhausted

    def test_certificates_reverify(self, square1):
        out = search_relation(square1, square1, "iso", 1)
        assert out.found
        assert verify_map(out.certificate.map).valid

    def test_mirror_composition_is_iso(self, square1):
        first = search_relation(square1, square1, "mirror", 2).certificate.map
        second = search_relation(square1, square1, "mirror", 2).certificate.map
        comp = LatticeMap(second.g * first.g, square1, square1, "iso")
        assert verify_map(comp).valid

    @pytest.mark.parametrize("d,ops", [
        (1, [((0, 1), 1)]),
        (1, [((1, 0), -2)]),
        (2, [((0, 2), 1), ((3, 1), 1)]),
    ])
    def test_basis_changed_pairs_are_certified(self, d, ops):
        # t2 is t1 rewritten in another lattice basis, so an isomorphism
        # certificate must exist and should be found at small height
        t1 = square_torus(d)
        n = 2 * d
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), c in ops:
            for k in range(n):
                u[i][k] += c * u[j][k]
        big_u = RatMatrix(u)
        t2 = TorusData(d, big_u.inverse() * t1.I * big_u,
                       big_u.transpose() * t1.G * big_u,
                       big_u.transpose() * t1.B * big_u, "rebased")
        out = search_relation(t1, t2, "iso", 2)
        assert out.found
        assert verify_map(out.certificate.map).valid

    def test_found_search_validates_each_torus_twice(self, monkeypatch, square1):
        # intertwiner_space and verify_map validate only through doubled()
        from flattori import torus
        seen = []
        original = torus.validate
        monkeypatch.setattr(torus, "validate", lambda t: seen.append(t.label) or original(t))
        assert search_relation(square1, square1, "mirror", 2).found
        assert seen == ["square"] * 4
        bad = TorusData(1, RatMatrix.identity(2), RatMatrix.identity(2),
                        RatMatrix.zero(2, 2), "bad")
        for t1, t2 in ((bad, square1), (square1, bad)):
            with pytest.raises(ValidationError, match="invalid torus 'bad'"):
                intertwiner_space(t1, t2, "iso")

    def test_budget_exceeded_carries_progress(self, square1, stretched1):
        from flattori.errors import BudgetExceededError
        with pytest.raises(BudgetExceededError) as err:
            search_relation(square1, stretched1, "iso", 3, node_budget=100)
        assert err.value.nodes_used == 100
        assert err.value.budget == 100


class TestSpectrumFingerprint:
    def test_height_zero(self, square1):
        assert spectrum_fingerprint(square1, 0) == ((0, 0, 0),)

    def test_square_height_one_multiset(self, square1):
        fp = spectrum_fingerprint(square1, 1)
        assert len(fp) == 3 ** 4
        # frozen from the enumeration: pure unit windings and momenta give
        # (0, 1/2, 1/2) with multiplicity 8
        assert sum(1 for t in fp if t == (0, Q(1, 2), Q(1, 2))) == 8

    def test_distinguishes_stretched_from_square(self, square1, stretched1):
        assert spectrum_fingerprint(square1, 1) != spectrum_fingerprint(stretched1, 1)

    def test_iso_certificate_preserves_triples(self, square1):
        from flattori.torus import ChargeVector, zero_mode_momenta, q_value
        from itertools import product

        # self-iso of the square torus, plus an iso onto a rebased copy
        u = RatMatrix([[1, 1], [0, 1]])
        rebased = TorusData(1, u.inverse() * square1.I * u,
                            u.transpose() * square1.G * u,
                            u.transpose() * square1.B * u, "rebased")
        pairs = [(square1, square1), (square1, rebased)]
        for t1, t2 in pairs:
            g = search_relation(t1, t2, "iso", 2).certificate.map.g
            for coords in product(range(-3, 4), repeat=4):
                c = ChargeVector(coords[:2], coords[2:])
                image = g.apply(coords)
                ci = ChargeVector(tuple(int(x) for x in image[:2]),
                                  tuple(int(x) for x in image[2:]))
                z1 = zero_mode_momenta(t1, c)
                z2 = zero_mode_momenta(t2, ci)
                assert (q_value(c), z1.p2_half, z1.pbar2_half) == \
                       (q_value(ci), z2.p2_half, z2.pbar2_half)


def _random_torus_with_b(seed, d):
    t = random_valid_torus(random.Random(seed), d, b_bound=3)
    assume(any(x for row in t.B.entries for x in row))
    return t


def _reference_fingerprint(t, height):
    """The fingerprint built charge by charge from the public per-charge API."""
    triples = []
    for coords in product(range(-height, height + 1), repeat=2 * t.rank):
        c = ChargeVector(coords[:t.rank], coords[t.rank:])
        z = zero_mode_momenta(t, c)
        triples.append((q_value(c), z.p2_half, z.pbar2_half))
    return tuple(sorted(triples))


class TestHoistedFingerprint:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([(1, 0), (1, 1), (2, 0)]))
    def test_matches_per_charge_reference(self, seed, window):
        d, height = window
        t = _random_torus_with_b(seed, d)
        fp = spectrum_fingerprint(t, height)
        assert fp == _reference_fingerprint(t, height)
        assert all(type(x) is Fraction for triple in fp for x in triple)

    # The whole d=2 height-1 window (6561 charges) is too slow for the
    # per-charge reference, so its charges are checked one at a time.
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32), st.lists(st.integers(-1, 1), min_size=8, max_size=8))
    def test_d2_height_one_charges_match_zero_modes(self, seed, coords):
        t = _random_torus_with_b(seed, 2)
        p_form, pbar_form, den = _half_norm_forms(t)
        z = zero_mode_momenta(t, ChargeVector(tuple(coords[:4]), tuple(coords[4:])))
        assert Fraction(_quadratic(p_form, coords), den) == z.p2_half
        assert Fraction(_quadratic(pbar_form, coords), den) == z.pbar2_half


class TestChiralTransports:
    def test_square_swap_transports(self, square1):
        m = LatticeMap(E1_SWAP, square1, square1, "mirror")
        o_l, o_r = chiral_transports(m)
        assert o_l == RatMatrix.diag([-1, 1])
        assert o_r == RatMatrix.identity(2)

    def test_transports_are_isometries(self, rng):
        from flattori.tduality import find_lagrangian_splitting, mirror_via_tduality
        for d in (1, 2):
            t = square_torus(d)
            mr = mirror_via_tduality(t, find_lagrangian_splitting(t, 1))
            o_l, o_r = chiral_transports(mr.duality_map)
            g1, g2 = t.G, mr.mirror.G
            assert o_l.transpose() * g2 * o_l == g1
            assert o_r.transpose() * g2 * o_r == g1
