"""T-duality: splittings, the mirror construction, and round trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_splitting
from flattori._record import failures
from flattori.equivalence import LatticeMap, search_relation, verify_map
from flattori.errors import ValidationError
from flattori.exactlinear import Q, RatMatrix
from flattori.tduality import (LagrangianSplitting, _isotropic_complement,
                               find_lagrangian_splitting, mirror_via_tduality,
                               splitting_report)
from flattori.torus import TorusData, omega, random_valid_torus, square_torus, validate


class TestFindSplitting:
    def test_square_d1(self, square1):
        s = find_lagrangian_splitting(square1)
        assert s.a_basis == ((1, 0),)
        assert s.b_basis == ((0, 1),)

    def test_square_d2_pairs_across_blocks(self, square2):
        s = find_lagrangian_splitting(square2)
        assert s.a_basis == ((1, 0, 0, 0), (0, 0, 1, 0))
        assert s.b_basis == ((0, 1, 0, 0), (0, 0, 0, 1))

    def test_scaled_omega_still_splits(self):
        t = TorusData(1, square_torus(1).I, RatMatrix.diag([2, 2]),
                      RatMatrix.zero(2, 2))
        s = find_lagrangian_splitting(t)
        assert s is not None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 12),
           st.sampled_from(["generic", "omega", "zero"]), st.fractions(-3, 3, max_denominator=3))
    def test_construction_splits_every_torus(self, seed, d, steps, b_kind, c):
        # steps random shears rebase the torus; B generic, c omega or zero
        t = random_valid_torus(random.Random(seed), d, steps=steps, scale_bound=5)
        b = {"generic": t.B, "omega": c * omega(t), "zero": RatMatrix.zero(2 * d, 2 * d)}
        t = TorusData(d, t.I, t.G, b[b_kind], "drawn")
        s = find_lagrangian_splitting(t)
        assert not failures(splitting_report(t, s))
        mr = mirror_via_tduality(t, s)
        assert not failures(mr.recovery_report)
        assert verify_map(mr.duality_certificate.map).valid

    def test_complement_may_need_a_non_integral_shift(self):
        # omega pairs A = (e0, e1) with (e2, e3) through 2 id and has
        # omega(e2, e3) = 1: shifting e2, e3 along A changes that pairing by
        # even numbers only, so no shift makes the complement isotropic
        w = [[0, 0, -2, 0], [0, 0, 0, -2], [2, 0, 0, 1], [0, 2, -1, 0]]
        a = [(1, 0, 0, 0), (0, 1, 0, 0)]
        assert _isotropic_complement(w, a) is None
        w[2][3], w[3][2] = 2, -2
        c = _isotropic_complement(w, a)
        assert [x[2:] for x in c] == [(1, 0), (0, 1)]
        assert sum(c[0][i] * w[i][j] * c[1][j] for i in range(4) for j in range(4)) == 0

    @pytest.mark.parametrize("a, b", [([(1, 1)], [(1, -1)]), ([(1, 0)], [(0, 2)])])
    def test_reports_non_unimodular_splitting(self, square1, a, b):
        s = LagrangianSplitting.from_vectors(a, b)
        names = {c.name: c.ok for c in splitting_report(square1, s)}
        assert names == {"shape": True, "unimodular": False,
                         "A_isotropic": True, "B_isotropic": True}

    def test_reports_check_isotropy(self, square2):
        bad = LagrangianSplitting.from_vectors(
            [(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)])
        names = {c.name: c.ok for c in splitting_report(square2, bad)}
        assert not names["A_isotropic"]


class TestMirrorConstruction:
    def test_validates_and_builds_each_torus_once(self, torus_work):
        # the torus and the mirror: one validation and one doubled build
        # each, however often the construction reads them
        t = square_torus(2, "square2")
        mr = mirror_via_tduality(t, find_lagrangian_splitting(t))
        assert mr.duality_certificate.valid
        assert torus_work.validated == ["square2", "square2|mirror"]
        assert torus_work.built == 2

    def test_square_is_self_mirror(self, square1):
        s = find_lagrangian_splitting(square1)
        mr = mirror_via_tduality(square1, s)
        assert mr.mirror.I == square1.I
        assert mr.mirror.G == square1.G
        assert mr.mirror.B == square1.B
        swap = RatMatrix([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
        assert mr.duality_certificate.map.g == swap
        assert not failures(mr.recovery_report)

    def test_moduli_exchange_at_radius(self):
        # area R^2 with square complex structure dualizes to area 1 with
        # complex modulus R^2 (derived by the block-inversion oracle)
        t = TorusData(1, square_torus(1).I, RatMatrix.diag([4, 4]),
                      RatMatrix.zero(2, 2), "R4")
        s = find_lagrangian_splitting(t)
        mr = mirror_via_tduality(t, s)
        assert mr.mirror.G == RatMatrix.diag([Q(1, 4), 4])
        assert mr.mirror.I == RatMatrix([[0, -4], [Q(1, 4), 0]])
        assert omega(mr.mirror) == RatMatrix([[0, -1], [1, 0]])

    def test_product_torus_mirrors_blockwise(self, square2):
        s = find_lagrangian_splitting(square2)
        mr = mirror_via_tduality(square2, s)
        assert not failures(validate(mr.mirror))
        # the product of two unit square tori is again self-mirror up to
        # the splitting relabeling; metric stays the identity
        assert mr.mirror.G == RatMatrix.identity(4)
        assert mr.mirror.B == RatMatrix.zero(4, 4)

    def test_duality_certificate_verifies(self, square2):
        tori = [square_torus(1), square2]
        for t in tori:
            s = find_lagrangian_splitting(t)
            mr = mirror_via_tduality(t, s)
            assert verify_map(mr.duality_certificate.map).valid

    def test_invalid_splitting_rejected(self, square2):
        bad = LagrangianSplitting.from_vectors(
            [(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)])
        with pytest.raises(ValidationError):
            mirror_via_tduality(square2, bad)

    def test_nonzero_bfield_round_trips_through_recovery(self, square1):
        b = RatMatrix([[0, Q(1, 2)], [Q(-1, 2), 0]])
        t = TorusData(1, square1.I, square1.G, b, "with-B")
        s = find_lagrangian_splitting(t)
        mr = mirror_via_tduality(t, s)
        assert not failures(validate(mr.mirror))
        assert not failures(mr.recovery_report)
        assert verify_map(mr.duality_certificate.map).valid


class TestRebasing:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 2),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.sampled_from([-2, -1, 1, 2])), max_size=6))
    def test_duality_map_composes_with_rebasing(self, seed, d, shears):
        # T' is T in the lattice basis u; diag(u, u^-t) is an iso T' -> T, so
        # following it by the duality map of T is a mirror map T' -> mirror(T)
        t = random_valid_torus(random.Random(seed), d, steps=6, scale_bound=5)
        n = 2 * d
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for i, j, c in shears:
            if i % n != j % n:
                rows[i % n] = [x + c * y for x, y in zip(rows[i % n], rows[j % n])]
        u = RatMatrix(rows)
        rebased = TorusData(d, u.inverse() * t.I * u, u.transpose() * t.G * u,
                            u.transpose() * t.B * u, "rebased")
        z = RatMatrix.zero(n, n)
        iso = LatticeMap(RatMatrix.from_blocks([[u, z], [z, u.inverse().transpose()]]),
                         rebased, t, "iso")
        assert verify_map(iso).valid
        mr = mirror_via_tduality(t, find_lagrangian_splitting(t))
        composed = LatticeMap(mr.duality_certificate.map.g * iso.g, rebased, mr.mirror, "mirror")
        assert verify_map(composed).valid


class TestRoundTrip:
    @pytest.mark.parametrize("d", [1, 2])
    def test_double_dual_is_isomorphic(self, d):
        t = square_torus(d)
        s = find_lagrangian_splitting(t)
        mr = mirror_via_tduality(t, s)
        back = mirror_via_tduality(mr.mirror, unit_splitting(d))
        out = search_relation(t, back.mirror, "iso", 2)
        assert out.found

    def test_involution_with_metric_moduli(self):
        t = TorusData(1, square_torus(1).I, RatMatrix.diag([9, 9]),
                      RatMatrix.zero(2, 2), "R9")
        s = find_lagrangian_splitting(t)
        mr = mirror_via_tduality(t, s)
        back = mirror_via_tduality(mr.mirror, unit_splitting(1))
        assert back.mirror.G == t.G
        assert back.mirror.I == t.I


class TestHodgeRotation:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mirror_pairs_relate_diamonds(self, d):
        from flattori.cohomology import hodge_diamond
        t = square_torus(d)
        s = find_lagrangian_splitting(t)
        mr = mirror_via_tduality(t, s)
        h1 = hodge_diamond(t)
        h2 = hodge_diamond(mr.mirror)
        for p in range(d + 1):
            for q in range(d + 1):
                assert h1.h[p][q] == h2.h[d - p][q]
