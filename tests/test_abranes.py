"""Coisotropic brane acceptance on flat four- and six-tori."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flattori import abranes
from flattori.abranes import (AffineBrane, _plus_i_covectors, anomaly_check_affine,
                              check_abrane, characteristic_foliation, coisotropy_witness,
                              holomorphic_volume, wedge_characterization)
from flattori.errors import ValidationError
from flattori.exactlinear import RatMatrix
from flattori.exterior import GAUSS_I
from flattori.torus import TorusData, omega, random_valid_torus


def unit(n, k):
    return tuple(1 if i == k else 0 for i in range(n))


@pytest.fixture
def t4():
    # complex structure chosen so omega = e1^e2 + e3^e4 on the nose
    i = RatMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    t = TorusData(2, i, RatMatrix.identity(4), RatMatrix.zero(4, 4), "T4")
    assert omega(t) == RatMatrix([[0, 1, 0, 0], [-1, 0, 0, 0],
                                  [0, 0, 0, 1], [0, 0, -1, 0]])
    return t


@pytest.fixture
def space_filling(t4):
    f = RatMatrix([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]])
    return AffineBrane(t4, tuple(unit(4, k) for k in range(4)), f)


class TestFoliation:
    def test_whole_torus(self, t4, space_filling):
        fol = characteristic_foliation(space_filling)
        assert fol.l_basis == ()
        assert fol.n_rank == 4
        assert fol.sigma == omega(t4)

    def test_lagrangian(self, t4):
        b = AffineBrane(t4, (unit(4, 0), unit(4, 2)), RatMatrix.zero(2, 2))
        fol = characteristic_foliation(b)
        assert len(fol.l_basis) == 2
        assert fol.n_rank == 0

    def test_codimension_one(self, t4):
        b = AffineBrane(t4, (unit(4, 0), unit(4, 1), unit(4, 2)),
                        RatMatrix.zero(3, 3))
        fol = characteristic_foliation(b)
        assert fol.l_basis == ((0, 0, 1),)
        assert fol.n_rank == 2

    def test_non_coisotropic_witness(self):
        # an isotropic 2-plane that is not Lagrangian inside T^6
        i3 = RatMatrix([[0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0],
                        [0, 0, 0, 1, 0, 0], [0, 0, -1, 0, 0, 0],
                        [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, -1, 0]])
        t6 = TorusData(3, i3, RatMatrix.identity(6), RatMatrix.zero(6, 6))
        b = AffineBrane(t6, (unit(6, 0), unit(6, 2)), RatMatrix.zero(2, 2))
        assert coisotropy_witness(b) is not None
        with pytest.raises(ValidationError):
            characteristic_foliation(b)


class TestCheckAbrane:
    def test_space_filling_accepted_with_k1(self, space_filling):
        rep = check_abrane(space_filling)
        assert rep.accepted
        assert rep.k == 1
        assert rep.foliation.n_rank == 4 * rep.k
        j = rep.transverse_j
        assert j * j == -RatMatrix.identity(4)

    def test_lagrangian_flat_accepted_k0(self, t4):
        b = AffineBrane(t4, (unit(4, 0), unit(4, 2)), RatMatrix.zero(2, 2))
        rep = check_abrane(b)
        assert rep.accepted and rep.k == 0

    def test_all_lagrangians_with_curvature_rejected_by_condition_ii(self, t4):
        f = RatMatrix([[0, 1], [-1, 0]])
        for pair in combinations(range(4), 2):
            b = AffineBrane(t4, (unit(4, pair[0]), unit(4, pair[1])), f)
            if coisotropy_witness(b) is not None:
                continue  # not Lagrangian
            rep = check_abrane(b)
            assert not rep.accepted
            assert rep.rejection == "curvature_annihilates_foliation"

    def test_all_dim3_subtori_rejected_by_dimension_law(self, t4):
        for triple in combinations(range(4), 3):
            b = AffineBrane(t4, tuple(unit(4, k) for k in triple),
                            RatMatrix.zero(3, 3))
            rep = check_abrane(b)
            assert not rep.accepted
            assert rep.rejection == "dimension_law"

    def test_bad_curvature_fails_condition_iii(self, t4):
        f = RatMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        b = AffineBrane(t4, tuple(unit(4, k) for k in range(4)), f)
        rep = check_abrane(b)
        assert rep.rejection == "transverse_complex_structure"

    def test_k0_acceptance_forces_zero_curvature(self, t4):
        for pair in combinations(range(4), 2):
            for fval in (0, 1):
                f = RatMatrix([[0, fval], [-fval, 0]])
                b = AffineBrane(t4, (unit(4, pair[0]), unit(4, pair[1])), f)
                if coisotropy_witness(b) is not None:
                    continue
                rep = check_abrane(b)
                if rep.accepted and rep.k == 0:
                    assert f == RatMatrix.zero(2, 2)

    def test_accepted_types_are_20_plus_02(self, space_filling):
        rep = check_abrane(space_filling)
        j = rep.transverse_j
        sigma, f = rep.foliation.sigma, rep.foliation.f
        assert j.transpose() * sigma * j == -sigma
        assert j.transpose() * f * j == -f

    def test_complement_choice_irrelevant(self, t4, space_filling):
        branes = [space_filling,
                  AffineBrane(t4, (unit(4, 0), unit(4, 1), unit(4, 2)),
                              RatMatrix.zero(3, 3)),
                  AffineBrane(t4, (unit(4, 0), unit(4, 2)), RatMatrix.zero(2, 2))]
        for b in branes:
            # the twin lists Y backwards, so its complement indices stand for
            # the last free directions of b rather than the first
            f = [row[::-1] for row in b.curvature.entries[::-1]]
            twin = AffineBrane(t4, b.y_basis[::-1], RatMatrix(f))
            first, second = check_abrane(b), check_abrane(twin)
            assert first.accepted == second.accepted
            assert first.k == second.k
            assert first.rejection == second.rejection

    def test_imprimitive_basis_rejected(self, t4):
        with pytest.raises(ValidationError, match="do not span a primitive sublattice"):
            check_abrane(AffineBrane(t4, ((2, 0, 0, 0), (0, 1, 0, 0)),
                                     RatMatrix.zero(2, 2)))

    @pytest.mark.parametrize("y", [((1, 0, 0, 0), (2, 0, 0, 0)),
                                   ((1, 1, 0, 0), (0, 1, 1, 0), (1, 2, 1, 0))])
    def test_dependent_basis_rejected(self, t4, y):
        # dependence is reported first, though these also span no primitive sublattice
        with pytest.raises(ValidationError, match="linearly dependent"):
            check_abrane(AffineBrane(t4, y, RatMatrix.zero(len(y), len(y))))


class TestWedgeCharacterization:
    def test_accepted_example_reports_disagreement(self, space_filling):
        rep = wedge_characterization(space_filling)
        assert rep.k == 1
        assert rep.first_vanishing_power == 2
        assert rep.condition_iii_holds
        # the literal power conditions as stated do not match the exact
        # computation; the report records the disagreement rather than
        # asserting an index convention
        assert not rep.stated_conditions_hold
        assert not rep.agreement

    def test_lagrangian_vacuous_agreement(self, t4):
        b = AffineBrane(t4, (unit(4, 0), unit(4, 2)), RatMatrix.zero(2, 2))
        rep = wedge_characterization(b)
        assert rep.k == 0
        assert rep.stated_conditions_hold
        assert rep.agreement

    def test_failing_brane_compared(self, t4):
        f = RatMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        b = AffineBrane(t4, tuple(unit(4, k) for k in range(4)), f)
        rep = wedge_characterization(b)
        assert not rep.condition_iii_holds
        assert rep.vanishing_powers  # powers computed for comparison


class TestRandomizedComparison:
    def test_wedge_verdicts_recorded_across_random_branes(self, t4, rng):
        # the wedge-power report is compared against condition (iii) on a
        # randomized suite; disagreement is recorded, never asserted away
        agreements = []
        tried = 0
        while tried < 40:
            r = rng.choice((2, 4))
            basis = []
            for _ in range(r):
                basis.append(tuple(rng.randint(-1, 1) for _ in range(4)))
            y = RatMatrix([[basis[j][i] for j in range(r)] for i in range(4)])
            if y.rank() != r:
                continue
            f_entries = [[0] * r for _ in range(r)]
            for i in range(r):
                for j in range(i + 1, r):
                    f_entries[i][j] = rng.randint(-1, 1)
                    f_entries[j][i] = -f_entries[i][j]
            try:
                b = AffineBrane(t4, tuple(basis), RatMatrix(f_entries))
                rep = wedge_characterization(b)
            except ValidationError:
                tried += 1
                continue
            tried += 1
            agreements.append(rep.agreement)
            assert rep.condition_iii_holds == check_abrane(b).accepted
        assert agreements  # at least some branes reached the comparison


class TestAnomaly:
    def test_abrane_check_flow_validates_the_torus_once(self, monkeypatch, torus_work,
                                                        space_filling):
        # the abrane-check command reads these three on one brane; the
        # acceptance conditions run once, for the brane's cached report
        witnesses = []
        witness = abranes.coisotropy_witness
        monkeypatch.setattr(abranes, "coisotropy_witness",
                            lambda b: witnesses.append(b) or witness(b))
        assert space_filling.acceptance.accepted
        anomaly_check_affine(space_filling)
        wedge_characterization(space_filling)
        assert witnesses == [space_filling]
        assert torus_work.validated == ["T4"]
        assert torus_work.built == 0

    def test_space_filling_top_coefficient(self, space_filling):
        rep = anomaly_check_affine(space_filling)
        assert rep.h_constant and rep.bockstein_class_zero
        assert rep.top_coefficient

    def test_lagrangian_maslov_trivial(self, t4):
        b = AffineBrane(t4, (unit(4, 0), unit(4, 2)), RatMatrix.zero(2, 2))
        rep = anomaly_check_affine(b)
        assert rep.bockstein_class_zero
        assert rep.top_coefficient

    def test_rejected_brane_not_accepted_here(self, t4):
        b = AffineBrane(t4, tuple(unit(4, k) for k in range(3)),
                        RatMatrix.zero(3, 3))
        with pytest.raises(ValidationError):
            anomaly_check_affine(b)

    # the realified kernel over Q, halved, is the oracle's echelon kernel of
    # I^T - i over Q(i), vector by vector
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3))
    def test_covectors_are_the_oracle_echelon_kernel(self, gauss_eigenvectors, seed, d):
        t = random_valid_torus(random.Random(seed), d)
        assert _plus_i_covectors(t) == gauss_eigenvectors(t.I.transpose().entries, GAUSS_I)

    def test_holomorphic_volume_has_top_antiholomorphic_pair(self, t4):
        om = holomorphic_volume(t4)
        assert om.is_homogeneous(2)
        assert om
