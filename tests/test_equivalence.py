"""Relation certificates: verification, intertwiner spaces, bounded search."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm, prod
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import diag, random_valid_torus, square_torus
from flattori import kernels_py
from flattori._intkernel import integer_kernel, spans_direct_summand
from flattori._intlat import (frobenius_gram, integral_coordinate_lattice, pair_reduce,
                              split_pairing)
from flattori._rational import Q
from flattori._record import failures
from flattori.equivalence import (DEFAULT_NODE_BUDGET, KINDS, LATTICE_ISOMETRY, RELATIONS,
                                  LatticeMap, _constraint_rows, _lattice_class,
                                  intertwiner_space, search_relation, spectrum_fingerprint,
                                  verify_map)
from flattori.errors import ValidationError
from flattori.exactlinear import RatMatrix, rat_str
from flattori.isometry import NARAIN_ISOMETRY, short_vectors
from flattori.tduality import find_lagrangian_splitting, mirror_via_tduality
from flattori.torus import TorusData, doubled, narain_form, zero_mode_momenta
from test_cli import OPEN1, OPEN2, REBASED1


def intertwiner_rows(t1, t2, kind):
    """The basis of :func:`~flattori.equivalence.intertwiner_space` as flat int rows."""
    return pair_reduce(integral_coordinate_lattice(_constraint_rows(t1, t2, kind)))


E1_SWAP = RatMatrix([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
E1_SHEAR = RatMatrix([[1, 1], [0, 1]])
STRETCHED2 = TorusData(
    2, RatMatrix([[0, -2, 0, 0], [Q(1, 2), 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    diag([1, 4, 1, 1]), RatMatrix.zero(4, 4), "stretched2")


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
        assert failures(cert.checks)[0] == "intertwines_calI"

    def test_non_unimodular_rejected(self, square1):
        with pytest.raises(ValidationError):
            verify_map(LatticeMap(diag([2, 1, 1, 1]), square1, square1, "iso"))

    # Bareiss stops at three pivots, the last of them 1: det g = 0 all the same
    def test_rank_deficient_map_with_last_pivot_one_rejected(self, square1):
        with pytest.raises(ValidationError, match="^lattice map is not unimodular$"):
            LatticeMap(diag([1, 1, 1, 0]), square1, square1, "iso")

    def test_sign_flip_invariance(self, square1):
        for kind, g in (("mirror", E1_SWAP), ("iso", RatMatrix.identity(4))):
            plus = verify_map(LatticeMap(g, square1, square1, kind))
            minus = verify_map(LatticeMap(-g, square1, square1, kind))
            assert plus.valid and minus.valid

    def test_derived_eq_identity(self, square1):
        cert = verify_map(LatticeMap(RatMatrix.identity(4), square1, square1,
                                     "derived_eq"))
        assert cert.valid


def _mirror(t):
    return mirror_via_tduality(t, find_lagrangian_splitting(t))


def _basis_change_iso(t, u):
    """The iso from ``t`` to ``t`` in the lattice basis ``u``: windings move by
    u^-1 and momenta by u^t."""
    z = RatMatrix.zero(t.rank, t.rank)
    g = RatMatrix.from_blocks([[u.inverse(), z], [z, u.transpose()]])
    return LatticeMap(g, t, _in_basis(t, u), "iso")


class TestCertificateAlgebra:
    """Certificates compose and invert: mirror twice is iso, iso and mirror in
    either order is mirror, and the inverse of a certificate is a certificate
    of the same kind back."""

    @pytest.mark.parametrize("seed", range(50))
    def test_mirror_certificates_compose_and_invert(self, seed):
        t = random_valid_torus(random.Random(seed), 1 + seed % 2, b_bound=3)
        m1 = _mirror(t)
        m2 = _mirror(m1.mirror)
        g1, g2 = m1.duality_certificate.map.g, m2.duality_certificate.map.g
        assert verify_map(LatticeMap(g2 * g1, t, m2.mirror, "iso")).valid
        assert verify_map(LatticeMap(g1.inverse(), m1.mirror, t, "mirror")).valid

    @pytest.mark.parametrize("seed", range(50))
    def test_isos_compose_with_mirrors_and_invert(self, seed):
        rng = random.Random(seed)
        t = random_valid_torus(rng, 1 + seed % 2, b_bound=3)
        iso = _basis_change_iso(t, _unimodular(t.rank, rng))
        assert verify_map(iso).valid
        assert verify_map(LatticeMap(iso.g.inverse(), iso.target, t, "iso")).valid
        # mirror after iso: t -> t rebased -> its mirror
        dual = _mirror(iso.target).duality_certificate.map
        assert verify_map(LatticeMap(dual.g * iso.g, t, dual.target, "mirror")).valid
        # iso after mirror: t -> its mirror -> the mirror rebased
        dual = _mirror(t).duality_certificate.map
        iso = _basis_change_iso(dual.target, _unimodular(t.rank, rng))
        assert verify_map(LatticeMap(iso.g * dual.g, t, iso.target, "mirror")).valid

    # Round trip on tori with a generic B: the search finds the mirror that
    # mirror_via_tduality builds, and the certificate it reports, followed
    # by the inverse of the construction's own, is an iso automorphism of T.
    # Seed 0 at d = 2 and at d = 3 are the tori of the CI's check-mirror step.
    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32))
    @example(seed=0)
    def test_search_certifies_the_constructed_mirror(self, d, seed):
        t = random_valid_torus(random.Random(seed), d, steps=10, scale_bound=5)
        built = _mirror(t)
        out = search_relation(t, built.mirror, "mirror", 1)
        assert out.found
        g = built.duality_certificate.map.g.inverse() * out.certificate.map.g
        assert verify_map(LatticeMap(g, t, t, "iso")).valid


    # iso after iso is iso, and derived_eq after derived_eq is derived_eq.  An
    # iso step rebases the torus.  A derived_eq step first replaces B (calItilde
    # reads only I) and, at d = 1, shifts the momenta by b w with b = c e1^e2,
    # which commutes with calItilde as b I + I^t b = 0; then it rebases.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]),
           st.sampled_from(["iso", "derived_eq"]))
    def test_composites_of_one_kind_verify(self, seed, d, kind):
        rng = random.Random(seed)
        n = 2 * d

        def step(t):
            shift = RatMatrix.identity(2 * n)
            if kind == "derived_eq":
                b = [[0] * n for _ in range(n)]
                for i, j in combinations(range(n), 2):
                    b[i][j] = Q(rng.randint(-3, 3), rng.randint(1, 2))
                    b[j][i] = -b[i][j]
                t = TorusData(d, t.I, t.G, RatMatrix(b), "regauged")
                if d == 1:
                    c = rng.randint(-2, 2)
                    shift = RatMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, c, 1, 0], [-c, 0, 0, 1]])
            m = _basis_change_iso(t, _unimodular(n, rng))
            return m.g * shift, m.target

        t1 = random_valid_torus(rng, d, b_bound=3)
        g1, t2 = step(t1)
        g2, t3 = step(t2)
        for g, source, target in ((g1, t1, t2), (g2, t2, t3), (g2 * g1, t1, t3)):
            assert verify_map(LatticeMap(g, source, target, kind)).valid


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
        from flattori.torus import doubled
        for _ in range(6):
            t = random_valid_torus(rng, rng.choice((1, 2)))
            ds = doubled(t)
            assert ds.calI * ds.calJ == ds.calJ * ds.calI

    def test_basis_elements_are_integral(self, square1):
        for m in intertwiner_space(square1, square1, "mirror"):
            assert m.is_integral()

    # The basis spans every integral solution: its elements are integral
    # solutions, as many as the solution space has dimensions, and together
    # they span a direct summand of Z^(n^2), so no integral solution lies
    # outside their integer span.
    @settings(max_examples=24, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.sampled_from(KINDS),
           st.booleans())
    def test_basis_is_the_full_integer_lattice(self, seed, d, kind, rebase):
        rng = random.Random(seed)
        t1 = random_valid_torus(rng, d, b_bound=3)
        t2 = _rebased(t1, rng) if rebase else random_valid_torus(rng, d, b_bound=3)
        basis = intertwiner_space(t1, t2, kind)
        d1, d2 = doubled(t1), doubled(t2)
        for m in basis:
            assert m.is_integral()
            for _, src, tgt in RELATIONS[kind]:
                assert m * getattr(d1, src) == getattr(d2, tgt) * m
        n = 4 * d
        flat = [[int(x) for row in m.entries for x in row] for m in basis]
        assert spans_direct_summand(flat)
        assert len(flat) == n * n - RatMatrix(_constraint_rows(t1, t2, kind)).rank()

    # The sha256 of the flattened basis of two d = 3 intertwiner spaces, both
    # between the two draws of random_valid_torus(Random(1), 3, steps=2): the
    # derived_eq space has rank k = 72.
    @pytest.mark.parametrize("kind, k, sha256", [
        ("iso", 36, "9278b3c2413d5c500287c62ca6abe1c6ba6c90007fc510dce9370cd8505cef6f"),
        ("derived_eq", 72, "940d8dc40b8071bb752687a51064b360350b3d4fdc6247b41649ecdab53f6baa"),
    ])
    def test_d3_bases_are_frozen(self, kind, k, sha256):
        rng = random.Random(1)
        t1, t2 = (random_valid_torus(rng, 3, steps=2) for _ in range(2))
        flat = [[int(x) for row in m.entries for x in row]
                for m in intertwiner_space(t1, t2, kind)]
        assert len(flat) == k
        assert hashlib.sha256(json.dumps(flat).encode()).hexdigest() == sha256


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
        t = TorusData(1, square_torus(1).I, diag([4, 4]),
                      RatMatrix.zero(2, 2), "G4")
        dual = TorusData(1, -t.I.transpose(), t.G.inverse(),
                         RatMatrix.zero(2, 2), "G4-dual")
        out = search_relation(t, dual, "iso", 2)
        assert out.found
        full_swap = RatMatrix.from_blocks([
            [RatMatrix.zero(2, 2), RatMatrix.identity(2)],
            [RatMatrix.identity(2), RatMatrix.zero(2, 2)]])
        assert out.certificate.map.g in (full_swap, -full_swap)

    def test_distinct_spectra_are_refuted(self, square1, stretched1):
        out = search_relation(square1, stretched1, "iso", 3)
        assert not out.found
        assert (out.verdict, out.certificate, out.last_complete_height) == ("refuted", None, None)

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

    def test_found_search_validates_and_builds_each_torus_once(self, torus_work, square1):
        # the validation report, G^-1 and the doubled structures are cached on
        # the torus; the only other inverse is of R1, the generators' integer
        # rows, once per search that reaches placement
        rebased = TorusData(1, E1_SHEAR.inverse() * square1.I * E1_SHEAR,
                            E1_SHEAR.transpose() * square1.G * E1_SHEAR,
                            E1_SHEAR.transpose() * square1.B * E1_SHEAR, "rebased")
        torus_work.inverted.clear()
        assert search_relation(square1, rebased, "iso", 2).found
        assert search_relation(square1, rebased, "mirror", 2).found
        assert torus_work.validated == ["square", "rebased"]
        assert torus_work.built == 2
        assert torus_work.inverted[:2] == [square1.G, rebased.G]
        assert [(m.rows, m.den) for m in torus_work.inverted[2:]] == [(4, 1), (4, 1)]
        bad = TorusData(1, RatMatrix.identity(2), RatMatrix.identity(2),
                        RatMatrix.zero(2, 2), "bad")
        for t1, t2 in ((bad, square1), (square1, bad)):
            for _ in range(2):
                with pytest.raises(ValidationError, match="invalid torus 'bad'"):
                    search_relation(t1, t2, "iso", 2)
        assert torus_work.validated == ["square", "rebased", "bad"]

    def test_budget_exceeded_carries_progress(self):
        # a derived_eq search may still end open: the lattices of open1 and
        # open2 agree, and the scan spends its budget
        out = search_relation(OPEN1, OPEN2, "derived_eq", 3, node_budget=7000)
        assert (out.verdict, out.found, out.certificate) == ("undecided", False, None)
        assert out.nodes_used == 7000
        # the derived_eq basis has 8 matrices: shell 1 holds 3^8 - 1 = 6560 candidates
        assert out.last_complete_height == 1

    # A derived_eq self pair is certified by the identity, before any lattice
    # is built: at d = 3 these two scans took 56,092 (s = 0) and 70,436
    # (s = 1) nodes.  A copy under another label is the same pair.
    @pytest.mark.parametrize("seed", [0, 1])
    def test_derived_self_pair_is_the_identity(self, seed):
        t = random_valid_torus(random.Random(seed), 3)
        copy = TorusData(3, t.I, t.G, t.B, "copy")
        for other in (t, copy):
            out = search_relation(t, other, "derived_eq", 1)
            assert (out.verdict, out.nodes_used) == ("found", 0)
            assert out.certificate.map.g == RatMatrix.identity(12)
            assert out.certificate.valid


PARTNERS = ("rebased", "mirror", "random")
CONTRADICTION = {"found", "refuted"}


def _partner(t, rng, how):
    """``t`` rebased, its mirror, or an unrelated random torus."""
    return (_rebased(t, rng) if how == "rebased" else _mirror(t).mirror if how == "mirror"
            else random_valid_torus(rng, t.d, steps=3, b_bound=3))


def _verdict(t1, t2, kind):
    verdict = search_relation(t1, t2, kind, 2, node_budget=5000).verdict
    assert kind == "derived_eq" or verdict in CONTRADICTION
    return verdict


class TestVerdictsPropagate:
    """Verdicts that must agree never come out one "found" and one "refuted".
    An iso or mirror verdict is always one of the two; a derived_eq one may
    stay open (none within bound or undecided)."""

    # An iso carries every relation with T3 across: T1 and its rebased copy T2
    # get compatible verdicts against T3 for every kind.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(KINDS), st.sampled_from(PARTNERS))
    def test_iso_tori_get_compatible_verdicts(self, seed, kind, how):
        rng = random.Random(seed)
        t1 = random_valid_torus(rng, 1, steps=3, b_bound=3)
        t2 = _rebased(t1, rng)
        t3 = _partner(t1, rng, how)
        assert {_verdict(t1, t3, kind), _verdict(t2, t3, kind)} != CONTRADICTION

    # check-mirror T1 T2 and check-iso T1 mirror(T2) decide the same relation.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(PARTNERS))
    def test_mirror_agrees_with_iso_to_the_mirror(self, seed, how):
        rng = random.Random(seed)
        t1 = random_valid_torus(rng, 1, steps=3, b_bound=3)
        t2 = _partner(t1, rng, how)
        assert {_verdict(t1, t2, "mirror"),
                _verdict(t1, _mirror(t2).mirror, "iso")} != CONTRADICTION


class TestSpectrumFingerprint:
    def test_norm_zero_is_empty(self, square1):
        assert spectrum_fingerprint(square1, 0) == ()

    def test_square_norm_two_multiset(self, square1):
        fp = spectrum_fingerprint(square1, 2)
        # one of each pair +-gamma: N is the identity, so the 8 unit charges
        # give (0, 1/2, 1/2) 4 times, and the 24 of norm 2 give 12 triples
        assert len(fp) == 16
        assert fp.count(("0", "1/2", "1/2")) == 4
        assert fp.count(("0", "1", "1")) == 8
        assert fp.count(("-2", "2", "0")) == fp.count(("2", "0", "2")) == 2

    def test_distinguishes_stretched_from_square(self, square1, stretched1):
        assert spectrum_fingerprint(square1, 2) != spectrum_fingerprint(stretched1, 2)

    # An iso and a T-duality both carry N and q across, so the ball's triples
    # do not see the lattice basis and are the same for a torus and its mirror.
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]))
    @example(0, 3)
    def test_basis_and_mirror_invariant(self, seed, d):
        rng = random.Random(seed)
        t = random_valid_torus(rng, d, steps=10, scale_bound=5)
        fp = spectrum_fingerprint(t, 2)
        assert spectrum_fingerprint(_rebased(t, rng), 2) == fp
        assert spectrum_fingerprint(_mirror(t).mirror, 2) == fp

    def test_iso_certificate_preserves_triples(self, square1):
        # self-iso of the square torus, plus an iso onto a rebased copy
        u = RatMatrix([[1, 1], [0, 1]])
        rebased = TorusData(1, u.inverse() * square1.I * u,
                            u.transpose() * square1.G * u,
                            u.transpose() * square1.B * u, "rebased")
        pairs = [(square1, square1), (square1, rebased)]
        for t1, t2 in pairs:
            g = search_relation(t1, t2, "iso", 2).certificate.map.g
            for coords in product(range(-3, 4), repeat=4):
                image = [int(x) for x in g.apply(coords)]
                _, _, *z1 = zero_mode_momenta(t1, coords[:2], coords[2:])
                _, _, *z2 = zero_mode_momenta(t2, image[:2], image[2:])
                assert (2 * sum(map(mul, coords[:2], coords[2:])), *z1) == \
                       (2 * sum(map(mul, image[:2], image[2:])), *z2)


def _random_torus_with_b(seed, d):
    t = random_valid_torus(random.Random(seed), d, b_bound=3)
    assume(any(x for row in t.B.entries for x in row))
    return t


def _ball_box(t, norm):
    """Radii of a box that holds the ball ``gamma^t N gamma <= norm``:
    ``gamma_i^2 <= norm (N^-1)_ii`` (Cauchy-Schwarz in the form N)."""
    inv = narain_form(t).inverse()
    return [isqrt(int(norm * inv.entries[i][i])) for i in range(2 * t.rank)]


def _reference_fingerprint(t, norm):
    """The ball's triples built charge by charge from the public per-charge
    API, over the box of :func:`_ball_box`: both of each pair +-gamma."""
    triples = []
    for coords in product(*(range(-r, r + 1) for r in _ball_box(t, norm))):
        w, m = coords[:t.rank], coords[t.rank:]
        _, _, p2_half, pbar2_half = zero_mode_momenta(t, w, m)
        if any(coords) and p2_half + pbar2_half <= norm:
            triples.append(tuple(map(rat_str, (Fraction(2 * sum(map(mul, w, m))), p2_half,
                                                pbar2_half))))
    return sorted(triples)


class TestHoistedFingerprint:
    # The listing holds one of each pair +-gamma, the reference both.  At
    # d = 2 the box of a random torus passes 10^4 charges even at norm 1, too
    # many for the per-charge reference, so it runs at d = 1.
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([0, 1, 3, 6]))
    def test_matches_per_charge_reference(self, seed, norm):
        t = _random_torus_with_b(seed, 1)
        assume(prod(2 * r + 1 for r in _ball_box(t, norm)) <= 5000)
        fp = spectrum_fingerprint(t, norm)
        assert sorted(fp + fp) == _reference_fingerprint(t, norm)

    # The whole d=2 height-1 window (6561 charges) is too slow for the
    # per-charge reference, so its charges are checked one at a time.
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32), st.lists(st.integers(-1, 1), min_size=8, max_size=8))
    def test_d2_height_one_charges_match_zero_modes(self, seed, coords):
        # the fingerprint reads both half-norms off the one Narain form:
        # p^2/2 = (gamma^t N gamma - q)/2 and pbar^2/2 = (gamma^t N gamma + q)/2
        t = _random_torus_with_b(seed, 2)
        q = 2 * sum(map(mul, coords[:4], coords[4:]))
        norm = sum(x * y for x, y in zip(coords, narain_form(t).apply(coords)))
        _, _, p2_half, pbar2_half = zero_mode_momenta(t, coords[:4], coords[4:])
        assert p2_half == (norm - q) / 2
        assert pbar2_half == (norm + q) / 2


def _in_basis(t, u):
    return TorusData(t.d, u.inverse() * t.I * u, u.transpose() * t.G * u,
                     u.transpose() * t.B * u, "rebased")


def _unimodular(n, rng, steps=3):
    """A random n x n unimodular matrix: a product of elementary shears."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            u[i][k] += c * u[j][k]
    return RatMatrix(u)


def _rebased(t, rng, steps=3):
    """``t`` written in a random lattice basis."""
    return _in_basis(t, _unimodular(t.rank, rng, steps))


# Tori whose doubled structures have non-integral entries: a d = 2 torus
# with B != 0 and non-integral G and B (for calI and calJ), and a d = 1 torus
# with non-integral I (for calItilde, which is integral when I is).
FRACTIONAL_TORI = (
    TorusData(
        d=2,
        I=RatMatrix([[2, -1, 2, 0], [5, -2, 4, -2], [0, 0, 0, -1], [0, 0, 1, 0]]),
        G=RatMatrix([[Q(5, 2), -1, 2, 0], [-1, Q(1, 2), -1, 0], [2, -1, Q(7, 2), 0],
                     [0, 0, 0, Q(3, 2)]]),
        B=RatMatrix([[0, -1, Q(1, 2), 0], [1, 0, Q(-1, 2), -1],
                     [Q(-1, 2), Q(1, 2), 0, Q(1, 2)], [0, 1, Q(-1, 2), 0]]),
        label="fractional2",
    ),
    TorusData(d=1, I=RatMatrix([[0, -2], [Q(1, 2), 0]]), G=diag([1, 4]),
              B=RatMatrix([[0, Q(1, 3)], [Q(-1, 3), 0]]), label="stretched_b1"),
)


def _fraction_rows(t1, t2, kind):
    """The Kronecker rows of ``g A - B g = 0`` in Fractions, unscaled."""
    n = 4 * t1.d
    d1, d2 = doubled(t1), doubled(t2)
    rows = []
    for _, src, tgt in RELATIONS[kind]:
        a, b = getattr(d1, src).entries, getattr(d2, tgt).entries
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += a[k][j]
                    row[k * n + j] -= b[i][k]
                rows.append(row)
    return rows


def _lcm_scaled(row):
    den = lcm(*(x.denominator for x in row))
    return [int(x * den) for x in row]


def _pair_scaled(t1, t2, kind):
    """The Fraction rows, each block of one structure pair ``(A, B)`` times
    the lcm of the denominators of A and B."""
    n = 4 * t1.d
    d1, d2 = doubled(t1), doubled(t2)
    rows = _fraction_rows(t1, t2, kind)
    scaled = []
    for p, (_, src, tgt) in enumerate(RELATIONS[kind]):
        den = lcm(*(x.denominator for m in (getattr(d1, src), getattr(d2, tgt))
                    for r in m.entries for x in r))
        scaled += [[int(x * den) for x in r] for r in rows[p * n * n:(p + 1) * n * n]]
    return scaled


class TestConstraintRows:
    # The integer rows are the Fraction rows times one scale per structure
    # pair, and their lattice is the integer kernel of the Fraction rows each
    # scaled by the lcm of its own denominators.
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(KINDS), st.booleans())
    @example(0, "derived_eq", False)
    def test_integer_rows_are_cleared_fraction_rows(self, seed, kind, rebase):
        rng = random.Random(seed)
        t1 = FRACTIONAL_TORI[seed % 3] if seed % 3 < 2 else random_valid_torus(
            rng, rng.choice((1, 2)), b_bound=3, scale_bound=5)
        t2 = _rebased(t1, rng) if rebase else random_valid_torus(
            rng, t1.d, b_bound=3, scale_bound=5)
        rows = _constraint_rows(t1, t2, kind)
        assert rows == _pair_scaled(t1, t2, kind)
        assert integral_coordinate_lattice(rows) == \
            integer_kernel([_lcm_scaled(r) for r in _fraction_rows(t1, t2, kind)])

    @pytest.mark.parametrize("kind, t1", [("iso", FRACTIONAL_TORI[0]),
                                          ("mirror", FRACTIONAL_TORI[0]),
                                          ("derived_eq", FRACTIONAL_TORI[1])])
    def test_fractional_rows_share_the_pair_scale(self, kind, t1):
        t2 = _rebased(t1, random.Random(0))
        fraction_rows = _fraction_rows(t1, t2, kind)
        # the rows have different scales of their own, so the two lattices
        # below come from different integer rows
        assert len({lcm(*(x.denominator for x in r)) for r in fraction_rows}) > 1
        rows = _constraint_rows(t1, t2, kind)
        assert rows == _pair_scaled(t1, t2, kind)
        assert integral_coordinate_lattice(rows) == \
            integer_kernel([_lcm_scaled(r) for r in fraction_rows])


def _narain_gram(t1, t2, rows):
    """The reference Gram matrix of the Narain form ``Q(g) = tr(N_1^-1 g^t N_2 g)``
    on the flattened basis matrices M_i: ``A_ij = <M_i, N_2 M_j N_1^-1>``
    (Frobenius) with ``N_1^-1 = q N_1 q``."""
    n = 4 * t1.d
    q = doubled(t1).q
    n1_inv, n2 = q * narain_form(t1) * q, narain_form(t2)
    images = [[x for row in (n2 * RatMatrix([m[i * n:(i + 1) * n] for i in range(n)])
                             * n1_inv).entries for x in row] for m in rows]
    return [[sum(x * y for x, y in zip(mi, mj)) for mj in images] for mi in rows]


def _narain_radii(gram, n):
    """``n (A^-1)_ii``, the bound on ``c_i^2`` over the ellipsoid ``c^t A c <= n``:
    the first step of Fincke-Pohst (Math. Comp. 44, 1985)."""
    a_inv = RatMatrix(gram).inverse()
    return [n * a_inv.entries[i][i] for i in range(len(gram))]


def _dense_f_gram(rows, n):
    """The reference Gram matrix of ``tr(q M_i^t q M_j)``: every row's full
    Frobenius product with the index-permuted image ``q M_j q``."""
    half = n // 2
    swap = [(t // n + half) % n * n + (t + half) % n for t in range(n * n)]
    images = [[m[s] for s in swap] for m in rows]
    return [[sum(x * y for x, y in zip(mi, mj)) for mj in images] for mi in rows]


class TestFGram:
    # The shared Gram builder with R = q, summed over the nonzero entries of
    # each basis row and of q, equals the dense product on random iso, mirror
    # and derived_eq lattices; t2 is t1 rebased, its mirror or another random
    # torus (the lattice may be empty).
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.sampled_from(KINDS),
           st.sampled_from(["rebased", "mirror", "random"]))
    def test_sparse_gram_equals_the_dense_product(self, seed, d, kind, partner):
        rng = random.Random(seed)
        t1 = random_valid_torus(rng, d, steps=3, b_bound=3)
        t2 = (_rebased(t1, rng) if partner == "rebased" else
              _mirror(t1).mirror if partner == "mirror" else
              random_valid_torus(rng, d, steps=3, b_bound=3))
        rows = intertwiner_rows(t1, t2, kind)
        n = 4 * d
        assert frobenius_gram(rows, n, split_pairing(n)) == _dense_f_gram(rows, n)


class TestNarainWindow:
    @pytest.mark.parametrize("shear", [False, True], ids=["square1", "sheared1"])
    def test_d1_windows_refute_iso_and_mirror(self, square1, stretched1, shear):
        source = _in_basis(square1, E1_SHEAR) if shear else square1
        for kind in ("iso", "mirror"):
            # the square lattice has four vectors of N-norm 1 up to sign, the
            # stretched one norms 1/4 and 4: the isometry search refutes
            # before it places a column, after its two walks
            out = search_relation(source, stretched1, kind, 1)
            assert (out.found, out.verdict, out.nodes_used, out.refuted_by) == \
                (False, "refuted", 25, f"{NARAIN_ISOMETRY}: the N-norms of their 4 and 4 "
                                       "vectors up to sign of N-norm at most 1 differ, 25 nodes")
        # the derived_eq lattices of tau = i and tau = 2i are not isometric
        out = search_relation(source, stretched1, "derived_eq", 1)
        assert (out.found, out.verdict, out.nodes_used, out.refuted_by) == \
            (False, "refuted", 0, f"{LATTICE_ISOMETRY}: (8, 256), (8, 65536), (8, 65536)")

    def test_narain_form_inverse_is_conjugate_by_q(self, rng):
        # N q N = q, so N^-1 = q N q and the Gram matrix needs no inversion of N
        from flattori.torus import doubled
        for _ in range(6):
            t = random_valid_torus(rng, rng.choice((1, 2)), b_bound=3)
            q, big_n = doubled(t).q, narain_form(t)
            assert big_n * q * big_n == q

    # Random basis changes of square tori and of random tori with B != 0:
    # the rebased copy is related, so the search finds a certificate, and it
    # lies on the shell: tr(q g^t q g) = 4d.
    @settings(max_examples=16, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from([("square", 1, "iso"), ("square", 1, "mirror"),
                            ("square", 2, "iso"), ("square", 2, "mirror"),
                            ("random", 1, "iso"), ("random", 2, "iso")]))
    def test_rebased_copies_are_never_refuted(self, seed, case):
        family, d, kind = case
        rng = random.Random(seed)
        t1 = square_torus(d) if family == "square" else random_valid_torus(rng, d, b_bound=3)
        t2 = _rebased(t1, rng)
        out = search_relation(t1, t2, kind, 3 - d, node_budget=20000)
        assert out.found
        g, q = out.certificate.map.g, doubled(t1).q
        f = q * g.transpose() * q * g
        assert sum(f.entries[i][i] for i in range(4 * d)) == 4 * d


class TestNarainShell:
    # On an iso or mirror lattice F is the Narain form: its Gram matrix equals
    # the reference built from narain_form.  The enumerator's set {F <= 4d}
    # equals brute force over the box of the Narain radii: on the whole
    # lattice at d = 1, and at d = 2, whose box can hold 5^16 points, on the
    # sublattice spanned by up to five of its basis vectors.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.sampled_from(["iso", "mirror"]),
           st.sampled_from(PARTNERS))
    def test_shell_equals_brute_force(self, seed, d, kind, how):
        rng = random.Random(seed)
        t1 = random_valid_torus(rng, d, steps=3, b_bound=3)
        t2 = _partner(t1, rng, how)
        rows = intertwiner_rows(t1, t2, kind)
        assume(rows)
        if d == 2:
            rows = rng.sample(rows, rng.randint(1, 5))
        n = 4 * d
        gram = frobenius_gram(rows, n, split_pairing(n))
        narain = _narain_gram(t1, t2, rows)
        assert gram == narain
        box = [isqrt(int(r)) for r in _narain_radii(narain, n)]
        assume(prod(2 * b + 1 for b in box) <= 20000)

        def form(c):
            return sum(ci * sum(map(mul, row, c)) for ci, row in zip(c, gram))
        brute = {c for c in product(*(range(-b, b + 1) for b in box)) if any(c) and form(c) <= n}
        basis, vectors, _ = short_vectors(gram, n)
        shell = set()
        for x, norm in vectors:
            c = tuple(sum(map(mul, x, col)) for col in zip(*basis))
            assert form(c) == norm
            shell |= {c, tuple(-v for v in c)}
        assert shell == brute

    @pytest.mark.parametrize("kind", ["iso", "mirror"])
    def test_square2_against_stretched2_is_refuted_without_a_scan(self, square2, kind,
                                                                  monkeypatch):
        # the Narain norms of the two lattices differ; the isometry search is
        # the whole search, so no scan runs, whatever the bound and budget
        def refuse(*args):
            raise AssertionError("the scan ran")
        monkeypatch.setattr("flattori.kernels.run_filter", refuse)
        for bound, budget in ((1, 50), (2, DEFAULT_NODE_BUDGET)):
            out = search_relation(square2, STRETCHED2, kind, bound, node_budget=budget)
            assert (out.verdict, out.nodes_used, out.refuted_by) == (
                "refuted", 81, f"{NARAIN_ISOMETRY}: the N-norms of their 8 and 8 vectors up "
                "to sign of N-norm at most 1 differ, 81 nodes")

    @pytest.mark.parametrize("kind", ["iso", "mirror"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_found_pair_is_decided_without_a_scan(self, d, kind, monkeypatch):
        # a rebased copy of a square torus is related in both kinds, and the
        # isometry search's first certificate is the answer: no scan runs
        def refuse(*args, **kwargs):
            raise AssertionError("the scan ran")
        monkeypatch.setattr("flattori.kernels.run_filter", refuse)
        t1 = square_torus(d)
        t2 = _rebased(t1, random.Random(d))
        for bound, budget in ((1, 1), (3, DEFAULT_NODE_BUDGET)):
            out = search_relation(t1, t2, kind, bound, node_budget=budget)
            assert out.found and out.certificate.valid

    def test_certificate_outside_the_window_is_found(self):
        # every certificate of this rebased pair needs a coordinate of 2 over
        # the intertwiner basis: the height-1 window (80 nodes) holds none, and
        # the isometry search, which reads no intertwiner basis, finds one
        t1, t2 = REBASED1
        hits, nodes, exhausted = kernels_py.run_filter(intertwiner_rows(t1, t2, "iso"), 4, 1,
                                                       DEFAULT_NODE_BUDGET)
        assert (hits, nodes, exhausted) == ([], 80, True)
        out = search_relation(t1, t2, "iso", 1)
        assert (out.verdict, out.nodes_used) == ("found", 15)
        assert out.certificate.valid

    def test_d3_certificate_past_the_budget_is_found(self):
        # the budget of one node bounds nothing: the isometry search's first
        # certificate is checked by verify_map
        t1 = random_valid_torus(random.Random(2), 3, steps=2, scale_bound=2, b_bound=1)
        t2 = _rebased(t1, random.Random(102))
        out = search_relation(t1, t2, "iso", 1, node_budget=1)
        assert out.found and out.certificate.valid and out.nodes_used > 1


def _shell_reference(t1, t2, kind):
    """The ``iso`` or ``mirror`` verdict of the Narain shell, the search that
    the isometry search replaced: every certificate lies in the intertwiner
    lattice with ``F(g) = tr(q g^t q g) = 4d``, F positive definite there, so
    the relation holds exactly when a vector of that shell preserves q,
    checked here as ``g^t q g = q`` on the map itself."""
    rows = intertwiner_rows(t1, t2, kind)
    n = 4 * t1.d
    q = doubled(t1).q
    basis, vectors, _ = short_vectors(frobenius_gram(rows, n, split_pairing(n)), n)
    for x, norm in vectors:
        if norm == n:
            coords = [sum(map(mul, x, col)) for col in zip(*basis)]
            flat = [sum(c * m[t] for c, m in zip(coords, rows)) for t in range(n * n)]
            g = RatMatrix([flat[i * n:(i + 1) * n] for i in range(n)])
            if g.transpose() * q * g == q:
                return "found"
    return "refuted"


_LI = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
_LJ = ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0))
_LK = ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
# rational unit pure quaternions (a i + b j + c k) / m, a^2 + b^2 + c^2 = m^2
UNIT_QUATERNIONS = ((1, 0, 0, 1), (0, 3, 4, 5), (1, 2, 2, 3), (2, 3, 6, 7), (2, -1, 2, 3),
                    (0, 0, 1, 1))


def _quaternion_structure(u):
    """Left multiplication by the unit pure quaternion u on H = Q^4 (basis 1,
    i, j, k): a complex structure orthogonal for G = 1."""
    a, b, c, m = u
    return RatMatrix([[Q(a * x + b * y + c * z, m) for x, y, z in zip(*rows)]
                      for rows in zip(_LI, _LJ, _LK)])


def _quaternion_torus(u, extra=None):
    """The torus ``Z^4`` with I = L_u, G = 1 and B = 0, times ``extra`` (a d = 1
    torus) when given.  Every such torus has N = 1: the same Narain lattice
    as the square torus of its dimension."""
    i = _quaternion_structure(u)
    if extra is None:
        return TorusData(2, i, RatMatrix.identity(4), RatMatrix.zero(4, 4), f"L{u}")
    block = [[i.entries[r][c] if r < 4 and c < 4 else
              extra.I.entries[r - 4][c - 4] if r >= 4 and c >= 4 else 0
              for c in range(6)] for r in range(6)]
    return TorusData(3, RatMatrix(block), RatMatrix.identity(6), RatMatrix.zero(6, 6),
                     f"L{u}+{extra.label}")


class TestNarainIsometry:
    """The isometry search decides iso and mirror: it agrees with the Narain
    shell, finds every rebased and mirrored copy, and rests on N = -q calI calJ."""

    # The completeness premise: a certificate carries N1 to N2 because N is
    # read off q and the two structures, which commute.
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2, 3]))
    @example(0, 3)
    def test_narain_form_is_minus_q_cal_i_cal_j(self, seed, d):
        t = random_valid_torus(random.Random(seed), d, steps=10, scale_bound=5)
        ds = doubled(t)
        assert narain_form(t) == -(ds.q * ds.calI * ds.calJ)
        assert ds.calI * ds.calJ == ds.calJ * ds.calI

    # Random pairs at d <= 2: a rebased copy, the mirror, an unrelated torus,
    # or two rebased quaternionic tori, whose Narain lattices are equal, so
    # that only the structures can decide.
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.sampled_from(["iso", "mirror"]),
           st.sampled_from(PARTNERS + ("quaternion",)))
    @example(0, 2, "iso", "quaternion")
    def test_verdict_equals_the_shell_reference(self, seed, d, kind, how):
        rng = random.Random(seed)
        if how == "quaternion":
            u, v = (rng.choice(UNIT_QUATERNIONS) for _ in range(2))
            t1, t2 = (_rebased(_quaternion_torus(w), rng) for w in (u, v))
        else:
            t1 = random_valid_torus(rng, d, steps=3, b_bound=3)
            t2 = _partner(t1, rng, how)
        out = search_relation(t1, t2, kind, 1)
        assert out.verdict == _shell_reference(t1, t2, kind)
        assert out.certificate is None or out.certificate.valid

    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), how=st.sampled_from(["rebased", "mirror"]))
    @example(seed=0, how="mirror")
    def test_rebased_and_mirrored_copies_are_found(self, d, seed, how):
        rng = random.Random(seed)
        t1 = random_valid_torus(rng, d, steps=10, scale_bound=5)
        t2 = _rebased(t1, rng) if how == "rebased" else _mirror(t1).mirror
        out = search_relation(t1, t2, "iso" if how == "rebased" else "mirror", 1)
        assert out.found and out.certificate.valid

    # The slowest pair seen: both Narain lattices are Z^12 with N = 1, so no
    # norm separates them, and the column search must run out.  L_u has
    # entries in Z/5, so no integral g carries it to the square structure.
    @pytest.mark.parametrize("kind", ["iso", "mirror"])
    def test_quaternion_pair_with_equal_narain_lattices_is_refuted(self, kind):
        source = _quaternion_torus((0, 3, 4, 5), square_torus(1, "square1"))
        out = search_relation(source, square_torus(3), kind, 1)
        assert (out.verdict, out.nodes_used) == ("refuted", 5088)
        assert out.refuted_by == (f"{NARAIN_ISOMETRY}: 12 vectors up to sign of N-norm at "
                                  "most 1, 5088 nodes")


    # A torus stretched by r: its Narain lattice holds vectors of N-norm
    # 1/r^2 and r^2, so the ball up to its largest reduced norm holds about
    # r^4 vectors.  The shortest vector's images under the structures span,
    # so the search lists the ball of N-norm 1/r^2 alone, in 11 nodes at any
    # r.  Beside square1 the second generator has N-norm 1, and that ball
    # grows as r: 2r + 72 nodes, 0.02 s at r = 1000 (the Narain shell took 5
    # and 71 nodes at every r).
    @pytest.mark.parametrize("kind", ["iso", "mirror"])
    def test_stretched_torus_lists_only_the_balls_of_its_generators(self, kind):
        for r in (30, 1000):
            for t, nodes in ((_stretched(r), 11),
                             (_direct_sum(_stretched(r), square_torus(1)), 2 * r + 72)):
                out = search_relation(t, t, kind, 1)
                assert (out.verdict, out.nodes_used) == ("found", nodes)

    # A ball past the limit leaves the pair undecided, whatever the budget:
    # at r = 1000 the second generator's ball holds about 1,000 vectors
    @pytest.mark.parametrize("kind", ["iso", "mirror"])
    def test_ball_past_the_limit_is_undecided(self, kind, monkeypatch):
        monkeypatch.setattr("flattori.isometry.SPECTRUM_LIMIT", 100)
        t = _direct_sum(_stretched(1000), square_torus(1))
        out = search_relation(t, t, kind, 1, node_budget=DEFAULT_NODE_BUDGET)
        assert (out.verdict, out.certificate, out.last_complete_height) == \
            ("undecided", None, None)
        assert out.nodes_used == 218


def _stretched(r):
    """The d = 1 torus with G = diag(1, r^2), B = 0 and its rational I."""
    return TorusData(1, RatMatrix([[0, -r], [Q(1, r), 0]]), diag([1, r * r]),
                     RatMatrix.zero(2, 2), f"stretched{r}")


def _direct_sum(a, b):
    """The product torus of ``a`` and ``b``: each datum block diagonal."""
    m, n = 2 * a.d, 2 * b.d

    def block(x, y):
        return RatMatrix.from_blocks([[x, RatMatrix.zero(m, n)], [RatMatrix.zero(n, m), y]])

    return TorusData(a.d + b.d, block(a.I, b.I), block(a.G, b.G), block(a.B, b.B),
                     f"{a.label}+{b.label}")


def _cm_torus(s):
    """The d = 1 torus whose lattice is ``s Z^2`` in the square one's plane:
    ``I = s^-1 I_0 s``, ``G = s^t s``, B = 0 (tau runs over Q(i) as s varies)."""
    s = RatMatrix(s)
    return TorusData(1, s.inverse() * square_torus(1).I * s, s.transpose() * s,
                     RatMatrix.zero(2, 2), "cm")


def _kaehler_torus(s):
    """The complex structure of ``_cm_torus(s)`` with the metric ``G = 1 + I^t I``
    and B = 0: a derived_eq lattice depends on I alone, an iso one on G too."""
    i = _cm_torus(s).I
    return TorusData(1, i, RatMatrix.identity(2) + i.transpose() * i, RatMatrix.zero(2, 2),
                     "kaehler")


# 2 x 2 integer matrices of nonzero determinant: their tori include tau = m i
# (s = diag(1, m)) and the points of Q(i) of every small index.
_LATTICE_BASES = st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(
    lambda e: [e[:2], e[2:]]).filter(lambda s: s[0][0] * s[1][1] != s[0][1] * s[1][0])
_D1_TORI = st.builds(lambda s, kaehler: (_kaehler_torus if kaehler else _cm_torus)(s),
                     _LATTICE_BASES, st.booleans())


def solves_mod2(basis_flat, n, residue):
    """``g = sum c_i M_i`` over a 0/1 residue, checked on ``g^t q g`` itself:
    entries a < b against q mod 2, diagonal entries halved against 0 mod 2."""
    half = n // 2
    g = [sum(m[t] for c, m in zip(residue, basis_flat) if c) for t in range(n * n)]
    for a in range(n):
        for b in range(a, n):
            s = sum(g[r * n + a] * g[((r + half) % n) * n + b] for r in range(n))
            if (s // 2 if a == b else s - (b - a == half)) % 2:
                return False
    return True


def brute_force_residue(basis_flat, n):
    """The first solving residue in lexicographic order (0 before 1), or None.

    The coordinates of every q-congruent g reduce mod 2 to a solving residue,
    so None proves that no certificate exists: the mod-2 oracle."""
    return next((c for c in product((0, 1), repeat=len(basis_flat))
                 if solves_mod2(basis_flat, n, c)), None)


class TestMod2Obstruction:
    """``derived_eq`` is refuted when L(T1,T1), L(T1,T2) and L(T2,T2) differ in
    (rank, det) under ``tr(q h^t q h)``: never on a related pair, on every
    pair the mod-2 oracle obstructs, and on pairs it cannot see."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_square_against_tau_m_i(self, square1, m):
        # tau = i against tau = m i is obstructed mod 2 exactly when m is even,
        # and refuted for every m > 1 at any budget; L(tau = m i) has det 256 m^8
        t2 = _cm_torus([[1, 0], [0, m]])
        obstructed = brute_force_residue(intertwiner_rows(square1, t2, "derived_eq"), 4) is None
        assert obstructed == (m % 2 == 0)
        if m == 1:
            assert search_relation(square1, t2, "derived_eq", 1).verdict == "found"
            return
        for budget in (1, 100, DEFAULT_NODE_BUDGET):
            out = search_relation(square1, t2, "derived_eq", 1, node_budget=budget)
            assert (out.verdict, out.nodes_used) == ("refuted", 0)
            assert out.refuted_by == \
                f"{LATTICE_ISOMETRY}: (8, 256), (8, {256 * m ** 8}), (8, {256 * m ** 8})"

    # A pair related by construction (t2 is t1 with another Kaehler metric, in
    # another lattice basis u) has the certificate diag(u^-1, u^t); the
    # residue of its coordinates, and of the coordinates of any certificate
    # the search finds, solves the congruence mod 2, and the search never
    # refutes the pair.
    @settings(max_examples=200, deadline=None)
    @given(_LATTICE_BASES, st.booleans(), st.integers(0, 2 ** 32))
    @example([[1, 0], [0, 2]], True, 0)
    def test_related_pairs_are_never_obstructed(self, s, kaehler, seed):
        t1 = _cm_torus(s)
        u = _unimodular(2, random.Random(seed), steps=4)
        cert = _basis_change_iso(_kaehler_torus(s) if kaehler else t1, u)
        t2 = cert.target
        rows = intertwiner_rows(t1, t2, "derived_eq")
        certs = [cert.g]
        out = search_relation(t1, t2, "derived_eq", 1, node_budget=3 ** 8 - 1)
        assert out.verdict != "refuted"
        if out.found:
            certs.append(out.certificate.map.g)
        basis = intertwiner_space(t1, t2, "derived_eq")
        for g in certs:
            assert verify_map(LatticeMap(g, t1, t2, "derived_eq")).valid
            coords = _coordinates_of(g, basis)
            assert all(c.denominator == 1 for c in coords)
            assert solves_mod2(rows, 4, [int(c) % 2 for c in coords])

    # (rank, det) of each lattice is unchanged when either torus is written in
    # another lattice basis, so the verdict is too.
    @settings(max_examples=200, deadline=None)
    @given(_D1_TORI, _D1_TORI, st.integers(0, 2 ** 32))
    @example(_cm_torus([[1, 0], [0, 1]]), _cm_torus([[1, 0], [0, 2]]), 0)
    def test_refutation_is_basis_invariant(self, t1, t2, seed):
        rng = random.Random(seed)
        r1, r2 = _rebased(t1, rng, 4), _rebased(t2, rng, 4)

        def classes(a, b):
            return [_lattice_class(intertwiner_rows(x, y, "derived_eq"), 4)
                    for x, y in ((a, a), (a, b), (b, b))]

        assert classes(t1, t2) == classes(r1, t2) == classes(t1, r2) == classes(r1, r2)

    # search_relation reads L(T1,T1) and L(T2,T2) off the kernel basis without
    # reduction: pair_reduce's LLL is unimodular, so it keeps (rank, det).
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.booleans(), st.sampled_from(KINDS), st.integers(0, 2 ** 32))
    def test_lattice_class_ignores_size_reduction(self, d, rebased, kind, seed):
        rng = random.Random(seed)
        t1 = random_valid_torus(rng, d)
        t2 = _rebased(t1, rng) if rebased else random_valid_torus(rng, d)
        for a, b in ((t1, t1), (t1, t2), (t2, t2)):
            rows = integral_coordinate_lattice(_constraint_rows(a, b, kind))
            assert _lattice_class(pair_reduce(rows), 4 * d) == _lattice_class(rows, 4 * d)

    # Every pair the mod-2 oracle obstructs is refuted.
    @settings(max_examples=200, deadline=None)
    @given(_D1_TORI, _D1_TORI)
    @example(_cm_torus([[1, 0], [0, 1]]), _cm_torus([[1, 0], [0, 2]]))
    def test_obstructed_pairs_are_refuted(self, t1, t2):
        rows = intertwiner_rows(t1, t2, "derived_eq")
        out = search_relation(t1, t2, "derived_eq", 1, node_budget=1)
        if brute_force_residue(rows, 4) is None:
            assert (out.verdict, out.nodes_used) == ("refuted", 0)
            assert out.refuted_by.startswith(LATTICE_ISOMETRY)
