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

from flattori import kernels_py
from flattori._intlat import (integer_kernel, integral_coordinate_lattice, pair_reduce,
                              short_vectors, spans_direct_summand)
from flattori._record import failures
from flattori.equivalence import (DEFAULT_NODE_BUDGET, KINDS, LATTICE_ISOMETRY, NARAIN_SHELL,
                                  RELATIONS, LatticeMap, _constraint_rows, _ellipsoid_radii,
                                  _lattice_class, intertwiner_rows, intertwiner_space,
                                  search_relation, spectrum_fingerprint, verify_map)
from flattori.errors import ValidationError
from flattori.exactlinear import Q, RatMatrix
from flattori.kernels_py import frobenius_gram, split_pairing
from flattori.tduality import find_lagrangian_splitting, mirror_via_tduality
from flattori.torus import (TorusData, doubled, narain_form, random_valid_torus,
                            square_torus, zero_mode_momenta)
from test_cli import OPEN1, OPEN2

E1_SWAP = RatMatrix([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
E1_SHEAR = RatMatrix([[1, 1], [0, 1]])
STRETCHED2 = TorusData(
    2, RatMatrix([[0, -2, 0, 0], [Q(1, 2), 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    RatMatrix.diag([1, 4, 1, 1]), RatMatrix.zero(4, 4), "stretched2")


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
        from flattori.torus import doubled, random_valid_torus
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
    # iso reduction still changes a vector in its last allowed sweep
    # (MAX_SWEEPS), and the derived_eq space has rank k = 72.
    @pytest.mark.parametrize("kind, k, sha256", [
        ("iso", 36, "8827504c412466920c3937a927533d3b30d771e1aa3ac0e698711265a5662236"),
        ("derived_eq", 72, "906ee10efdbcb163259d64580860be64e97fac6119fad702cd83450ad532dfa0"),
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
        # the validation report, G^-1 and the doubled structures are cached on the torus
        rebased = TorusData(1, E1_SHEAR.inverse() * square1.I * E1_SHEAR,
                            E1_SHEAR.transpose() * square1.G * E1_SHEAR,
                            E1_SHEAR.transpose() * square1.B * E1_SHEAR, "rebased")
        torus_work.inverted.clear()
        assert search_relation(square1, rebased, "iso", 2).found
        assert search_relation(square1, rebased, "mirror", 2).found
        assert torus_work.validated == ["square", "rebased"]
        assert torus_work.built == 2
        assert torus_work.inverted == [square1.G, rebased.G]
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


def _reference_fingerprint(t, height):
    """The fingerprint built charge by charge from the public per-charge API."""
    triples = []
    for coords in product(range(-height, height + 1), repeat=2 * t.rank):
        w, m = coords[:t.rank], coords[t.rank:]
        _, _, p2_half, pbar2_half = zero_mode_momenta(t, w, m)
        triples.append((Fraction(2 * sum(map(mul, w, m))), p2_half, pbar2_half))
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
    TorusData(d=1, I=RatMatrix([[0, -2], [Q(1, 2), 0]]), G=RatMatrix.diag([1, 4]),
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


def _narain_radii(t1, t2, basis):
    """The reference radii ``4d (A^-1)_ii``, A the Gram matrix of the Narain
    form ``Q(g) = tr(N_1^-1 g^t N_2 g)`` on the basis matrices:
    ``A_ij = <M_i, N_2 M_j N_1^-1>`` (Frobenius) with ``N_1^-1 = q N_1 q``."""
    q = doubled(t1).q
    n1_inv, n2 = q * narain_form(t1) * q, narain_form(t2)
    flat = [[x for row in m.entries for x in row] for m in basis]
    images = [[x for row in (n2 * m * n1_inv).entries for x in row] for m in basis]
    a_inv = RatMatrix([[sum(x * y for x, y in zip(mi, mj)) for mj in images]
                       for mi in flat]).inverse()
    return [4 * t1.d * a_inv.entries[i][i] for i in range(len(basis))]


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
            # 4d (A^-1)_ii < 1: no nonzero lattice vector has Q <= 4d
            assert max(_ellipsoid_radii(intertwiner_rows(source, stretched1, kind), 4)) < 1
            out = search_relation(source, stretched1, kind, 1)
            assert (out.found, out.verdict) == (False, "refuted")
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

    # On an iso or mirror lattice tr(q h^t q h) is the Narain form, so the
    # radii read from it equal those of the Narain Gram matrix; t2 is t1
    # rebased, its mirror or another random torus (the lattice may be empty).
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.sampled_from(["iso", "mirror"]),
           st.sampled_from(["rebased", "mirror", "random"]))
    def test_radii_equal_the_narain_reference(self, seed, d, kind, partner):
        rng = random.Random(seed)
        t1 = random_valid_torus(rng, d, b_bound=3)
        t2 = (_rebased(t1, rng) if partner == "rebased" else
              _mirror(t1).mirror if partner == "mirror" else
              random_valid_torus(rng, d, b_bound=3))
        rows = intertwiner_rows(t1, t2, kind)
        basis = intertwiner_space(t1, t2, kind)
        assert _ellipsoid_radii(rows, 4 * d) == _narain_radii(t1, t2, basis)

    # Random basis changes of square tori and of random tori with B != 0:
    # the rebased copy is related, so the search finds a certificate, and its
    # coordinates lie inside the ellipsoid's box.
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
        coords = _coordinates_of(out.certificate.map.g, intertwiner_space(t1, t2, kind))
        radii = _ellipsoid_radii(intertwiner_rows(t1, t2, kind), 4 * d)
        assert all(c * c <= r for c, r in zip(coords, radii))


class TestNarainShell:
    # The enumerator's set {F <= 4d} on an iso or mirror lattice equals brute
    # force over the box of the Narain radii: on the whole lattice at d = 1,
    # and at d = 2, whose box can hold 5^16 points, on the sublattice spanned
    # by up to five of its basis vectors.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.sampled_from(["iso", "mirror"]),
           st.sampled_from(PARTNERS))
    def test_shell_equals_brute_force(self, seed, d, kind, how):
        rng = random.Random(seed)
        t1 = random_valid_torus(rng, d, steps=3, b_bound=3)
        rows = intertwiner_rows(t1, _partner(t1, rng, how), kind)
        assume(rows)
        if d == 2:
            rows = rng.sample(rows, rng.randint(1, 5))
        n = 4 * d
        gram = frobenius_gram(rows, n, split_pairing(n))
        box = [isqrt(int(r)) for r in _ellipsoid_radii(rows, n)]
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
        # 64 vectors up to sign have F <= 8 and none preserves q; the scan's
        # windows hold 3^16 - 1 and 5^16 - 1 candidates, past both budgets
        def refuse(*args):
            raise AssertionError("the scan ran")
        monkeypatch.setattr("flattori.kernels.run_filter", refuse)
        for bound, budget in ((1, 50), (2, DEFAULT_NODE_BUDGET)):
            out = search_relation(square2, STRETCHED2, kind, bound, node_budget=budget)
            assert (out.verdict, out.nodes_used, out.refuted_by) == (
                "refuted", 220, f"{NARAIN_SHELL}: 64 vectors up to sign, 220 nodes")

    def test_certificate_outside_the_window_is_found(self):
        # every certificate of this rebased pair needs a coordinate of 2: the
        # height-1 window (80 nodes) holds none, the shell (7 nodes) does
        t1 = TorusData(1, RatMatrix([[-5, -13], [2, 5]]), RatMatrix([[4, 10], [10, 26]]),
                       RatMatrix([[0, Q(3, 2)], [Q(-3, 2), 0]]), "t1")
        t2 = TorusData(1, RatMatrix([[-17, -5], [58, 17]]), RatMatrix([[116, 34], [34, 10]]),
                       RatMatrix([[0, Q(3, 2)], [Q(-3, 2), 0]]), "t2")
        hits, nodes, exhausted = kernels_py.run_filter(intertwiner_rows(t1, t2, "iso"), 4, 1,
                                                       DEFAULT_NODE_BUDGET)
        assert (hits, nodes, exhausted) == ([], 80, True)
        out = search_relation(t1, t2, "iso", 1)
        assert (out.verdict, out.nodes_used) == ("found", 87)
        assert out.certificate.valid

    def test_d3_certificate_past_the_budget_is_found(self):
        # the scan spends its one node; the shell's first certificate is
        # checked by verify_map
        t1 = random_valid_torus(random.Random(2), 3, steps=2, scale_bound=2, b_bound=1)
        t2 = _rebased(t1, random.Random(102))
        out = search_relation(t1, t2, "iso", 1, node_budget=1)
        assert out.found and out.certificate.valid and out.nodes_used > 1


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
    # size reduction: the unimodular steps of pair_reduce keep (rank, det).
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
