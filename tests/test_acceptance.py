"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (no tolerances anywhere); the stated runtime budgets
are asserted with ``time.perf_counter``.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import diag, mono, random_valid_torus, square_torus, unit_splitting
from flattori._record import failures
from flattori.abranes import AffineBrane, check_abrane, coisotropy_witness
from flattori.cohomology import (CohClass, fm_transform, hodge_diamond,
                                 lefschetz_kernel_dim, mirror_class_condition,
                                 rational_pp_classes)
from flattori.equivalence import search_relation, verify_map
from flattori.exactlinear import RatMatrix
from flattori.fock import TruncatedFock, ccr_car_sweep
from flattori.tduality import find_lagrangian_splitting, mirror_via_tduality
from flattori.torus import TorusData, doubled, q_matrix, validate, zero_mode_momenta

E1_SWAP = RatMatrix([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])


def record(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} - {detail}")
    assert ok, detail


def test_criterion_01_self_mirror_square_torus():
    t = square_torus(1)
    start = time.perf_counter()
    out = search_relation(t, t, "mirror", 2)
    elapsed = time.perf_counter() - start
    ok = (out.found
          and verify_map(out.certificate.map).valid
          and out.certificate.map.g in (E1_SWAP, -E1_SWAP)
          and elapsed < 1.0)
    record(1, ok, f"self-mirror certificate is the winding/momentum swap "
                  f"({elapsed:.3f}s)")


def test_criterion_02_tduality_round_trip():
    start = time.perf_counter()
    ok = True
    for d in (1, 2):
        t = square_torus(d)
        mr = mirror_via_tduality(t, find_lagrangian_splitting(t))
        back = mirror_via_tduality(mr.mirror, unit_splitting(d))
        out = search_relation(t, back.mirror, "iso", 2)
        ok = ok and out.found and verify_map(out.certificate.map).valid
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    record(2, ok, f"double dual is iso-certified to the original at d=1,2 "
                  f"({elapsed:.3f}s)")


def test_criterion_03_chern_image_counts():
    start = time.perf_counter()
    totals = {}
    for n in (2, 3):
        t = square_torus(n)
        totals[n] = sum(len(rational_pp_classes(t, p)) for p in range(n + 1))
    elapsed = time.perf_counter() - start
    ok = totals == {2: 6, 3: 20} and elapsed < 30.0
    record(3, ok, f"rational (p,p) dimensions sum to {totals[2]} (n=2) and "
                  f"{totals[3]} (n=3) ({elapsed:.3f}s)")


def test_criterion_04_lefschetz_kernel_dimensions():
    rng = random.Random(4)
    ok = True
    for d, expected in ((2, 5), (3, 14)):
        forms_seen = set()
        tori = [square_torus(d)]
        while len(forms_seen) < 3:
            t = tori.pop() if tori else random_valid_torus(rng, d)
            w = t.G * t.I
            if w in forms_seen:
                continue
            forms_seen.add(w)
            ok = ok and lefschetz_kernel_dim(t) == expected
    record(4, ok, "middle-degree kernel has dimension 5 (n=2) and 14 (n=3) "
                  "for three distinct Kaehler forms each")


def test_criterion_05_counting_gap():
    ok = (6 > 5) and (20 > 14)
    # recompute rather than trusting the literals
    for n, lef in ((2, 5), (3, 14)):
        t = square_torus(n)
        total = sum(len(rational_pp_classes(t, p)) for p in range(n + 1))
        ok = ok and total > lefschetz_kernel_dim(t) == lef
    record(5, ok, "algebraic-class count strictly exceeds the Lagrangian-dual "
                  "bound at n=2,3 (6>5, 20>14)")


def test_criterion_06_mirror_class_condition():
    t = square_torus(2)
    s = find_lagrangian_splitting(t)
    mr = mirror_via_tduality(t, s)
    all_pass = True
    for p in range(3):
        for c in rational_pp_classes(t, p):
            img = fm_transform(s, c)
            all_pass = all_pass and mirror_class_condition(mr.mirror, img)
    bad = fm_transform(s, CohClass(t, mono(4, (0,))))
    some_fail = not mirror_class_condition(mr.mirror, bad)
    record(6, all_pass and some_fail,
           "every transported (p,p) class satisfies the interior/wedge "
           "condition; a non-(p,p) class fails it")


def test_criterion_07_coisotropic_acceptance_suite():
    i = RatMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    t4 = TorusData(2, i, RatMatrix.identity(4), RatMatrix.zero(4, 4), "T4")

    def unit(k):
        return tuple(1 if a == k else 0 for a in range(4))

    f_good = RatMatrix([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]])
    space_filling = check_abrane(AffineBrane(t4, tuple(unit(k) for k in range(4)), f_good))
    ok = space_filling.accepted and space_filling.k == 1

    f_bad = RatMatrix([[0, 1], [-1, 0]])
    lagrangian_count = 0
    for pair in combinations(range(4), 2):
        b = AffineBrane(t4, (unit(pair[0]), unit(pair[1])), f_bad)
        if coisotropy_witness(b) is not None:
            continue
        lagrangian_count += 1
        rep = check_abrane(b)
        ok = ok and not rep.accepted
        ok = ok and rep.rejection == "curvature_annihilates_foliation"
    ok = ok and lagrangian_count > 0

    for triple in combinations(range(4), 3):
        rep = check_abrane(AffineBrane(t4, tuple(unit(k) for k in triple),
                                       RatMatrix.zero(3, 3)))
        ok = ok and not rep.accepted and rep.rejection == "dimension_law"
    record(7, ok, "space-filling brane accepted with k=1; curved Lagrangians "
                  "rejected by condition (ii); 3-dimensional subtori rejected "
                  "by the dimension law")


def test_criterion_08_zero_mode_identity():
    rng = random.Random(8)
    checked = 0
    ok = True
    for _ in range(20):
        d = rng.choice((1, 2, 3))
        t = random_valid_torus(rng, d)
        for _ in range(50):
            coords = [rng.randint(-5, 5) for _ in range(4 * d)]
            w, m = coords[:2 * d], coords[2 * d:]
            _, _, p2_half, pbar2_half = zero_mode_momenta(t, w, m)
            ok = ok and (pbar2_half - p2_half == 2 * sum(a * b for a, b in zip(w, m)))
            checked += 1
    record(8, ok and checked == 1000,
           f"pairing identity holds exactly on {checked} random charges over "
           f"20 random tori")


def test_criterion_09_ccr_car_suite():
    start = time.perf_counter()
    ok = True
    for d in (1, 2):
        space = TruncatedFock(d, Fraction(3), RatMatrix.identity(2 * d))
        rows = ccr_car_sweep(space)
        fails = [r for r in rows if r["status"] == "fail"]
        bad_inconclusive = [r for r in rows
                            if r["status"] == "inconclusive" and r["tested_dimension"] > 0]
        ok = ok and not fails and not bad_inconclusive
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    record(9, ok, f"all guarded commutator/anticommutator identities pass at "
                  f"d<=2, cap=3 ({elapsed:.1f}s)")


def test_criterion_10_structure_invariants():
    rng = random.Random(10)
    ok = True
    for i in range(100):
        d = (i % 3) + 1
        t = random_valid_torus(rng, d)
        ok = ok and not failures(validate(t))
        ds = doubled(t)
        q = q_matrix(d)
        minus = -RatMatrix.identity(4 * d)
        ok = ok and ds.calI * ds.calI == minus
        ok = ok and ds.calJ * ds.calJ == minus
        ok = ok and ds.calI.transpose() * q * ds.calI == q
        ok = ok and ds.calJ.transpose() * q * ds.calJ == q
    record(10, ok, "doubled structures square to -id and preserve the "
                   "pairing on a 100-torus random suite at d<=3")


def test_criterion_11_hodge_rotation():
    ok = True
    pairs = []
    for d in (1, 2, 3):
        t = square_torus(d)
        pairs.append((t, mirror_via_tduality(t, find_lagrangian_splitting(t)).mirror))
    scaled = TorusData(1, square_torus(1).I, diag([4, 4]),
                       RatMatrix.zero(2, 2), "R4")
    pairs.append((scaled, mirror_via_tduality(
        scaled, find_lagrangian_splitting(scaled)).mirror))
    for t, mirror in pairs:
        d = t.d
        h1 = hodge_diamond(t)
        h2 = hodge_diamond(mirror)
        for p in range(d + 1):
            for q in range(d + 1):
                ok = ok and h1.h[p][q] == h2.h[d - p][q]
    record(11, ok, "hodge numbers of every constructed mirror pair at d<=3 "
                   "satisfy the rotation relation")
