"""The search filter: candidate order, budget cut, exact arithmetic, parity with a
brute-force scan, harness interface."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flattori import cli, equivalence, kernels, kernels_py
from flattori._record import Check
from flattori.equivalence import intertwiner_space
from flattori.errors import InconsistencyError
from flattori.exactlinear import RatMatrix
from flattori.torus import TorusData

ROOT = Path(__file__).resolve().parents[1]


def preserves_q(g, n):
    """``g^t q g == q`` for the split pairing, from the matrix product."""
    half = n // 2
    rows = [g[r * n:(r + 1) * n] for r in range(n)]
    qg = rows[half:] + rows[:half]
    return all(sum(rows[r][a] * qg[r][b] for r in range(n)) == (abs(a - b) == half)
               for a in range(n) for b in range(n))


def brute_force_filter(basis_flat, n, bound, budget, max_hits=1):
    """The reference scan: every candidate in canonical order, g built entry by entry."""
    k = len(basis_flat)
    nodes = 0
    hits = []
    for h in range(1, bound + 1):
        digits = [x for a in range(1, h + 1) for x in (a, -a)]
        for s in range(1, k + 1):
            for pos in combinations(range(k), s):
                for dig in product(digits, repeat=s):
                    if max(abs(x) for x in dig) != h:
                        continue
                    if nodes >= budget:
                        return hits, nodes, False
                    nodes += 1
                    g = [sum(c * basis_flat[p][t] for p, c in zip(pos, dig))
                         for t in range(n * n)]
                    if preserves_q(g, n):
                        coords = [0] * k
                        for p, c in zip(pos, dig):
                            coords[p] = c
                        hits.append(tuple(coords))
                        if len(hits) >= max_hits:
                            return hits, nodes, False
    return hits, nodes, True


def identity_instance(n):
    flat = [0] * (n * n)
    for i in range(n):
        flat[i * n + i] = 1
    return flat


def test_budget_stops_enumeration():
    basis = [identity_instance(4), identity_instance(4)]
    basis[1][0] = 2  # make the second one different
    hits, nodes, exhausted = kernels_py.run_filter(basis, 4, 2, budget=3, max_hits=99)
    assert nodes == 3
    assert not exhausted


def test_candidate_order_is_height_then_support():
    # with one basis matrix equal to the identity, the first candidates are
    # +-1 times each matrix, in basis order
    basis = [identity_instance(4)]
    hits, nodes, exhausted = kernels_py.run_filter(basis, 4, 2, 10 ** 4, 99)
    assert exhausted
    assert hits == [(1,), (-1,)]


def test_big_entries_stay_exact():
    # entries past the int64 range of any fixed-width arithmetic
    basis = [[2 ** 33] * 16]
    hits, nodes, exhausted = kernels.run_filter(basis, 4, 2, 100, 4)
    assert (hits, nodes, exhausted) == ([], 4, True)


def basis_matrix(n):
    """One basis matrix: zero, q-preserving (+-identity, +-q), huge, or small random."""
    identity = identity_instance(n)
    half = n // 2
    swap = [int(abs(t // n - t % n) == half) for t in range(n * n)]
    return st.one_of(
        st.just([0] * (n * n)),
        st.sampled_from([identity, swap]).flatmap(
            lambda m: st.sampled_from([m, [-x for x in m]])),
        st.lists(st.sampled_from([0, 0, 2 ** 33, -(2 ** 35) - 1]), min_size=n * n,
                 max_size=n * n),
        st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n),
    )


@st.composite
def filter_instances(draw):
    n = draw(st.sampled_from([4, 8]))
    k = draw(st.integers(1, 4 if n == 4 else 3))
    basis = draw(st.lists(basis_matrix(n), min_size=k, max_size=k))
    bound = draw(st.integers(1, 2))
    window = (2 * bound + 1) ** k - 1
    budget = draw(st.integers(-1, window + 1))
    max_hits = draw(st.integers(1, 5))
    return basis, n, bound, budget, max_hits


# +-identity and a zero matrix: hits at several supports and digits
HIT_RICH = [identity_instance(4), [0] * 16, [-x for x in identity_instance(4)]]


@settings(max_examples=150, deadline=None)
@given(filter_instances())
@example((HIT_RICH, 4, 2, 17, 3))
@example((HIT_RICH, 4, 2, 124, 99))
@example((HIT_RICH, 4, 2, 125, 99))
def test_filter_matches_brute_force(instance):
    # same hits, node count and exhausted flag as the candidate-by-candidate
    # scan, including budgets that cut inside a leaf block and hit caps > 1
    assert kernels.run_filter(*instance) == brute_force_filter(*instance)


def test_completed_height_counts_whole_shells():
    # shells 1..h of K coordinates hold (2h+1)^K - 1 candidates
    assert [kernels_py.completed_height(2, nodes) for nodes in (0, 7, 8, 23, 24, 48)] == \
        [0, 0, 1, 1, 2, 3]


def test_hit_failing_verify_map_is_an_internal_error(monkeypatch, capsys, square1, torus_file):
    # a filter hit is checked once, by verify_map; a failure there is a bug,
    # which check-iso reports as one error line with exit 2
    monkeypatch.setattr(equivalence, "verify_map",
                        lambda m: equivalence.Certificate(m, (Check("preserves_q", False),)))
    with pytest.raises(InconsistencyError, match="internal error"):
        equivalence.search_relation(square1, square1, "iso", 1)
    path = torus_file(square1, "square1.json")
    assert cli.main(["check-iso", path, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: search produced a non-verifying candidate (internal error)\n"


@pytest.mark.parametrize("shear", [False, True], ids=["square1", "sheared1"])
def test_d1_derived_refute_windows_are_exhausted(square1, stretched1, shear):
    # the scan alone on check-derived-eq square1|sheared1 stretched1 at the
    # default bound 2 (the command refutes by the lattice check before it):
    # the 8-matrix basis gives 5^8 - 1 candidates and none preserves q
    source = square1
    if shear:
        s = RatMatrix([[1, 1], [0, 1]])
        source = TorusData(1, s.inverse() * square1.I * s, s.transpose() * square1.G * s,
                           s.transpose() * square1.B * s, "sheared1")
    basis = intertwiner_space(source, stretched1, "derived_eq")
    flat = [[int(x) for row in m.entries for x in row] for m in basis]
    assert kernels.run_filter(flat, 4, 2, 10 ** 7) == ([], 390624, True)


def test_python_is_the_only_lane():
    assert kernels.available_lanes() == ("python",)
    with pytest.raises(ValueError):
        kernels.run_filter([identity_instance(4)], 4, 1, 100, lane="auto")


def test_benchmark_probe_counts_the_d1_derived_window(square1, stretched1, torus_file):
    # perfbench/probe.py calls available_lanes() and run_filter(..., lane=...)
    # by name; the d=1 derived_eq basis has 8 matrices, so bound 1 covers 3^8 - 1
    a = torus_file(square1, "square1.json")
    b = torus_file(stretched1, "stretched1.json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe.py"),
                           a, b, "derived_eq", "1"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["available_lanes"] == ["python"]
    assert out["lanes"]["python"]["candidates"] == 6560


def test_benchmark_trace_plan_resolves():
    # perfbench/traced_cli.py wraps the layer functions by (module, attribute);
    # a name it cannot find would stop a traced benchmark run
    path = ROOT / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    assert traced_cli.PLAN
    for span, modname, attr in traced_cli.PLAN:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (span, modname, attr)


def test_benchmark_oracle_reads_search_verdicts(capsys, monkeypatch, square1, stretched1,
                                                torus_file):
    # perfbench/oracle.py sorts check-* reports into found/refuted/open/fail;
    # the benchmark's decided_frac counts its REFUTED and FOUND outcomes
    from types import SimpleNamespace

    from flattori import jsonio
    from flattori.cli import main
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("oracle", ROOT / "perfbench" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    a = torus_file(square1, "square1.json")
    b = torus_file(stretched1, "stretched1.json")
    source, target = (oracle.torus_from_json(jsonio.torus_to_json(t))
                      for t in (square1, stretched1))

    def outcome(command, kind, related):
        rc = main([command, a, b])
        captured = capsys.readouterr()
        res = SimpleNamespace(rc=rc, stdout=captured.out, stderr=captured.err)
        return oracle.search_outcome(res, kind, source, target, related)[0]

    assert outcome("check-iso", "iso", related=False) == oracle.REFUTED
    assert outcome("check-mirror", "mirror", related=False) == oracle.REFUTED
    assert outcome("check-iso", "iso", related=True) == oracle.FAIL
    assert outcome("check-derived-eq", "derived_eq", related=False) == oracle.REFUTED
