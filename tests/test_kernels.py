"""The search filter: candidate order, budget cut, exact arithmetic, harness interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flattori import kernels, kernels_py

ROOT = Path(__file__).resolve().parents[1]


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
