#!/usr/bin/env python3
"""Outside-in benchmark of the flattori command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify|refute|structures \
        --seed N --seconds S --trace 0|1

Every command runs as a fresh ``python -m flattori.cli`` process, started one
at a time from this process: a closed loop with a single client.  Inputs
are generated from the seed by ``gen.py``; every outcome is checked by
``oracle.py``.  A run repeats whole passes over the workload's rows until
``--seconds`` have elapsed (at least one pass).  Times are reported in
seconds at a fixed reference CPU speed, sampled on the CPU the commands run
on (see ``HostClock``); the raw times are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` additionally
makes two passes through ``traced_cli.py``, which records spans around the
public functions of each layer, and prints the per-layer metrics, the
tracing overhead and the exact-count self-check.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
environment, the outcome of every command, and the metrics as a table.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
from oracle import FAIL, FOUND, REFUTED  # noqa: E402
from traced_cli import read_spans  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
PROBE = os.path.join(HERE, "probe.py")

CMD_TIMEOUT_S = 150
# setup_s samples: a few at the start, then one before every workload row of
# the untraced passes, so the median spans the run rather than its first second.
SETUP_REPS = 3
# Node budgets keep every row bounded.  The square3 certificates sit at
# nodes 3209-5593 for every seed tried.  The rows budgeted by OPEN_BUDGET end
# "open" at this commit: square2/stretched2 has no certificate in its
# 3^16 - 1 window, and the first rnd3 certificate lies past node 50 for 48 of
# the 49 seeds tried (often past node 30000 of its 3^36 - 1 window).
D3_BUDGET = 20000
OPEN_BUDGET = 50

# Host-speed reference.  This host's CPUs change speed by up to 1.7x over
# seconds and minutes, each CPU on its own, in CPU time as much as in wall
# time, so raw times of the same code spread past any useful bound from one
# run to the next.  The benchmark therefore pins itself and its commands to
# one CPU, and a thread of its own (HostClock) times a fixed exact-arithmetic
# task on that CPU every SAMPLE_EVERY_S, in thread CPU time so that waiting
# for the command or the GIL does not count.  Each command's wall and CPU
# time are scaled by REF_NOMINAL_S over the mean sample taken while it ran
# (padded by SPEED_PAD_S): the times reported are seconds at a fixed
# reference speed, REF_NOMINAL_S being the task's time on a quiet 2-core
# x86-64 VM under CPython 3.11.7.  The task is the benchmark's own code, so
# the program cannot move it.  The sampler takes about a tenth of the CPU
# while a command runs: wall_s includes that share, cpu_s does not.
SAMPLE_EVERY_S = 0.02
SPEED_PAD_S = 0.1
REF_NOMINAL_S = 0.0018

SEARCH_COMMAND = {"iso": "check-iso", "mirror": "check-mirror", "derived_eq": "check-derived-eq"}

# Exact counts the traced run must reproduce (span name or counter, row).
BASELINE = {
    "certify": [("torus.zero_mode_momenta.calls", "check-iso square2 sheared2", 13122),
                ("probe.candidates", "check-derived-eq square2 square2", 68417)],
    "refute": [("torus.zero_mode_momenta.calls", "check-iso square2 stretched2", 13122),
               ("kernels.run_filter.candidates", "check-derived-eq square1 stretched1", 390624)],
    "structures": [("fock.basis_dim", "fock-verify d2 cap3", 4791)],
}
# Counts compared between the two traced passes, command by command.
REPEAT_COUNTS = ("kernels.run_filter.candidates", "torus.zero_mode_momenta.calls",
                 "torus.validate.calls", "exactlinear.rref.calls", "fock.basis_dim")


@dataclass
class Result:
    label: str
    argv: list
    rc: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mib: float
    span_file: str | None
    outcome: str = ""
    reason: str = ""
    start: float = 0.0
    speed: float = 1.0

    @property
    def nwall(self):
        """Wall seconds at the reference host speed."""
        return self.wall * self.speed

    @property
    def ncpu(self):
        """CPU seconds at the reference host speed."""
        return self.cpu * self.speed


_REF_N = 6
_REF_A = gen.matmul(
    [[Fraction(1 if i == j else ((i * 5 + j * 3) % 7 - 3 if i > j else 0))
      for j in range(_REF_N)] for i in range(_REF_N)],
    [[Fraction(i + 2 if i == j else ((i * 3 + j * 5) % 5 - 2 if j > i else 0), 1 + (i + j) % 3)
      for j in range(_REF_N)] for i in range(_REF_N)])
_REF_I = gen.identity(_REF_N)


class HostClock:
    """Samples the speed of this process's CPU from a thread of its own.

    Each sample is the thread CPU time of one Fraction inverse and product
    of a fixed 6x6 matrix, stamped with the perf_counter at its middle.
    """

    def __init__(self):
        self.stamps = []
        self.seconds = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-clock", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.wait(SAMPLE_EVERY_S):
            wall = time.perf_counter()
            start = time.thread_time()
            product = gen.matmul(_REF_A, gen.inverse(_REF_A))
            seconds = time.thread_time() - start
            assert product == _REF_I
            self.stamps.append((wall + time.perf_counter()) / 2)
            self.seconds.append(seconds)

    def speed(self, start, end):
        """REF_NOMINAL_S over the mean sample within SPEED_PAD_S of [start, end]."""
        lo = bisect.bisect_left(self.stamps, start - SPEED_PAD_S)
        hi = bisect.bisect_right(self.stamps, end + SPEED_PAD_S)
        window = self.seconds[lo:hi]
        return REF_NOMINAL_S / statistics.fmean(window) if window else 1.0


class Runner:
    """Starts one fresh process per command and waits for it with rusage."""

    def __init__(self, inputs, scratch, traced=False):
        self.inputs = inputs
        self.scratch = scratch
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.count = 0

    def __call__(self, label, *args):
        argv = [str(a) for a in args]
        self.count += 1
        span_file = None
        if self.traced:
            span_file = os.path.join(self.scratch, f"spans-{self.count}.bin")
            cmd = [sys.executable, TRACED_CLI, span_file, "--"] + argv
        else:
            cmd = [sys.executable, "-m", "flattori.cli"] + argv
        out_path = os.path.join(self.scratch, "stdout")
        err_path = os.path.join(self.scratch, "stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.inputs, stdout=out, stderr=err, env=self.env)
            watchdog = threading.Timer(CMD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        return Result(label, argv, proc.returncode, stdout, stderr, wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, span_file,
                      start=start)


# ---------------------------------------------------------------------------
# workloads: each returns the pass's Results with outcome and reason set
# ---------------------------------------------------------------------------


def _search_rows(run, tori, rows, related):
    results = []
    for kind, a, b, opts in rows:
        cmd = SEARCH_COMMAND[kind]
        res = run(f"{cmd} {a} {b}", cmd, f"{a}.json", f"{b}.json", *opts)
        res.outcome, res.reason = oracle.search_outcome(res, kind, tori[a], tori[b], related)
        results.append(res)
    return results


def certify(run, tori, ctx):
    """Pairs related by construction: the right verdict is `found`."""
    d3 = ["--bound", 1, "--budget", D3_BUDGET]
    return _search_rows(run, tori, [
        ("iso", "square1", "sheared1", ["--bound", 2]),
        ("mirror", "square1", "square1", ["--bound", 2]),
        ("mirror", "sheared1", "square1", ["--bound", 2]),
        ("iso", "sheared1", "square1", ["--bound", 2]),
        ("derived_eq", "sheared1", "square1", []),
        ("iso", "rnd1", "basis_rnd1", ["--bound", 2]),
        ("derived_eq", "rnd1", "basis_rnd1", []),
        ("iso", "square2", "sheared2", ["--bound", 1]),
        ("iso", "square3", "sheared3", d3),
        ("mirror", "square3", "square3", d3),
        ("iso", "rnd3", "basis_rnd3", ["--bound", 1, "--budget", OPEN_BUDGET]),
    ], related=True)


def refute(run, tori, ctx):
    """Pairs separated by an invariant: `found` is always wrong."""
    return _search_rows(run, tori, [
        ("iso", "square1", "stretched1", ["--bound", 2]),
        ("mirror", "square1", "stretched1", ["--bound", 2]),
        ("iso", "sheared1", "stretched1", ["--bound", 2]),
        ("mirror", "sheared1", "stretched1", ["--bound", 2]),
        ("derived_eq", "square1", "stretched1", []),
        ("derived_eq", "sheared1", "stretched1", []),
        ("iso", "square2", "stretched2", ["--bound", 1, "--budget", OPEN_BUDGET]),
    ], related=False)


def _report(res):
    try:
        return json.loads(res.stdout)
    except ValueError:
        return None


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _judge(res, ok, positive=True, why="output differs from the expected value"):
    res.outcome = (FOUND if positive else REFUTED) if ok else FAIL
    res.reason = "checked" if ok else why
    return res


def structures(run, tori, ctx):
    """Construction and checking commands, with a read-after-write pipeline."""
    inputs = ctx["inputs"]
    out = []
    mirrors = {}
    for name in ("square2", "square3", "rnd2"):
        res = run(f"mirror {name}", "mirror", "--torus", f"{name}.json",
                  "--out-torus", f"mirror_{name}.json", "--out-cert", f"cert_{name}.json")
        written = _read_json(os.path.join(inputs, f"mirror_{name}.json"))
        cert = _read_json(os.path.join(inputs, f"cert_{name}.json"))
        ok = res.rc == 0 and written is not None and cert is not None
        if ok:
            mirror = oracle.torus_from_json(written)
            ok = (oracle.torus_is_valid(mirror) and cert.get("kind") == "mirror"
                  and oracle.certificate_ok(cert.get("g"), "mirror", tori[name], mirror))
            mirrors[name] = (mirror, _report(res))
        out.append(_judge(res, ok, why="mirror or its certificate does not re-check"))

    for label, path in (("hodge mirror_square3", "mirror_square3.json"), ("hodge rnd3", "rnd3.json")):
        res = run(label, "hodge", path)
        out.append(_judge(res, res.rc == 0 and oracle.hodge_ok(oracle.parse_report(res), 3)))

    res = run("pp-classes square2 p1", "pp-classes", "square2.json", "--p", 1)
    basis = (oracle.parse_report(res) or {}).get("basis") or []
    ok = (res.rc == 0 and len(basis) == 4
          and all(oracle.is_11_class(c, tori["square2"]) for c in basis))
    out.append(_judge(res, ok, why="(1,1) basis of square2 wrong"))
    report = mirrors.get("square2", (None, None))[1]
    if ok and report:
        with open(os.path.join(inputs, "class.json"), "w") as fh:
            json.dump(basis[int(ctx["pick"] * len(basis))], fh)
        split = report["inputs"]["split"]
        split_arg = "|".join(";".join(",".join(map(str, v)) for v in split[h]) for h in "AB")
        res = run("fm square2", "fm", "--torus", "square2.json", "--split", split_arg,
                  "--class", "class.json")
        result = oracle.parse_report(res) or {}
        ok = (res.rc == 0 and "image" in result and result.get("mirror") is not None
              and oracle.torus_from_json(result["mirror"]) == mirrors["square2"][0])
        out.append(_judge(res, ok, why="fm image missing or on another mirror"))
        if ok:
            with open(os.path.join(inputs, "image.json"), "w") as fh:
                json.dump(result["image"], fh)
            res = run("check-mirror-class square2", "check-mirror-class",
                      "--torus", "mirror_square2.json", "--class", "image.json")
            result = oracle.parse_report(res) or {}
            out.append(_judge(res, res.rc == 0 and result.get("satisfied") is True,
                              why="transported (1,1) class fails the mirror-class condition"))

    res = run("lefschetz square3", "lefschetz", "square3.json")
    result = oracle.parse_report(res) or {}
    out.append(_judge(res, res.rc == 0 and result.get("kernel_dimension") == 14
                      and result.get("expected") == 14))

    res = run("beta square2", "beta", "square2.json")
    result = oracle.parse_report(res) or {}
    out.append(_judge(res, res.rc == 0 and result.get("torsion") is True
                      and result.get("projection_nonzero") is False))

    for name, rejection in ctx["branes"].items():
        res = run(f"abrane-check {name}", "abrane-check", "--brane", f"brane_{name}.json")
        result = oracle.parse_report(res) or {}
        if rejection is None:
            ok = res.rc == 0 and result.get("accepted") is True and result.get("k") == 1
        else:
            ok = (res.rc == 1 and result.get("accepted") is False
                  and result.get("rejection") == rejection)
        out.append(_judge(res, ok, positive=rejection is None,
                          why=f"expected {'acceptance with k=1' if rejection is None else rejection}"))

    res = run("fock-verify d2 cap3", "fock-verify", "--d", 2, "--cap", 3)
    result = oracle.parse_report(res) or {}
    out.append(_judge(res, res.rc == 0 and result.get("fail") == 0
                      and result.get("basis_dimension") == 4791))
    return out


WORKLOADS = {"certify": certify, "refute": refute, "structures": structures}


# ---------------------------------------------------------------------------
# traced-pass aggregation
# ---------------------------------------------------------------------------


def command_layers(res):
    """Per-span-name calls, outermost inclusive seconds and self seconds, plus counters."""
    header, name, start, end, parent, outer = read_spans(res.span_file)
    n = header["n"]
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    agg = {}
    for i in range(n):
        key = header["names"][name[i]]
        calls, incl, self_ns = agg.get(key, (0, 0, 0))
        dur = end[i] - start[i]
        agg[key] = (calls + 1, incl + (dur if outer[i] else 0), self_ns + dur - child[i])
    counts = {}
    for key, (calls, incl, self_ns) in agg.items():
        counts[f"{key}.calls"] = calls
        counts[f"{key}.s"] = incl / 1e9
        counts[f"{key}.self_s"] = self_ns / 1e9
    counts.update(header["counters"])
    spectrum = counts.get("equivalence.spectrum_fingerprint.calls", 0)
    result = oracle.parse_report(res) or {}
    used = res.rc == 1 and result.get("fingerprints_match") is not None
    counts["fingerprints.useful"] = spectrum if used else 0
    os.remove(res.span_file)
    return counts


def pass_layers(results):
    per_command = {r.label: command_layers(r) for r in results}
    total = {}
    for counts in per_command.values():
        for key, value in counts.items():
            total[key] = (max(total.get(key, 0), value) if key == "intlat.max_coeff_bits"
                          else total.get(key, 0) + value)
    return total, per_command


def ratio(a, b):
    return a / b if b else 0.0


# Per-layer metrics read directly from a traced pass's totals; a layer the
# workload never calls reads 0.
LAYER_TOTALS = tuple(
    [f"torus.{f}.{k}" for f in ("validate", "zero_mode_momenta", "doubled")
     for k in ("calls", "self_s")]
    + ["torus.narain_form.calls",
       "equivalence.spectrum_fingerprint.calls", "equivalence.spectrum_fingerprint.s",
       "equivalence.intertwiner_space.s", "equivalence.intertwiner_space.k",
       "equivalence.search_relation.self_s",
       "equivalence.verify_map.calls", "equivalence.verify_map.s",
       "kernels.run_filter.s", "kernels.run_filter.candidates"]
    + [f"exactlinear.{op}.{k}" for op in ("rref", "inverse", "matmul", "wedge")
       for k in ("calls", "self_s")]
    + ["exactlinear.det.calls", "exactlinear.induced_map.self_s",
       "intlat.integral_coordinate_lattice.s", "intlat.pair_reduce.s", "intlat.max_coeff_bits"]
    + [f"{span}.s" for span in (
        "tduality.find_lagrangian_splitting", "tduality.mirror_via_tduality",
        "cohomology.hodge_diamond", "cohomology.rational_pp_classes",
        "cohomology.lefschetz_kernel_dim", "cohomology.fm_transform",
        "cohomology.mirror_class_condition", "cohomology.beta_torsion",
        "abranes.check_abrane", "abranes.wedge_characterization",
        "abranes.anomaly_check_affine", "fock.TruncatedFock", "fock.ccr_car_sweep",
        "jsonio.load", "jsonio.dump")]
    + ["fock.basis_dim", "fock.ccr_car_sweep.checks", "cli.main.self_s"])


def layer_metrics(total, lanes):
    m = {name: total.get(name, 0) for name in LAYER_TOTALS}
    m["equivalence.spectrum_fingerprint.useful_ratio"] = ratio(
        total.get("fingerprints.useful", 0), total.get("equivalence.spectrum_fingerprint.calls", 0))
    m["kernels.run_filter.hit_ratio"] = ratio(total.get("kernels.run_filter.hits", 0),
                                              total.get("kernels.run_filter.candidates", 0))
    for lane in ("python", "compiled"):
        m[f"kernels.run_filter.cand_per_s.{lane}"] = lanes.get(lane, {}).get("cand_per_s", 0.0)
    return m


# ---------------------------------------------------------------------------
# metrics and output
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "cmd_p50_s": "s",
                    "peak_rss_mb": "MiB", "correct_frac": "ratio", "decided_frac": "ratio",
                    "raw_wall_s": "s", "raw_setup_s": "s", "host_speed_p50": "ratio"}
# raw_wall_s, raw_setup_s and host_speed_p50 are printed but left out of the
# result line: raw times of the same code spread 15-30% across ten seeds on
# this host, past the widest bound allowed (see HostClock).
REPORTED = ("setup_s", "wall_s", "cpu_s", "cmd_p50_s", "peak_rss_mb", "correct_frac",
            "decided_frac")


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if ".cand_per_s." in name:
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def probe(runner_env, inputs, source, target, kind, bound):
    proc = subprocess.run([sys.executable, PROBE, f"{source}.json", f"{target}.json", kind,
                           str(bound)], cwd=inputs, env=runner_env, capture_output=True,
                          text=True, timeout=CMD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def median_pass(passes, field):
    return statistics.median(sum(getattr(r, field) for r in p) for p in passes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flattori", "cli.py")):
        print(f"error: no flattori sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    os.makedirs(TMP_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    try:
        with HostClock() as clock:
            return measure(args, scratch, clock, cpu)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


def settle(clock, results):
    """Set each result's speed from the host samples taken while it ran."""
    for r in results:
        r.speed = clock.speed(r.start, r.start + r.wall)


def measure(args, scratch, clock, cpu):
    inputs = os.path.join(scratch, "inputs")
    os.makedirs(inputs)
    tori, branes = gen.generate(args.seed, inputs)
    ctx = {"inputs": inputs, "branes": branes, "pick": random.Random(args.seed).random()}
    workload = WORKLOADS[args.workload]
    run = Runner(inputs, scratch)

    load_before = os.getloadavg()
    setup = []

    def sample_setup():
        res = run("validate square1", "validate", "square1.json")
        setup.append(_judge(res, res.rc == 0 and (oracle.parse_report(res) or {}).get("ok") is True))

    def setup_then(label, *argv):
        sample_setup()
        return run(label, *argv)

    for _ in range(SETUP_REPS):
        sample_setup()
    lanes_probe = subprocess.run(
        [sys.executable, "-c", "from flattori import kernels; print(' '.join(kernels.available_lanes()))"],
        env=run.env, capture_output=True, text=True, timeout=CMD_TIMEOUT_S)
    lanes = lanes_probe.stdout.split()

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(workload(setup_then, tori, ctx))
    settle(clock, setup + [r for p in passes for r in p])

    traced = []
    per_layer = {}
    if args.trace:
        trun = Runner(inputs, scratch, traced=True)
        for _ in range(2):
            results = workload(trun, tori, ctx)
            traced.append((results, *pass_layers(results)))
        settle(clock, [r for t in traced for r in t[0]])
        if args.workload == "refute":
            source = "kernels.run_filter called directly on the exhaustive basis of " \
                     "check-derived-eq square1 stretched1"
            lane_table = probe(run.env, inputs, "square1", "stretched1", "derived_eq", 2)["lanes"]
        else:
            source = "traced pass, per lane"
            lane_table = span_lane_table(traced[0][1])
        for lane, row in sorted(lane_table.items()):
            print(f"lane {lane}: {row['candidates']} candidates in {row['seconds']:.3f}s "
                  f"= {row['cand_per_s']:.0f}/s ({source})")
        per_layer = traced_metrics(args.workload, traced, passes, lane_table, run.env, inputs)
    load_after = os.getloadavg()

    untraced = [r for p in passes for r in p]
    rows = untraced + [r for t in traced for r in t[0]]
    every = setup + rows
    attempted = len(every)
    failed = sum(r.outcome == FAIL for r in every)
    walls = [r.nwall for r in untraced]
    e2e = {
        "setup_s": statistics.median(r.nwall for r in setup),
        "wall_s": median_pass(passes, "nwall"),
        "cpu_s": median_pass(passes, "ncpu"),
        "cmd_p50_s": statistics.median(walls),
        "peak_rss_mb": max(r.rss_mib for r in setup + untraced),
        "correct_frac": (attempted - failed) / attempted,
        "decided_frac": sum(r.outcome in (FOUND, REFUTED) for r in rows) / len(rows),
        "raw_wall_s": median_pass(passes, "wall"),
        "raw_setup_s": statistics.median(r.wall for r in setup),
        "host_speed_p50": statistics.median(r.speed for r in setup + untraced),
    }

    env = {"python": platform.python_version(), "implementation": platform.python_implementation(),
           "nproc": os.cpu_count(), "lanes": {lane: ("present" if lane in lanes else "absent")
                                              for lane in ("python", "compiled")},
           "search_lane": lanes[-1] if lanes else "none",
           "loadavg_before": load_before, "loadavg_after": load_after,
           "workload": args.workload, "seed": args.seed, "passes": len(passes),
           "pinned_cpu": cpu, "host_samples": len(clock.seconds),
           "traced_passes": len(traced), "loop": "closed, 1 client, 1 process at a time"}
    if traced:
        env["search_lane_traced"] = {k.split(".")[2]: v for k, v in traced[0][1].items()
                                     if k.startswith("kernels.lane.") and k.endswith(".calls")}
    print("env " + json.dumps(env, sort_keys=True))
    for res in setup[:1] + [r for p in passes[:1] for r in p]:
        print(f"cmd {res.outcome:8s} {res.wall:8.3f}s (x{res.speed:.3f}) rc={res.rc} "
              f"{res.label}: {res.reason}")
    for res in every:
        if res.outcome == FAIL:
            print(f"FAIL {res.label} (flattori {' '.join(res.argv)}): {res.reason}")
    print(f"samples: setup_s {len(setup)} runs; wall_s/cpu_s {len(passes)} passes; "
          f"cmd_p50_s {len(walls)} commands; outcomes over {attempted} commands")
    metrics = dict(per_layer) if args.trace else {k: e2e[k] for k in REPORTED}
    for name, value in (list(e2e.items()) + list(per_layer.items())):
        print(f"metric {name:45s} {value:16.6f} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def traced_metrics(workload, traced, passes, lane_table, env, inputs):
    (results_a, total_a, per_a), (results_b, total_b, per_b) = traced
    m = layer_metrics(total_a, lane_table)
    m_b = layer_metrics(total_b, lane_table)
    for key, value in m.items():
        if unit_of(key) == "s":
            m[key] = (value + m_b[key]) / 2
    untraced = median_pass(passes, "nwall")
    traced_wall = statistics.mean(sum(r.nwall for r in res) for res in (results_a, results_b))
    m["trace.overhead_frac"] = traced_wall / untraced - 1

    repeat = 0
    for label, counts in per_a.items():
        for key in REPEAT_COUNTS:
            if counts.get(key, 0) != per_b.get(label, {}).get(key, 0):
                repeat += 1
                print(f"selfcheck repeat: {label}: {key} {counts.get(key, 0)} then "
                      f"{per_b.get(label, {}).get(key, 0)}")
    baseline = 0
    for key, label, want in BASELINE[workload]:
        if key == "probe.candidates":
            got = probe(env, inputs, "square2", "square2", "derived_eq", 2)["lanes"]["python"]["candidates"]
        else:
            got = per_a.get(label, {}).get(key, 0)
        status = "ok" if got == want else "MISMATCH"
        baseline += got != want
        print(f"selfcheck baseline {status}: {label}: {key} = {got} (baseline {want})")
    m["selfcheck.repeat_mismatches"] = repeat
    m["selfcheck.baseline_mismatches"] = baseline
    return m


def span_lane_table(total):
    table = {}
    for lane in ("python", "compiled"):
        seconds = total.get(f"kernels.lane.{lane}.s", 0.0)
        candidates = total.get(f"kernels.lane.{lane}.candidates", 0)
        if candidates:
            table[lane] = {"candidates": candidates, "seconds": seconds,
                           "cand_per_s": ratio(candidates, seconds)}
    return table


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
