"""Every function in ``src/flattori`` is run by a command.

Each subcommand runs in process on small inputs, with error, undecided,
refuted and recovery-failure paths among them, and so do ``-h`` and the
usage errors, under ``sys.setprofile``.
Every ``def`` that ``ast`` finds in the package, methods and nested
functions included, must be entered by one of those runs, apart from the
``__dunder__`` methods and the entries of :data:`ALLOWLIST`.  Each entry
says why it stays; none may be entered by a command or be missing from the
package, and each one the benchmark harness reads must still be named by the
harness files its entry lists, so the list can only shrink with them.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import flattori
from flattori import cli, jsonio
from flattori.exactlinear import Q, RatMatrix
from flattori.torus import TorusData, square_torus
from test_cli import GOLDEN_TORUS, OPEN1, OPEN2

SRC = Path(flattori.__file__).resolve().parent
ROOT = SRC.parents[1]

HARNESS = "read by the benchmark harness"
FIXTURE = "builds the fixtures that tier1.yml and the tests import"

# dotted name -> (why no command runs it, {harness file: text that names it})
ALLOWLIST = {
    "equivalence.intertwiner_space": (HARNESS, {
        "perfbench/traced_cli.py": '"intertwiner_space"',
        "perfbench/probe.py": "intertwiner_space("}),
    "exterior.induced_map": (HARNESS + ", as the trace plan's exactlinear.induced_map", {
        "perfbench/traced_cli.py": '"induced_map"'}),
    "fock.TruncatedFock.basis": (HARNESS + ", by the fock.basis_dim counter", {
        "perfbench/traced_cli.py": "r.basis"}),
    "kernels.available_lanes": (HARNESS, {
        "perfbench/run.py": "kernels.available_lanes()",
        "perfbench/probe.py": "kernels.available_lanes()"}),
    "torus.zero_mode_momenta": (HARNESS + ", by the trace plan; the tests' oracle for "
                                "narain_form", {
        "perfbench/traced_cli.py": '"zero_mode_momenta"'}),
    "torus.standard_complex_structure": (FIXTURE, {}),
    "torus.square_torus": (FIXTURE, {}),
    "torus.random_valid_torus": (FIXTURE, {}),
    "exactlinear.RatMatrix.diag": (FIXTURE, {}),
    "fock.OscillatorOp.int_column": (
        "the adjointness test reads columns outside the guarded prefix", {}),
}


def package_defs():
    """``{(file, first line of its code object): dotted name}`` of every def.

    A decorated function's code object starts at its first decorator.
    """
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(path, first)] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), path.stem)
    return defs


def _torus_json(i, g, b, label):
    return jsonio.torus_to_json(TorusData(len(i) // 2, RatMatrix(i), RatMatrix(g),
                                          RatMatrix(b), label))


def _write_inputs(tmp):
    """The input files of :func:`command_runs`, written into ``tmp``."""
    t4_i = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    zero4 = [[0] * 4 for _ in range(4)]
    unit4 = [[int(i == j) for j in range(4)] for i in range(4)]
    files = {
        "square1": jsonio.torus_to_json(square_torus(1, "square")),
        "square2": jsonio.torus_to_json(square_torus(2, "square2")),
        "stretched1": _torus_json([[0, -2], [Q(1, 2), 0]], [[1, 0], [0, 4]],
                                  [[0, 0], [0, 0]], "stretched"),
        # no certificate, and a window past the budget: the shell refutes
        "stretched2": _torus_json([[0, -2, 0, 0], [Q(1, 2), 0, 0, 0], [0, 0, 0, -1],
                                   [0, 0, 1, 0]], [[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 1, 0],
                                                   [0, 0, 0, 1]], zero4, "stretched2"),
        # a d = 1 pair whose derived_eq lattices agree, so the scan runs
        "open1": jsonio.torus_to_json(OPEN1),
        "open2": jsonio.torus_to_json(OPEN2),
        "bad": _torus_json([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 0], [0, 0]], "bad"),
        # B(e0, e2) = 1 on the omega-isotropic half (e0, e2): mirror recovery fails
        "b_on_a": _torus_json(square_torus(2).I.entries, unit4,
                              [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]],
                              "b_on_a"),
        "t4": _torus_json(t4_i, unit4, zero4, "T4"),
        # B has a nonzero (0,2)-part, so beta projects it
        "generic2": GOLDEN_TORUS,
        "map": {"kind": "iso", "source": "square1.json", "target": "square1.json",
                "g": [[int(i == j) for j in range(4)] for i in range(4)]},
        "bad_map": {"kind": "iso", "source": "square1.json", "target": "stretched1.json",
                    "g": [[int(i == j) for j in range(4)] for i in range(4)]},
        "one": {"grade_terms": [{"indices": [], "coeff": "1"}]},
        "e0": {"grade_terms": [{"indices": [0], "coeff": "1"}]},
        "e02": {"grade_terms": [{"indices": [0, 2], "coeff": "1"}]},
        "config": {"bound": 1},
        "space_filling": {"torus_ref": "t4.json", "Y_basis": unit4,
                          "translation": ["0", "0", "0", "0"],
                          "F": [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]},
        "lagrangian": {"torus_ref": "t4.json", "Y_basis": [[1, 0, 0, 0], [0, 0, 1, 0]],
                       "F": [["0", "0"], ["0", "0"]]},
        "curved_lagrangian": {"torus_ref": "t4.json", "Y_basis": [[1, 0, 0, 0], [0, 0, 1, 0]],
                              "F": [[0, 1], [-1, 0]]},
        "three_dim": {"torus_ref": "t4.json", "Y_basis": unit4[:3],
                      "F": [["0"] * 3 for _ in range(3)]},
        "isotropic_line": {"torus_ref": "t4.json", "Y_basis": unit4[:1], "F": [["0"]]},
        "flat_space_filling": {"torus_ref": "t4.json", "Y_basis": unit4, "F": zero4},
    }
    for name, data in files.items():
        (tmp / f"{name}.json").write_text(json.dumps(data))
    (tmp / "malformed.json").write_text("{")


def command_runs(tmp):
    """``(argv, exit code)`` of each command run on the files in ``tmp``."""
    def f(name):
        return str(tmp / f"{name}.json")

    split2 = "1,0,0,0;0,0,1,0|0,1,0,0;0,0,0,1"
    return [
        (["validate", f("square1")], 0),
        (["validate", f("bad")], 1),
        (["validate", f("malformed")], 2),
        (["doubled", f("generic2")], 0),
        (["spectrum", f("square1")], 0),
        (["spectrum", f("square1"), "--height", "-1"], 2),
        (["check-iso", f("square1"), f("square1")], 0),
        (["check-iso", f("square1"), f("stretched1")], 1),
        (["check-iso", f("square1"), f("square2")], 2),
        (["check-iso", f("square2"), f("stretched2"), "--bound", "1", "--budget", "50"], 1),
        (["check-iso", f("square1"), f("square1"), "--bound", "0"], 2),
        (["--config", f("config"), "check-mirror", f("square1"), f("stretched1")], 1),
        (["check-derived-eq", f("square1"), f("stretched1")], 1),
        (["check-derived-eq", f("open1"), f("open2"), "--budget", "100"], 1),
        (["verify-map", f("map")], 0),
        (["verify-map", f("bad_map")], 1),
        (["mirror", "--torus", f("square1"), "--out-torus", str(tmp / "out_torus.json"),
          "--out-cert", str(tmp / "out_cert.json")], 0),
        (["mirror", "--torus", f("square2"), "--split", split2], 0),
        (["mirror", "--torus", f("b_on_a"), "--split", split2], 1),
        (["mirror", "--torus", f("square1"), "--out-torus", str(tmp / "same.json"),
          "--out-cert", str(tmp / "same.json")], 2),
        (["mirror", "--torus", f("square1"), "--out-torus", str(tmp / "missing" / "t.json")], 2),
        (["mirror", "--torus", f("square1"), "--split", "1,x|0,1"], 2),
        (["hodge", f("generic2")], 0),
        (["pp-classes", f("square2"), "--p", "1"], 0),
        (["pp-classes", f("square1"), "--p", "2"], 2),
        (["lefschetz", f("square2")], 0),
        (["fm", "--torus", f("square1"), "--split", "1,0|0,1", "--class", f("one")], 0),
        (["fm", "--torus", f("b_on_a"), "--split", split2, "--class", f("one")], 1),
        (["check-mirror-class", "--torus", f("square2"), "--class", f("e02")], 0),
        (["check-mirror-class", "--torus", f("square2"), "--class", f("e0")], 1),
        (["beta", f("generic2")], 0),
        (["abrane-check", "--brane", f("space_filling")], 0),
        (["abrane-check", "--brane", f("lagrangian")], 0),
        (["abrane-check", "--brane", f("curved_lagrangian")], 1),
        (["abrane-check", "--brane", f("three_dim")], 1),
        (["abrane-check", "--brane", f("isotropic_line")], 1),
        (["abrane-check", "--brane", f("flat_space_filling")], 1),
        (["fock-verify", "--d", "1", "--cap", "2"], 0),
        (["fock-verify", "--torus", f("stretched1"), "--cap", "3/2"], 0),
        (["fock-verify", "--d", "1", "--cap", "1/3"], 2),
        (["-h"], 0),
        (["check-iso", f("square1"), "--help"], 0),
        (["check-iso", "--bound=1", f("square1"), f("square1")], 0),
        ([], 2),
        (["bogus", f("square1")], 2),
        (["check-iso", f("square1"), f("square1"), "--bud", "3"], 2),
        (["check-iso", f("square1"), f("square1"), "--bound"], 2),
        (["pp-classes", f("square1")], 2),
        (["check-iso", f("square1")], 2),
        (["check-iso", f("square1"), f("square1"), "--bound", "x"], 2),
        (["check-iso", f("square1"), f("square1"), "--config", f("config")], 2),
    ]


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """``(file, first line)`` of every package code object the runs enter."""
    tmp = tmp_path_factory.mktemp("reach")
    _write_inputs(tmp)
    runs = command_runs(tmp)
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    got = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv, _ in runs:
                got.append(cli.main(argv))
        finally:
            sys.setprofile(None)
    assert got == [code for _, code in runs]
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def _is_dunder(name):
    last = name.rsplit(".", 1)[-1]
    return last.startswith("__") and last.endswith("__")


def test_every_def_is_run_by_a_command(entered):
    unreached = sorted(name for key, name in package_defs().items()
                       if key not in entered and not _is_dunder(name))
    assert [name for name in unreached if name not in ALLOWLIST] == []


def test_no_allowlisted_def_is_run_by_a_command(entered):
    assert sorted(name for key, name in package_defs().items()
                  if key in entered and name in ALLOWLIST) == []


def test_every_allowlisted_def_exists():
    assert sorted(set(ALLOWLIST) - set(package_defs().values())) == []


@pytest.mark.parametrize("name", sorted(n for n, (_, files) in ALLOWLIST.items() if files))
def test_harness_entries_are_named_by_the_harness(name):
    for path, text in ALLOWLIST[name][1].items():
        assert text in (ROOT / path).read_text(), (name, path)
