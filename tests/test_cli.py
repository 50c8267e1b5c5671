"""End-to-end CLI behavior: every subcommand, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import flattori
from flattori import cli, equivalence, jsonio, tduality
from flattori.cli import main
from flattori.exactlinear import Q, RatMatrix
from flattori.torus import TorusData, random_valid_torus, square_torus


REFUTED_BY = "window contains every g with tr(N1^-1 g^t N2 g) = 4d"
LATTICE_REFUTED_BY = "(rank, det) of tr(q h^t q h) differs on L(T1,T1), L(T1,T2), L(T2,T2): "
SHELL_REFUTED_BY = "no g with tr(N1^-1 g^t N2 g) <= 4d preserves q: "


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out):
    data = json.loads(out)
    assert set(data) == {"command", "inputs", "result", "paper_ref"}
    return data


@pytest.fixture
def square_file(square1, torus_file):
    return torus_file(square1, "square.json")


@pytest.fixture
def square2_file(square2, torus_file):
    return torus_file(square2, "square2.json")


@pytest.fixture
def stretched_file(stretched1, torus_file):
    return torus_file(stretched1, "stretched.json")


class TestNumericInputErrors:
    @pytest.mark.parametrize("config, argv, message", [
        (None, ["check-iso", "T", "T", "--budget", "-1"], "budget must be at least 1, got -1"),
        ({"budget": 0}, ["check-mirror", "T", "T"], "budget must be at least 1, got 0"),
        (None, ["mirror", "--torus", "T", "--out-torus", "M"],
         "cannot write {M}: No such file or directory (at --out-torus)"),
        ({"split_bound": 1}, ["mirror", "--torus", "T"],
         "unknown config key 'split_bound' (at split_bound)"),
        (None, ["fock-verify", "--d", "0"], "d must be at least 1, got 0"),
        (None, ["fock-verify", "--d", "1", "--cap", "abc"],
         "cap must be a rational number, got 'abc' (at --cap)"),
        (None, ["fock-verify", "--d", "1", "--cap", "0"],
         "cap must be at least 1/2, got 0 (at --cap)"),
        (None, ["fock-verify", "--d", "1", "--cap", "-1"],
         "cap must be at least 1/2, got -1 (at --cap)"),
        (None, ["fock-verify", "--d", "1", "--cap", "1/4"],
         "cap must be at least 1/2, got 1/4 (at --cap)"),
        ({"fingerprint_height": 1}, ["check-iso", "T", "T"],
         "unknown config key 'fingerprint_height' (at fingerprint_height)"),
        (None, ["mirror", "--torus", "T", "--out-cert", "M"],
         "cannot write {M}: No such file or directory (at --out-cert)"),
        (None, ["mirror", "--torus", "T", "--out-torus", "O", "--out-cert", "M"],
         "cannot write {M}: No such file or directory (at --out-cert)"),
        (None, ["validate", "D"], "cannot read {D}: Is a directory (at {D})"),
        (None, ["validate", "U"], "malformed JSON: 'utf-8' codec can't decode byte 0xff "
         "in position 0: invalid start byte (at {U})"),
        (None, ["mirror", "--torus", "T", "--split", "|"],
         "each half of a splitting needs at least one vector (at --split)"),
        (None, ["fm", "--torus", "T", "--class", "T", "--split", "|"],
         "each half of a splitting needs at least one vector (at --split)"),
        (None, ["check-iso", "T", "W"],
         "tori must have the same dimension, got 1 and 2 (at square2.json.d)"),
        (None, ["verify-map", "V"],
         "target dimension 2 differs from source dimension 1 (at dims.json.target)"),
        (None, ["pp-classes", "W", "--p", "5"], "p must lie in 0..2, got 5 (at --p)"),
        (None, ["fock-verify", "--d", "3", "--torus", "T"],
         "give --d or --torus, not both (at --d)"),
        (None, ["mirror", "--torus", "T", "--out-torus", "O", "--out-cert", "O"],
         "--out-torus and --out-cert name the same file {O} (at --out-cert)"),
        (None, ["verify-map", "N"], "lattice map is not unimodular"),
        (None, ["validate", "R"],
         "matrix rows must be non-empty and of equal length (at ragged.json.I[1])"),
        (None, ["validate", "E"],
         "matrix rows must be non-empty and of equal length (at empty_rows.json.G[0])"),
        (None, ["verify-map", "S"],
         "matrix rows must be non-empty and of equal length (at short_g.json.g[1])"),
        (None, ["abrane-check", "--brane", "F"],
         "matrix rows must be non-empty and of equal length (at ragged_f.json.F[1])"),
    ])
    def test_one_line_exit_two(self, capsys, tmp_path, square_file, square2_file, config,
                               argv, message):
        # T is a valid torus file and W one of another dimension, V a map from
        # T to W, N an integral map on T with det 2, M a path in a directory
        # that does not exist, O a writable path, D a directory and U a file
        # that is not UTF-8; R, E, S and F each hold one matrix with a short or
        # empty row: a torus's I, a torus's G, a map's g and a brane's F
        paths = {"T": square_file, "W": square2_file, "V": str(tmp_path / "dims.json"),
                 "N": str(tmp_path / "det2.json"),
                 "M": str(tmp_path / "missing" / "out.json"),
                 "O": str(tmp_path / "m.json"), "D": str(tmp_path),
                 "U": str(tmp_path / "binary.json"), "R": str(tmp_path / "ragged.json"),
                 "E": str(tmp_path / "empty_rows.json"), "S": str(tmp_path / "short_g.json"),
                 "F": str(tmp_path / "ragged_f.json")}
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
        (tmp_path / "ragged.json").write_text(json.dumps(
            {**SQUARE1_JSON, "I": [["0", "-1"], ["1"]]}))
        (tmp_path / "empty_rows.json").write_text(json.dumps({**SQUARE1_JSON, "G": [[], []]}))
        (tmp_path / "short_g.json").write_text(json.dumps(
            {"kind": "iso", "source": "square.json", "target": "square.json",
             "g": [["1", "0", "0", "0"], ["0", "1", "0"], ["0", "0", "1", "0"],
                   ["0", "0", "0", "1"]]}))
        (tmp_path / "ragged_f.json").write_text(json.dumps(
            {"torus_ref": "square.json", "Y_basis": [[1, 0], [0, 1]],
             "F": [["0", "1"], ["-1"]]}))
        (tmp_path / "dims.json").write_text(json.dumps(
            {"kind": "iso", "source": "square.json", "target": "square2.json",
             "g": [[str(int(i == j)) for j in range(4)] for i in range(4)]}))
        (tmp_path / "det2.json").write_text(json.dumps(
            {"kind": "iso", "source": "square.json", "target": "square.json",
             "g": [[str((1 + (i == 0)) * (i == j)) for j in range(4)] for i in range(4)]}))
        prefix = []
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            prefix = ["--config", str(tmp_path / "cfg.json")]
        argv = [paths.get(a, a) for a in argv]
        assert run(capsys, *prefix, *argv) == (2, "", f"input error: {message.format(**paths)}\n")
        # an input error leaves no output file behind
        assert not (tmp_path / "m.json").exists()


# One payload per field that reads JSON numbers, each with a boolean where a
# number belongs: (command argv, the bad file's content, the message).  S is
# the square torus file, X the bad file, whose name is x.json.
SQUARE1_JSON = {"d": 1, "I": [["0", "-1"], ["1", "0"]], "G": [["1", "0"], ["0", "1"]],
                "B": [["0", "0"], ["0", "0"]]}
BOOLEAN_PAYLOADS = {
    "torus-d": (["validate", "X"], {**SQUARE1_JSON, "d": True},
                "missing or invalid dimension (at x.json.d)"),
    "torus-G": (["validate", "X"], {**SQUARE1_JSON, "G": [[True, "0"], ["0", True]]},
                "expected a rational number, got True (at x.json.G[0][0])"),
    "class-indices": (["check-mirror-class", "--torus", "S", "--class", "X"],
                      {"grade_terms": [{"indices": [False, True], "coeff": "1"}]},
                      "indices must be a strictly increasing list within range "
                      "(at x.json.grade_terms[0].indices)"),
    "brane-Y_basis": (["abrane-check", "--brane", "X"],
                      {"torus_ref": "square.json", "Y_basis": [[True, False]]},
                      "Y_basis must be a list of integer vectors (at x.json.Y_basis)"),
    "map-g": (["verify-map", "X"],
              {"kind": "iso", "source": "square.json", "target": "square.json",
               "g": [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
              "expected a rational number, got True (at x.json.g[0][0])"),
}


# One payload per field that reads a JSON list, each with a scalar there.
NON_LIST_PAYLOADS = {
    "class-grade_terms": (["check-mirror-class", "--torus", "S", "--class", "X"],
                          {"grade_terms": 5}, "grade_terms must be a list (at x.json.grade_terms)"),
    "brane-translation": (["abrane-check", "--brane", "X"],
                          {"torus_ref": "square.json", "Y_basis": [[1, 0, 0, 0], [0, 0, 1, 0]],
                           "translation": "0000"},
                          "translation must be a list (at x.json.translation)"),
}


# One payload per brane field whose vectors have a length, each with a vector
# of the wrong length for the square torus (rank 2).
WRONG_LENGTH_PAYLOADS = {
    "brane-Y_basis": (["abrane-check", "--brane", "X"],
                      {"torus_ref": "square.json", "Y_basis": [[1, 0], [0, 1, 0]]},
                      "brane directions must have length 2 (at x.json.Y_basis[1])"),
    "brane-translation": (["abrane-check", "--brane", "X"],
                          {"torus_ref": "square.json", "Y_basis": [[1, 0], [0, 1]],
                           "translation": ["0", "0", "0"]},
                          "translation must have length 2 (at x.json.translation)"),
}


def run_payload(capsys, tmp_path, square_file, argv, payload):
    bad = tmp_path / "x.json"
    bad.write_text(json.dumps(payload))
    return run(capsys, *[{"S": square_file, "X": str(bad)}.get(a, a) for a in argv])


class TestBooleansAreNotNumbers:
    @pytest.mark.parametrize("field", sorted(BOOLEAN_PAYLOADS))
    def test_boolean_is_input_error(self, capsys, tmp_path, square_file, field):
        argv, payload, message = BOOLEAN_PAYLOADS[field]
        assert run_payload(capsys, tmp_path, square_file, argv, payload) == \
            (2, "", f"input error: {message}\n")


class TestScalarsAreNotLists:
    @pytest.mark.parametrize("field", sorted(NON_LIST_PAYLOADS))
    def test_scalar_is_input_error(self, capsys, tmp_path, square_file, field):
        argv, payload, message = NON_LIST_PAYLOADS[field]
        assert run_payload(capsys, tmp_path, square_file, argv, payload) == \
            (2, "", f"input error: {message}\n")


class TestWrongLengthsAreInputErrors:
    @pytest.mark.parametrize("field", sorted(WRONG_LENGTH_PAYLOADS))
    def test_wrong_length_is_input_error(self, capsys, tmp_path, square_file, field):
        argv, payload, message = WRONG_LENGTH_PAYLOADS[field]
        assert run_payload(capsys, tmp_path, square_file, argv, payload) == \
            (2, "", f"input error: {message}\n")


class TestValidateAndStructures:
    def test_validate_pass(self, capsys, square_file):
        code, out, _ = run(capsys, "validate", square_file)
        assert code == 0
        assert report(out)["result"]["ok"]

    def test_validate_fail_exit_one(self, capsys, torus_file):
        bad = TorusData(1, RatMatrix.identity(2), RatMatrix.identity(2),
                        RatMatrix.zero(2, 2), "bad")
        path = torus_file(bad, "bad.json")
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert not report(out)["result"]["ok"]

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "input error" in err

    # Exit 1 means refuted, false, none within bound or undecided, so JSON the
    # parser gives up on must be an input error, not a traceback: an integer
    # literal past the int-to-string digit limit, and nesting past the
    # recursion limit.
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer digit limit")
    def test_oversized_integer_is_input_error(self, capsys, tmp_path, square1):
        data = jsonio.torus_to_json(square1)
        text = json.dumps(data).replace('"1"', "1" + "0" * 4999, 1)
        path = tmp_path / "big.json"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("input error: malformed JSON: ") and err.count("\n") == 1

    def test_deep_nesting_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("input error: malformed JSON: ") and err.count("\n") == 1

    def test_doubled(self, capsys, square_file):
        code, out, _ = run(capsys, "doubled", square_file)
        assert code == 0
        result = report(out)["result"]
        assert result["calI"] == result["calItilde"]

    def test_spectrum(self, capsys, square_file):
        code, out, _ = run(capsys, "spectrum", square_file, "--height", "1")
        assert code == 0
        assert len(report(out)["result"]["triples"]) == 81

    def test_spectrum_negative_height_is_input_error(self, capsys, square_file):
        code, out, err = run(capsys, "spectrum", square_file, "--height", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and err.count("\n") == 1

    # a d = 1 window holds (2h + 1)^4 charge vectors: 57^4 = 10,556,001 is the
    # first past the limit of 10^7, and 10^8 would not fit in memory
    @pytest.mark.parametrize("height", [28, 100000000])
    def test_spectrum_window_past_the_limit_is_input_error(self, capsys, square_file, height):
        assert run(capsys, "spectrum", square_file, "--height", str(height)) == (
            2, "", f"input error: height {height} spans (2 * {height} + 1)^4 charge vectors, "
            "more than the limit 10000000 (at --height)\n")


class TestUsage:
    """The command line is parsed from ``cli.COMMANDS``: a usage error is an
    input error, and ``-h`` lists every command."""

    @pytest.mark.parametrize("argv, message", [
        ([], "missing command"),
        (["--config", "{C}"], "missing command"),
        (["bogus", "{T}"], "unknown command 'bogus'"),
        (["check-iso", "{T}", "{T}", "--bud", "3"], "unknown option --bud for check-iso"),
        (["check-iso", "{T}", "{T}", "--bound"], "option --bound needs a value"),
        (["--config"], "option --config needs a value"),
        (["pp-classes", "{T}"], "pp-classes needs --p"),
        (["fm", "--torus", "{T}"], "fm needs --split and --class"),
        (["check-iso", "{T}"], "check-iso takes 2 path argument(s), got 1"),
        (["validate", "{T}", "{T}"], "validate takes 1 path argument(s), got 2"),
        (["check-iso", "{T}", "{T}", "--bound", "x"],
         "option --bound must be an integer, got 'x'"),
        (["check-iso", "{T}", "{T}", "--config", "{C}"],
         "unknown option --config for check-iso"),
        (["--bound", "1", "check-iso", "{T}", "{T}"],
         "unknown option --bound before the command"),
    ], ids=["no-command", "config-only", "unknown-command", "abbreviation", "no-value",
            "config-no-value", "missing-required", "missing-two", "one-path", "two-paths",
            "non-integer", "config-after-command", "option-before-command"])
    def test_usage_error_is_one_input_error_line(self, capsys, tmp_path, square_file,
                                                 argv, message):
        (tmp_path / "cfg.json").write_text(json.dumps({"bound": 1}))
        paths = {"T": square_file, "C": str(tmp_path / "cfg.json")}
        assert run(capsys, *[a.format(**paths) for a in argv]) == \
            (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["check-iso", "--bound=1", "{T}", "{T}"],
        ["check-iso", "--bound", "1", "{T}", "{T}"],
        ["check-iso", "{T}", "--bound", "3", "{T}", "--bound", "1"],
        ["--config={C}", "check-iso", "{T}", "{T}"],
    ], ids=["equals", "options-first", "last-wins", "config-equals"])
    def test_accepted_forms(self, capsys, tmp_path, square_file, argv):
        (tmp_path / "cfg.json").write_text(json.dumps({"bound": 1}))
        paths = {"T": square_file, "C": str(tmp_path / "cfg.json")}
        code, out, err = run(capsys, *[a.format(**paths) for a in argv])
        assert (code, err) == (0, "")
        assert report(out)["inputs"]["bound"] == 1

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["check-iso", "-h"],
                                      ["--config", "missing.json", "fm", "--help"]])
    def test_help_lists_every_command(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0].startswith("usage: flattori [--config FILE] COMMAND")
        assert [line.split()[0] for line in lines[1:]] == list(cli.COMMANDS)
        assert "  check-iso SOURCE TARGET [--bound BOUND] [--budget BUDGET]" in lines
        assert "  pp-classes TORUS --p P" in lines


# Runs main(argv) in a fresh interpreter and prints, after the report, every
# module it loaded.
LOADED_MODULES = """\
import json, sys
from flattori.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def _fresh_python(*argv, cwd=None):
    """Run ``python *argv`` in a new interpreter that imports this flattori."""
    src = os.path.dirname(os.path.dirname(flattori.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


class TestImportIsolation:
    """Each command imports only the layers it runs."""

    @pytest.mark.parametrize("argv, unloaded", [
        (["validate", "T"],
         {"fock", "cohomology", "abranes", "tduality", "equivalence", "exterior", "_intlat"}),
        (["check-iso", "T", "T"], {"fock", "cohomology", "abranes", "tduality", "exterior"}),
        (["hodge", "T"], {"tduality", "equivalence", "abranes", "fock"}),
        (["mirror", "--torus", "T"], {"fock", "cohomology", "abranes", "exterior"}),
        (["fock-verify", "--d", "1", "--cap", "1"],
         {"equivalence", "tduality", "cohomology", "abranes", "exterior"}),
    ])
    def test_command_leaves_other_layers_unloaded(self, square_file, argv, unloaded):
        argv = [square_file if a == "T" else a for a in argv]
        proc = _fresh_python("-c", LOADED_MODULES, *argv)
        assert proc.returncode == 0, proc.stderr
        assert report(proc.stdout)["command"] == argv[0]
        loaded = {m.removeprefix("flattori.") for m in json.loads(proc.stderr.splitlines()[-1])
                  if m.startswith("flattori.")}
        assert loaded & unloaded == set()

    # Start-up compiles no dataclass machinery, no argparse and no exterior
    # algebra: after an in-process check-iso none of them is loaded, unless
    # the bare interpreter loads it already; hodge loads the exterior algebra.
    def test_startup_loads_neither_dataclasses_nor_exterior(self, square_file):
        watched = {"argparse", "dataclasses", "flattori.exterior"}
        bare = _fresh_python("-c", "import json, sys; print(json.dumps(sorted(sys.modules)))")
        expected = watched & set(json.loads(bare.stdout))
        proc = _fresh_python("-c", LOADED_MODULES, "check-iso", square_file, square_file)
        assert proc.returncode == 0, proc.stderr
        assert set(json.loads(proc.stderr.splitlines()[-1])) & watched == expected
        proc = _fresh_python("-c", LOADED_MODULES, "hodge", square_file)
        assert proc.returncode == 0, proc.stderr
        assert "flattori.exterior" in json.loads(proc.stderr.splitlines()[-1])

    # Each handler imports its own layer, so a missing import shows only when
    # its command starts as a fresh process: every subcommand is started once
    # as `python -m flattori.cli` on tiny inputs and must exit 0 with a report.
    def test_every_command_runs_in_a_fresh_process(self, tmp_path, square_file):
        from flattori.exterior import ExtElement
        (tmp_path / "map.json").write_text(json.dumps(
            {"kind": "iso", "source": "square.json", "target": "square.json",
             "g": [[int(i == j) for j in range(4)] for i in range(4)]}))
        (tmp_path / "class.json").write_text(json.dumps(
            jsonio.class_to_json(ExtElement.monomial(2, (0,)))))
        (tmp_path / "brane.json").write_text(json.dumps(
            {"torus_ref": "square.json", "Y_basis": [[1, 0]], "F": [["0"]]}))
        commands = [
            ["validate", "T"], ["doubled", "T"], ["spectrum", "T"],
            ["check-iso", "T", "T"], ["check-mirror", "T", "T"],
            ["check-derived-eq", "T", "T"], ["verify-map", "map.json"],
            ["mirror", "--torus", "T"], ["hodge", "T"], ["pp-classes", "T", "--p", "1"],
            ["lefschetz", "T"],
            ["fm", "--torus", "T", "--split", "1,0|0,1", "--class", "class.json"],
            ["check-mirror-class", "--torus", "T", "--class", "class.json"], ["beta", "T"],
            ["abrane-check", "--brane", "brane.json"],
            ["fock-verify", "--torus", "T", "--cap", "1"],
        ]
        assert {argv[0] for argv in commands} == set(PAPER_REFS)
        for argv in commands:
            argv = [square_file if a == "T" else a for a in argv]
            proc = _fresh_python("-m", "flattori.cli", *argv, cwd=tmp_path)
            assert (proc.returncode, proc.stderr) == (0, ""), argv
            assert report(proc.stdout)["command"] == argv[0]

    def test_budget_default_is_the_search_default(self):
        assert cli.DEFAULTS["budget"] == equivalence.DEFAULT_NODE_BUDGET


class TestSearchCommands:
    def test_check_mirror_self(self, capsys, square_file):
        code, out, _ = run(capsys, "check-mirror", square_file, square_file,
                           "--bound", "2")
        assert code == 0
        cert = report(out)["result"]["certificate"]
        assert cert["g"] in ([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
                             [[0, 0, -1, 0], [0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1]])

    def test_check_iso_refuted(self, capsys, square_file, stretched_file):
        code, out, _ = run(capsys, "check-iso", square_file, stretched_file,
                           "--bound", "3")
        assert code == 1
        assert report(out)["result"] == {
            "found": False, "verdict": "refuted", "nodes": 7 ** 4 - 1,
            "refuted_by": REFUTED_BY}

    def test_check_mirror_refuted(self, capsys, square_file, stretched_file):
        code, out, _ = run(capsys, "check-mirror", square_file, stretched_file)
        assert code == 1
        assert report(out)["result"] == {
            "found": False, "verdict": "refuted", "nodes": 5 ** 4 - 1, "refuted_by": REFUTED_BY}

    def test_check_derived_eq_refuted_tau_2i(self, capsys, square_file, stretched_file):
        # the derived_eq intertwiner lattices of tau = i and tau = 2i are not
        # isometric, so the pair is refuted before the scan starts
        code, out, _ = run(capsys, "check-derived-eq", square_file, stretched_file)
        assert code == 1
        assert report(out)["result"] == {
            "found": False, "verdict": "refuted", "nodes": 0,
            "refuted_by": LATTICE_REFUTED_BY + "(8, 256), (8, 65536), (8, 65536)"}

    def test_check_derived_eq_refuted_tau_3i(self, capsys, square_file, torus_file):
        # tau = 3i is refuted like tau = 2i: its lattices separate it from
        # tau = i, det 256 * 3^8 against 256
        code, out, _ = run(capsys, "check-derived-eq", square_file,
                           torus_file(STRETCHED3, "stretched3.json"))
        assert code == 1
        assert report(out)["result"] == {
            "found": False, "verdict": "refuted", "nodes": 0,
            "refuted_by": LATTICE_REFUTED_BY + "(8, 256), (8, 1679616), (8, 1679616)"}

    def test_small_budget_ends_undecided(self, capsys, torus_file):
        # the lattices of open1 and open2 agree at (8, 429981696), so the scan
        # runs and spends its budget of 100 nodes
        code, out, err = run(capsys, "check-derived-eq", torus_file(OPEN1, "open1.json"),
                             torus_file(OPEN2, "open2.json"), "--budget", "100")
        assert code == 1
        assert report(out)["result"] == {"found": False, "verdict": "undecided", "nodes": 100,
                                         "budget": 100, "last_complete_height": 0}
        assert hashlib.sha256(out.encode()).hexdigest() == UNDECIDED_BUDGET100_SHA256
        assert err == ("budget exceeded: search exhausted its node budget (100) before "
                       "covering height 2 (100/100 nodes)\n")

    @staticmethod
    def mirror_search(capsys, torus_file, source, target, bound):
        code, out, _ = run(capsys, "check-mirror", torus_file(source, "source.json"),
                           torus_file(target, "target.json"), "--bound", str(bound))
        assert code == 1
        result = report(out)["result"]
        return result["found"], result["verdict"], result["nodes"]

    @pytest.mark.parametrize("bound, verdict", [(1, "refuted"), (2, "refuted")])
    def test_refuted_once_the_window_holds_the_ellipsoid(self, capsys, torus_file,
                                                         bound, verdict):
        # the mirror ellipsoid of this pair reaches c_i^2 = 5 (4d (A^-1)_ii):
        # past the height-1 window, inside the height-2 one.  The height-1
        # window is scanned and then the shell F <= 4d refutes: it is empty
        # (4 walk nodes)
        source = TorusData(1, RatMatrix([[1, -1], [2, -1]]), RatMatrix([[2, -1], [-1, 1]]),
                           RatMatrix([[0, 2], [-2, 0]]), "source")
        target = TorusData(1, RatMatrix([[-34, -13], [89, 34]]),
                           RatMatrix([[178, 68], [68, 26]]),
                           RatMatrix([[0, -2], [2, 0]]), "target")
        code, out, _ = run(capsys, "check-mirror", torus_file(source, "source.json"),
                           torus_file(target, "target.json"), "--bound", str(bound))
        assert code == 1
        window = (2 * bound + 1) ** 4 - 1
        assert report(out)["result"] == (
            {"found": False, "verdict": verdict, "nodes": window, "refuted_by": REFUTED_BY}
            if bound == 2 else
            {"found": False, "verdict": verdict, "nodes": window + 4,
             "refuted_by": SHELL_REFUTED_BY + "0 vectors up to sign, 4 nodes"})

    def test_small_ellipsoid_is_refuted_at_height_one(self, capsys, torus_file):
        # on the saturated intertwiner basis this pair's radii are at most 1/4
        source = TorusData(1, RatMatrix([[2, -1], [5, -2]]), RatMatrix([[10, -4], [-4, 2]]),
                           RatMatrix([[0, Q(1, 2)], [Q(-1, 2), 0]]), "source")
        target = TorusData(1, RatMatrix([[-1, -2], [1, 1]]),
                           RatMatrix([[Q(1, 2), Q(1, 2)], [Q(1, 2), 1]]),
                           RatMatrix([[0, Q(-1, 2)], [Q(1, 2), 0]]), "target")
        assert self.mirror_search(capsys, torus_file, source, target, 1) == \
            (False, "refuted", 3 ** 4 - 1)

    def test_check_derived_eq_self(self, capsys, square_file):
        code, out, _ = run(capsys, "check-derived-eq", square_file, square_file,
                           "--bound", "1")
        assert code == 0

    def test_config_file_sets_bound(self, capsys, tmp_path, square_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bound": 1, "budget": 100000}))
        code, out, _ = run(capsys, "--config", str(cfg),
                           "check-iso", square_file, square_file)
        assert code == 0
        assert report(out)["inputs"]["bound"] == 1

    @pytest.mark.parametrize("command", ["check-iso", "check-mirror", "check-derived-eq"])
    def test_bound_zero_is_input_error(self, capsys, square_file, command):
        code, out, err = run(capsys, command, square_file, square_file, "--bound", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_config_rejects_boolean(self, capsys, tmp_path, square_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bound": True}))
        code, out, err = run(capsys, "--config", str(cfg),
                             "check-iso", square_file, square_file)
        assert code == 2
        assert out == ""
        assert "config bound must be a nonnegative integer" in err

    def test_found_certificate_skips_fingerprint(self, capsys, monkeypatch, square_file):
        def refuse(*args):
            raise AssertionError("fingerprint computed for a found certificate")
        monkeypatch.setattr(equivalence, "spectrum_fingerprint", refuse)
        for command in ("check-iso", "check-mirror", "check-derived-eq"):
            code, out, _ = run(capsys, command, square_file, square_file, "--bound", "1")
            assert code == 0
            assert report(out)["result"]["found"]

    def test_refutation_skips_fingerprint(self, capsys, monkeypatch,
                                          square_file, stretched_file):
        def refuse(*args):
            raise AssertionError("fingerprint computed for a search without a hit")
        monkeypatch.setattr(equivalence, "spectrum_fingerprint", refuse)
        verdicts = []
        for command in ("check-iso", "check-mirror", "check-derived-eq"):
            code, out, _ = run(capsys, command, square_file, stretched_file, "--bound", "1")
            assert code == 1
            verdicts.append(report(out)["result"]["verdict"])
        assert verdicts == ["refuted", "refuted", "refuted"]

    @pytest.mark.parametrize("command", ["check-iso", "check-mirror"])
    @pytest.mark.parametrize("budget", [[], ["--bound", "1", "--budget", "50"]],
                             ids=["default", "budget50"])
    def test_refute_bench_row_is_refuted_by_the_shell(self, capsys, monkeypatch, square2_file,
                                                      torus_file, command, budget):
        # no vector of the shell F <= 8 preserves q, and neither window fits
        # its budget (3^16 - 1 and 5^16 - 1 candidates), so neither is scanned
        def refuse(*args):
            raise AssertionError("a scan or a fingerprint that cannot refute ran")
        monkeypatch.setattr(equivalence, "spectrum_fingerprint", refuse)
        monkeypatch.setattr(equivalence.kernels, "run_filter", refuse)
        stretched2 = TorusData(
            2, RatMatrix([[0, -2, 0, 0], [Q(1, 2), 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
            RatMatrix.diag([1, 4, 1, 1]), RatMatrix.zero(4, 4), "stretched2")
        code, out, err = run(capsys, command, square2_file,
                             torus_file(stretched2, "stretched2.json"), *budget)
        assert code == 1
        assert report(out)["result"] == {
            "found": False, "verdict": "refuted", "nodes": 220,
            "refuted_by": SHELL_REFUTED_BY + "64 vectors up to sign, 220 nodes"}
        assert err == ""


class TestVerifyMapCommand:
    def test_valid_map(self, capsys, tmp_path, square_file):
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps({
            "kind": "mirror",
            "g": [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
            "source": "square.json",
            "target": "square.json",
        }))
        code, out, _ = run(capsys, "verify-map", str(mp))
        assert code == 0
        assert report(out)["result"]["valid"]

    def test_refuted_map_names_check(self, capsys, tmp_path, square_file):
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps({
            "kind": "iso",
            "g": [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
            "source": "square.json",
            "target": "square.json",
        }))
        code, out, _ = run(capsys, "verify-map", str(mp))
        assert code == 1
        assert report(out)["result"]["refuting_check"] == "intertwines_calI"


class TestMirrorCommand:
    def test_mirror_writes_files(self, capsys, tmp_path, square_file):
        out_t = tmp_path / "mirror.json"
        out_c = tmp_path / "cert.json"
        code, out, _ = run(capsys, "mirror", "--torus", square_file,
                           "--out-torus", str(out_t), "--out-cert", str(out_c))
        assert code == 0
        mirror = json.loads(out_t.read_text())
        assert mirror["d"] == 1
        cert = json.loads(out_c.read_text())
        assert cert["kind"] == "mirror"
        assert all(c["ok"] for c in cert["checks"])

    def test_one_path_for_both_outputs_leaves_it_untouched(self, capsys, tmp_path, square_file):
        path = tmp_path / "out.json"
        path.write_text("kept\n")
        code, out, err = run(capsys, "mirror", "--torus", square_file,
                             "--out-torus", str(path), "--out-cert", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert path.read_text() == "kept\n"

    def test_mirror_with_explicit_split(self, capsys, square2_file):
        code, out, _ = run(capsys, "mirror", "--torus", square2_file,
                           "--split", "1,0,0,0;0,0,1,0|0,1,0,0;0,0,0,1")
        assert code == 0

    def test_generic_b_field_at_d3_mirrors(self, capsys, tmp_path, torus_file):
        # B is not a multiple of omega; the certificate must re-verify from files
        t = random_valid_torus(random.Random(0), 3, steps=10, scale_bound=5)
        source = torus_file(t, "d3.json")
        code, out, err = run(capsys, "mirror", "--torus", source,
                             "--out-torus", str(tmp_path / "mirror.json"),
                             "--out-cert", str(tmp_path / "cert.json"))
        assert (code, err) == (0, "")
        assert all(row["ok"] for row in report(out)["result"]["recovery_report"])
        cert = json.loads((tmp_path / "cert.json").read_text())
        (tmp_path / "map.json").write_text(json.dumps({
            "kind": cert["kind"], "g": cert["g"],
            "source": "d3.json", "target": "mirror.json"}))
        code, out, _ = run(capsys, "verify-map", str(tmp_path / "map.json"))
        assert code == 0
        assert report(out)["result"]["valid"]

    def test_splitting_without_isotropic_complement_is_reported(self, capsys, monkeypatch,
                                                                  square_file):
        monkeypatch.setattr(tduality, "_isotropic_complement", lambda w, a: None)
        code, out, err = run(capsys, "mirror", "--torus", square_file)
        assert (code, err) == (1, "")
        assert report(out)["result"] == {"found": False, "verdict": "recovery failed",
                                         "block": "lagrangian_splitting"}

    def test_bad_split_is_input_error(self, capsys, square2_file):
        code, out, err = run(capsys, "mirror", "--torus", square2_file,
                             "--split", "1,0,0,0;0,1,0,0|0,0,1,0;0,0,0,1")
        assert code == 2  # halves are not isotropic -> validation error


class TestCohomologyCommands:
    def test_hodge(self, capsys, square2_file):
        code, out, _ = run(capsys, "hodge", square2_file)
        assert code == 0
        assert report(out)["result"]["h"][1][1] == 4

    def test_pp_classes(self, capsys, square2_file):
        code, out, _ = run(capsys, "pp-classes", square2_file, "--p", "1")
        assert code == 0
        assert report(out)["result"]["dimension"] == 4

    def test_lefschetz(self, capsys, square2_file):
        code, out, _ = run(capsys, "lefschetz", square2_file)
        assert code == 0
        result = report(out)["result"]
        assert result["kernel_dimension"] == result["expected"] == 5

    def test_fm_and_condition(self, capsys, tmp_path, square_file):
        cls = tmp_path / "one.json"
        cls.write_text(json.dumps({"grade_terms": [{"indices": [], "coeff": "1"}]}))
        code, out, _ = run(capsys, "fm", "--torus", square_file,
                           "--split", "1,0|0,1", "--class", str(cls))
        assert code == 0
        image = report(out)["result"]["image"]
        assert image["grade_terms"] == [{"indices": [0], "coeff": "1"}]

    def test_fm_reports_a_failed_recovery_like_mirror(self, capsys, tmp_path, square2,
                                                      torus_file):
        # A = (e0, e2) is omega-isotropic but B(e0, e2) = 1: both commands
        # report the block recovery failed at as a verdict, exit 1
        b = RatMatrix([[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]])
        t = TorusData(2, square2.I, square2.G, b, "b_on_a")
        source = torus_file(t, "b_on_a.json")
        split = "1,0,0,0;0,0,1,0|0,1,0,0;0,0,0,1"
        cls = tmp_path / "one.json"
        cls.write_text(json.dumps({"grade_terms": [{"indices": [], "coeff": "1"}]}))
        failed = {"found": False, "verdict": "recovery failed",
                  "block": "calI_upper_right_vanishes"}
        code, out, err = run(capsys, "mirror", "--torus", source, "--split", split)
        assert (code, err) == (1, "")
        mirror = report(out)
        assert mirror["result"] == failed
        code, out, err = run(capsys, "fm", "--torus", source, "--split", split,
                             "--class", str(cls))
        assert (code, err) == (1, "")
        data = report(out)
        assert data["result"] == failed
        # both echo the parsed splitting, in one shape
        parsed = {"A": [[1, 0, 0, 0], [0, 0, 1, 0]], "B": [[0, 1, 0, 0], [0, 0, 0, 1]]}
        assert mirror["inputs"]["split"] == parsed
        assert data["inputs"] == {"torus": jsonio.torus_to_json(t), "split": parsed,
                                  "class": {"base_rank": 4, "grade_terms": [
                                      {"indices": [], "coeff": "1"}]}}

    def test_check_mirror_class(self, capsys, tmp_path, square2_file):
        good = tmp_path / "good.json"
        # dual class of a Lagrangian subtorus: pairs across the omega blocks
        good.write_text(json.dumps({"grade_terms": [{"indices": [0, 2], "coeff": "1"}]}))
        code, _, _ = run(capsys, "check-mirror-class", "--torus", square2_file,
                         "--class", str(good))
        assert code == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grade_terms": [{"indices": [0], "coeff": "1"}]}))
        code, _, _ = run(capsys, "check-mirror-class", "--torus", square2_file,
                         "--class", str(bad))
        assert code == 1

    def test_beta(self, capsys, square2_file):
        code, out, _ = run(capsys, "beta", square2_file)
        assert code == 0
        assert report(out)["result"]["torsion"]


class TestBraneAndFock:
    def test_abrane_check_accepted(self, capsys, tmp_path, torus_file):
        i = RatMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        t4 = TorusData(2, i, RatMatrix.identity(4), RatMatrix.zero(4, 4), "T4")
        tpath = torus_file(t4, "t4.json")
        brane = tmp_path / "brane.json"
        brane.write_text(json.dumps({
            "torus_ref": "t4.json",
            "Y_basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            "translation": ["0", "0", "0", "0"],
            "F": [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
        }))
        code, out, _ = run(capsys, "abrane-check", "--brane", str(brane))
        assert code == 0
        result = report(out)["result"]
        assert result["accepted"] and result["k"] == 1
        assert result["anomaly"]["bockstein_class_zero"]

    def test_abrane_check_rejected(self, capsys, tmp_path, torus_file):
        t4 = square_torus(2)
        torus_file(t4, "sq2.json")
        brane = tmp_path / "brane.json"
        brane.write_text(json.dumps({
            "torus_ref": "sq2.json",
            "Y_basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
            "F": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        }))
        code, out, _ = run(capsys, "abrane-check", "--brane", str(brane))
        assert code == 1
        assert report(out)["result"]["rejection"] == "dimension_law"

    def test_fock_verify(self, capsys):
        code, out, _ = run(capsys, "fock-verify", "--d", "1", "--cap", "2")
        assert code == 0
        assert report(out)["inputs"] == {"cap": "2", "d": 1}
        result = report(out)["result"]
        assert result["fail"] == 0
        assert result["pass"] > 0
        statuses = {row["status"] for row in result["checks"]}
        assert statuses <= {"pass", "inconclusive"}

    def test_fock_verify_with_torus_metric(self, capsys, stretched1, stretched_file):
        code, out, _ = run(capsys, "fock-verify", "--torus", stretched_file,
                           "--cap", "3/2")
        assert code == 0
        data = report(out)
        assert data["result"]["fail"] == 0
        assert data["inputs"] == {"cap": "3/2", "d": 1,
                                  "torus": jsonio.torus_to_json(stretched1)}

    def test_fock_verify_rejects_an_invalid_torus(self, capsys, torus_file):
        bad = TorusData(1, RatMatrix.identity(2), RatMatrix.identity(2),
                        RatMatrix.zero(2, 2), "bad")
        code, out, err = run(capsys, "fock-verify", "--torus", torus_file(bad, "bad.json"),
                             "--cap", "1")
        assert (code, out) == (2, "")
        assert err == "input error: invalid torus 'bad': I_squares_to_minus_id\n"


def sheared(d, shears):
    """The square torus in the basis S = product of row shears (i, j, c): row_i += c row_j."""
    n = 2 * d
    s = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in shears:
        s[i] = [x + c * y for x, y in zip(s[i], s[j])]
    S = RatMatrix(s)
    t = square_torus(d)
    return TorusData(d, S.inverse() * t.I * S, S.transpose() * t.G * S,
                     S.transpose() * t.B * S, f"sheared{d}")


# Frozen certificates: under the determinism contract the search must keep
# returning exactly these.
GOLDEN_CERTIFICATES = [
    ("check-iso", 2, [(0, 2, 1), (3, 1, -1)],
     [[0, 0, 0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, -1, 0, 0],
      [0, 0, 0, 0, 1, 0, 0, 1], [0, 0, 1, 0, 0, 0, 0, 0], [-1, 0, 0, 1, 0, 0, 0, 0],
      [0, -1, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]]),
    ("check-iso", 3, [(0, 3, 1), (4, 1, -1), (2, 5, 1)],
     [[0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
      [0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0],
      [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0],
      [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
      [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
      [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], [-1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]]),
    ("check-mirror", 3, [],
     [[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
      [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
      [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
      [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
      [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
      [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]]),
]


# A d=2 torus with B != 0 and non-integral G and B, and the sha256 of the
# stdout of `doubled` and `spectrum --height 1` on it, frozen from the block
# formula for the Narain form and the per-torus G^-1 of the older code, and of
# `hodge`, `beta` and `pp-classes --p 1` on it, frozen from the code that
# answered them with matrices over the Gaussian rationals.  Its B has a
# nonzero (0,2)-part, so the beta report's projection is nonzero.
GOLDEN_TORUS = {
    "d": 2,
    "I": [["2", "-1", "2", "0"], ["5", "-2", "4", "-2"], ["0", "0", "0", "-1"],
          ["0", "0", "1", "0"]],
    "G": [["5/2", "-1", "2", "0"], ["-1", "1/2", "-1", "0"], ["2", "-1", "7/2", "0"],
          ["0", "0", "0", "3/2"]],
    "B": [["0", "-1", "1/2", "0"], ["1", "0", "-1/2", "-1"], ["-1/2", "1/2", "0", "1/2"],
          ["0", "1", "-1/2", "0"]],
    "label": "golden2",
}
GOLDEN_STDOUT_SHA256 = {
    "doubled": "af2d7dba6ddd8aad0ef0f25587b627e2dcf5a47c479bf925a905b2f2729771ed",
    "spectrum": "512604bfa7a450882a65bfc982fcf9c5063750a03bcf731a9cca49325aaa37c8",
    "hodge": "71ddd0a444d3520fee728993c98a36f9d093fec851ff2571bac03ba8bd0fc8dd",
    "beta": "5c7d2de213f28db65aa53a68888b15f596b51a421998294ee9aac121973fc272",
    "pp-classes": "6d7f9717c53d6cd5d6746e645ad3effc0ab0c352175a78c22ef8eb3ac4cd104e",
}


# tau = 3i: G = diag(1, 9), a sublattice of index 3 in the square torus's.
STRETCHED3 = TorusData(1, RatMatrix([[0, -3], [Q(1, 3), 0]]), RatMatrix.diag([1, 9]),
                       RatMatrix.zero(2, 2), "stretched3")


def _open_torus(i, label):
    i = RatMatrix(i)
    return TorusData(1, i, RatMatrix.identity(2) + i.transpose() * i, RatMatrix.zero(2, 2),
                     label)


# A d = 1 pair that no invariant separates and no bound-1 certificate
# relates: check-derived-eq on it ends "none within bound" (6,560 nodes).
OPEN1 = _open_torus([[-1, Q(4, 3)], [Q(-3, 2), 1]], "open1")
OPEN2 = _open_torus([[Q(-1, 2), Q(-5, 6)], [Q(3, 2), Q(1, 2)]], "open2")

# The sha256 of the stdout of a refuted report on square1 vs stretched1, frozen
# from the code that signalled a spent budget by an exception, and of a
# none-within-bound report on open1 vs open2, frozen from the code that
# refuted derived equivalence by a mod-2 residue walk.
GOLDEN_VERDICT_REPORTS = [
    ("check-iso", "square", "stretched", "2",
     "bc3c4ac1adbdedb7fd7cd124bdd8c524463ed0e442c2603c7debd081c7dae871"),
    ("check-derived-eq", "open1", "open2", "1",
     "8b4e8b384b4376adbf7db87c109a7148cdf9877b2e305ff0f9bfd8d968780bdc"),
]

# The sha256 of the stdout of check-derived-eq open1 open2 --budget 100,
# frozen from the code that refuted derived equivalence by a mod-2 residue walk.
UNDECIDED_BUDGET100_SHA256 = "da4096dc20b98d32fc46a6b7bc79978fbb609dd37a5be267870ac68f8af157c6"


# The sha256 of the stdout of `mirror --torus` on the square tori and the T4
# of the brane example, frozen from the depth-first splitting search that
# the symplectic-basis construction replaced.
GOLDEN_MIRROR_SHA256 = {
    "square1": "418c4c88726047a9e9fc7ffa4ad573e6863222236535280df5160deb8f5e40ce",
    "square2": "a0b64d1cdf896211e12c6102ad62d895d4b4e354f7a8038890a7b3aa96888c9a",
    "square3": "ccca4cd00be13e45d7721369bf479623ec1ac4b75d1842d923edde550c6a41cb",
    "T4": "e5b165b2340c6ec85b0f63b1621561c43c224526bcc1ef0b98a407a97d5a56e2",
}


# The sha256 of the stdout of `fock-verify` on the identity metric at d = 2
# and on stretched1 (G^-1 = diag(1, 1/4)), frozen from the sweep that
# bracketed the oscillators in Fraction arithmetic.
GOLDEN_FOCK_SHA256 = {
    "d2-cap3": "e478404f2fb4f22b0863909fd5b9acd669e80e00ae29cc504cf3cfaf07ee0e65",
    "stretched1-cap5/2": "b42e9a256407ddbc89741c9b9bdd4d1824b5ccb6b2d4ce4772346c24968772c6",
}


# The sha256 of the stdout of `abrane-check` on the accepted space-filling
# brane of the T4 and on a Lagrangian whose curvature is rejected at
# condition (ii), and of `fm` on square2 with the Kaehler (1,1) class, frozen
# from the code that ran the acceptance conditions once per reader and built
# the mirror through a rewritten split torus.  The space-filling brane is
# also checked on the T4 rebased by T4_REBASE, with F = u^T F u: its report
# (top coefficient 1/2 - i/2) was frozen from the code that took the
# holomorphic volume from a kernel over the Gaussian rationals; its +i
# covectors, unlike the T4's, span several coordinate pairs with entries such
# as -1/4 - i/4.  The reports echo `--brane`, so the branes are read from a
# fixed relative path.
T4_REBASE = RatMatrix([[1, 1, 0, 0], [0, 1, 0, 2], [0, 0, 1, 0], [0, 0, 1, 1]])
GOLDEN_BRANES = {
    "space-filling": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                      [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]),
    "curved-lagrangian": ([[1, 0, 0, 0], [0, 0, 1, 0]], [[0, 1], [-1, 0]]),
    "space-filling-rebased": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                              [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 2], [0, 1, -2, 0]]),
}
GOLDEN_BRANE_SHA256 = {
    "space-filling": "b5aceae258af2dc36271ebcc7ea51c5d7e1ed46f33c96cdc23d9e2293cbca70d",
    "curved-lagrangian": "f4a051b5de457f454174c1a26b8234c835314662e4fda3eda9fb3d1a9e747347",
    "space-filling-rebased": "fd220172525b5826e2102f56d00a8e1e267e4eef8cb7128e7e00455c746d1c4b",
}
# The `fm` report echoes its splitting parsed, as `mirror` does; its hash
# was re-frozen when that echo replaced the raw `--split` string, the only
# field that changed.
GOLDEN_FM_SHA256 = "e7a433b1aabe1f0f1231cfe268153050a02be51d039c96ec91b7ac0402e93ca0"


def golden_mirror_torus(name):
    if name == "T4":
        i = RatMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        return TorusData(2, i, RatMatrix.identity(4), RatMatrix.zero(4, 4), "T4")
    if name == "T4-rebased":
        t, u = golden_mirror_torus("T4"), T4_REBASE
        return TorusData(2, u.inverse() * t.I * u, u.transpose() * t.G * u,
                         u.transpose() * t.B * u, name)
    return square_torus(int(name[-1]), name)


# Each command's minimal argv and the paper_ref its reports carry, frozen
# from the table the parser used to look claims up in.
PAPER_REFS = {
    "validate": (["T"], "flat-torus-data-invariants"),
    "doubled": (["T"], "doubled-lattice-structures"),
    "spectrum": (["T"], "zero-mode-spectrum-invariants"),
    "check-iso": (["S", "T"], "scft-isomorphism-lattice-criterion"),
    "check-mirror": (["S", "T"], "mirror-symmetry-lattice-criterion"),
    "check-derived-eq": (["S", "T"], "derived-equivalence-lattice-criterion"),
    "verify-map": (["M"], "lattice-map-verification"),
    "mirror": (["--torus", "T"], "tduality-mirror-construction"),
    "hodge": (["T"], "hodge-diamond-ranks"),
    "pp-classes": (["T", "--p", "1"], "rational-pp-classes"),
    "lefschetz": (["T"], "middle-degree-lefschetz-kernel"),
    "fm": (["--torus", "T", "--split", "S", "--class", "C"], "duality-cohomology-transport"),
    "check-mirror-class": (["--torus", "T", "--class", "C"], "mirror-class-condition"),
    "beta": (["T"], "bfield-brauer-torsion"),
    "abrane-check": (["--brane", "B"], "coisotropic-brane-conditions"),
    "fock-verify": ([], "oscillator-algebra-relations"),
}


class TestDeterminism:
    def test_every_command_is_registered_with_its_claim(self):
        assert {name: entry[0] for name, entry in cli.COMMANDS.items()} == \
            {name: claim for name, (_, claim) in PAPER_REFS.items()}

    @pytest.mark.parametrize("command", sorted(PAPER_REFS))
    def test_reports_cite_the_paper_claim(self, capsys, command):
        argv, claim = PAPER_REFS[command]
        args = cli.parse_args([command, *argv])
        assert cli._emit(args, {}, {}, 0) == 0
        data = report(capsys.readouterr().out)
        assert (data["command"], data["paper_ref"]) == (command, claim)

    @pytest.mark.parametrize("command, source, target, bound, sha256", GOLDEN_VERDICT_REPORTS,
                             ids=["iso-refuted", "derived-none-within-bound"])
    def test_golden_verdict_reports(self, capsys, square1, stretched1, torus_file,
                                    command, source, target, bound, sha256):
        tori = {"square": square1, "stretched": stretched1, "open1": OPEN1, "open2": OPEN2}
        code, out, err = run(capsys, command, torus_file(tori[source], f"{source}.json"),
                             torus_file(tori[target], f"{target}.json"), "--bound", bound)
        assert (code, err) == (1, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("command, extra", [("doubled", []), ("spectrum", ["--height", "1"]),
                                                ("hodge", []), ("beta", []),
                                                ("pp-classes", ["--p", "1"])],
                             ids=["doubled", "spectrum-height1", "hodge", "beta", "pp-classes-p1"])
    def test_golden_reports_with_b_field(self, capsys, tmp_path, command, extra):
        path = tmp_path / "golden2.json"
        path.write_text(json.dumps(GOLDEN_TORUS))
        code, out, err = run(capsys, command, str(path), *extra)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[command]

    @pytest.mark.parametrize("command, d, shears, g", GOLDEN_CERTIFICATES,
                             ids=["iso-sheared2", "iso-sheared3", "mirror-square3"])
    def test_golden_certificates(self, capsys, torus_file, command, d, shears, g):
        source = torus_file(square_torus(d, f"square{d}"), "source.json")
        target = torus_file(sheared(d, shears), "target.json")
        code, out, _ = run(capsys, command, source, target, "--bound", "1")
        assert code == 0
        assert report(out)["result"]["certificate"]["g"] == g

    @pytest.mark.parametrize("name", sorted(GOLDEN_MIRROR_SHA256))
    def test_golden_mirror_reports(self, capsys, torus_file, name):
        path = torus_file(golden_mirror_torus(name), f"{name}.json")
        code, out, err = run(capsys, "mirror", "--torus", path)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_MIRROR_SHA256[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_FOCK_SHA256))
    def test_golden_fock_reports(self, capsys, stretched_file, name):
        if name == "d2-cap3":
            argv = ["--d", "2", "--cap", "3"]
        else:
            argv = ["--torus", stretched_file, "--cap", "5/2"]
        code, out, err = run(capsys, "fock-verify", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FOCK_SHA256[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_BRANES))
    def test_golden_abrane_reports(self, capsys, monkeypatch, tmp_path, torus_file, name):
        torus_file(golden_mirror_torus("T4-rebased" if name.endswith("rebased") else "T4"),
                   "t4.json")
        y_basis, f = GOLDEN_BRANES[name]
        (tmp_path / "brane.json").write_text(json.dumps(
            {"torus_ref": "t4.json", "Y_basis": y_basis, "F": f}))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "abrane-check", "--brane", "brane.json")
        assert (code, err) == (1 if name == "curved-lagrangian" else 0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_BRANE_SHA256[name]

    def test_golden_fm_report(self, capsys, tmp_path, square2_file):
        cls = tmp_path / "kaehler.json"
        cls.write_text(json.dumps({"grade_terms": [{"indices": [0, 1], "coeff": "1"},
                                                   {"indices": [2, 3], "coeff": "1"}]}))
        code, out, err = run(capsys, "fm", "--torus", square2_file, "--class", str(cls),
                             "--split", "1,0,0,0;0,0,1,0|0,1,0,0;0,0,0,1")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FM_SHA256

    def test_reports_are_byte_stable(self, capsys, square_file):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "check-mirror", square_file, square_file,
                               "--bound", "2")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_emitted_certificates_reverify(self, capsys, tmp_path, square_file):
        code, out, _ = run(capsys, "check-mirror", square_file, square_file,
                           "--bound", "2")
        cert = report(out)["result"]["certificate"]
        mp = tmp_path / "roundtrip.json"
        mp.write_text(json.dumps({
            "kind": cert["kind"],
            "g": cert["g"],
            "source": "square.json",
            "target": "square.json",
        }))
        code, out, _ = run(capsys, "verify-map", str(mp))
        assert code == 0
