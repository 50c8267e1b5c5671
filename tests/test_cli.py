"""End-to-end CLI behavior: every subcommand, exit codes, determinism."""

import ast
import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import diag, mono, random_valid_torus, square_torus
import flattori
from flattori import cli, equivalence, fock, jsonio, tduality
from flattori._rational import Q
from flattori.cli import main
from flattori.errors import SchemaError
from flattori.exactlinear import RatMatrix, rat_str, ratio_str
from flattori.torus import TorusData


LATTICE_REFUTED_BY = "(rank, det) of tr(q h^t q h) differs on L(T1,T1), L(T1,T2), L(T2,T2): "
ISOMETRY_REFUTED_BY = ("no Narain isometry g^t N2 g = N1 preserves q and carries N1 S1 "
                       "to N2 S2: ")


def norms_refuted(a, b, bound, nodes):
    """The report of an iso or mirror pair refuted before the isometry search
    places a column: the N-norms of the ``a`` source and ``b`` target vectors
    (up to sign) of N-norm at most ``bound`` differ."""
    return {"found": False, "verdict": "refuted", "nodes": nodes,
            "refuted_by": ISOMETRY_REFUTED_BY + f"the N-norms of their {a} and {b} vectors up "
                          f"to sign of N-norm at most {bound} differ, {nodes} nodes"}


# the report of square1 against stretched1, iso or mirror: the square lattice
# has four vectors of N-norm 1 up to sign, the stretched one norms 1/4 and 4
SQUARE_STRETCHED_REFUTED = norms_refuted(4, 4, 1, 25)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out):
    data = json.loads(out)
    assert set(data) == {"command", "inputs", "result", "paper_ref"}
    return data


def _report_at_every_bound_and_budget(capsys, command, source, target, code):
    """The one report ``command`` prints, found or refuted, at the default
    options, ``--bound 1``, ``--bound 3`` and ``--budget 1``, less the bound
    echoed in its inputs.  The isometry search of the Narain lattices is the
    whole iso and mirror search, so neither option moves the report: the ``--budget 1``
    stdout is byte-identical to the default's, and the others differ from
    it only in that echoed bound."""
    outs = {}
    for name, extra in (("default", []), ("bound1", ["--bound", "1"]),
                        ("bound3", ["--bound", "3"]), ("budget1", ["--budget", "1"])):
        got, out, err = run(capsys, command, source, target, *extra)
        assert (got, err) == (code, "")
        outs[name] = out
    assert outs["budget1"] == outs["default"]
    reports = []
    for name, out in outs.items():
        data = report(out)
        assert data["inputs"].pop("bound") == {"bound1": 1, "bound3": 3}.get(name, 2)
        reports.append(data)
    assert all(data == reports[0] for data in reports)
    return reports[0]


@pytest.fixture
def square_file(square1, torus_file):
    return torus_file(square1, "square.json")


@pytest.fixture
def square2_file(square2, torus_file):
    return torus_file(square2, "square2.json")


@pytest.fixture
def stretched_file(stretched1, torus_file):
    return torus_file(stretched1, "stretched.json")


# square2 with its first factor stretched to tau = 2i: no certificate relates
# the two, and their Narain norms differ.
STRETCHED2 = TorusData(
    2, RatMatrix([[0, -2, 0, 0], [Q(1, 2), 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    diag([1, 4, 1, 1]), RatMatrix.zero(4, 4), "stretched2")


@pytest.fixture
def stretched2_file(torus_file):
    return torus_file(STRETCHED2, "stretched2.json")


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
        # the cap as given: this Fraction has more digits than str() may print
        (None, ["fock-verify", "--d", "1", "--cap", "-1e5000"],
         "cap must be at least 1/2, got -1e5000 (at --cap)"),
        # diag(1, 1, 1, 0): the last Bareiss pivot is 1, yet det g = 0
        (None, ["verify-map", "Z"], "lattice map is not unimodular"),
    ])
    def test_one_line_exit_two(self, capsys, tmp_path, square_file, square2_file, config,
                               argv, message):
        # T is a valid torus file and W one of another dimension, V a map from
        # T to W, N an integral map on T with det 2 and Z one of rank 3, M a
        # path in a directory that does not exist, O a writable path, D a
        # directory and U a file that is not UTF-8; R, E, S and F each hold
        # one matrix with a short or empty row: a torus's I, a torus's G, a
        # map's g and a brane's F
        paths = {"T": square_file, "W": square2_file, "V": str(tmp_path / "dims.json"),
                 "N": str(tmp_path / "det2.json"), "Z": str(tmp_path / "rank3.json"),
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
        (tmp_path / "rank3.json").write_text(json.dumps(
            {"kind": "iso", "source": "square.json", "target": "square.json",
             "g": [[int(i == j < 3) for j in range(4)] for i in range(4)]}))
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
    "class-base_rank": (["check-mirror-class", "--torus", "S", "--class", "X"],
                        {"base_rank": True, "grade_terms": [{"indices": [0], "coeff": "1"}]},
                        "base_rank must be an integer, got True (at x.json.base_rank)"),
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


# One payload per field that reads a JSON integer or rational, each with a
# JSON float of integral value there: 1.0 is not the integer 1.
FLOAT_PAYLOADS = {
    "torus-d": (["validate", "X"], {**SQUARE1_JSON, "d": 1.0},
                "missing or invalid dimension (at x.json.d)"),
    "class-base_rank": (["check-mirror-class", "--torus", "S", "--class", "X"],
                        {"base_rank": 2.0, "grade_terms": [{"indices": [0], "coeff": "1"}]},
                        "base_rank must be an integer, got 2.0 (at x.json.base_rank)"),
    "class-indices": (["check-mirror-class", "--torus", "S", "--class", "X"],
                      {"grade_terms": [{"indices": [0.0], "coeff": "1"}]},
                      "indices must be a strictly increasing list within range "
                      "(at x.json.grade_terms[0].indices)"),
    "class-coeff": (["check-mirror-class", "--torus", "S", "--class", "X"],
                    {"grade_terms": [{"indices": [0], "coeff": 1.0}]},
                    "expected a rational number, got 1.0 (at x.json.grade_terms[0].coeff)"),
    "map-g": (["verify-map", "X"],
              {"kind": "iso", "source": "square.json", "target": "square.json",
               "g": [[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
              "expected a rational number, got 1.0 (at x.json.g[0][0])"),
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


class TestFloatsAreNotIntegers:
    @pytest.mark.parametrize("field", sorted(FLOAT_PAYLOADS))
    def test_float_is_input_error(self, capsys, tmp_path, square_file, field):
        argv, payload, message = FLOAT_PAYLOADS[field]
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


# A rational in a file is a JSON integer or a string "p" or "p/q": p an
# optionally signed integer, q a positive integer.  One payload per form
# outside that grammar, most of which Fraction would read, each in a field
# that reads rationals: (argv, the bad file's content, the pointer).
def _g_with(value):
    return {**SQUARE1_JSON, "G": [[value, "0"], ["0", "1"]]}


RATIONAL_GRAMMAR_PAYLOADS = {
    "2.5": (["validate", "X"], _g_with("2.5"), "G[0][0]"),
    "1_0": (["validate", "X"], _g_with("1_0"), "G[0][0]"),
    " 3/4 ": (["validate", "X"], _g_with(" 3/4 "), "G[0][0]"),
    "1e300000": (["validate", "X"], _g_with("1e300000"), "G[0][0]"),
    "3/-4": (["validate", "X"], _g_with("3/-4"), "G[0][0]"),
    "3/0": (["validate", "X"], _g_with("3/0"), "G[0][0]"),
    "nan": (["validate", "X"], _g_with("nan"), "G[0][0]"),
    "++1": (["validate", "X"], _g_with("++1"), "G[0][0]"),
    "1/2/3": (["validate", "X"], _g_with("1/2/3"), "G[0][0]"),
    "\u0661": (["validate", "X"], _g_with("\u0661"), "G[0][0]"),
    "1e3": (["check-mirror-class", "--torus", "S", "--class", "X"],
            {"grade_terms": [{"indices": [0], "coeff": "1e3"}]}, "grade_terms[0].coeff"),
    "0.5": (["abrane-check", "--brane", "X"],
            {"torus_ref": "square.json", "Y_basis": [[1, 0], [0, 1]],
             "F": [["0", "0.5"], ["-1/2", "0"]]}, "F[0][1]"),
    "2E1": (["abrane-check", "--brane", "X"],
            {"torus_ref": "square.json", "Y_basis": [[1, 0], [0, 1]],
             "translation": ["1/2", "2E1"]}, "translation[1]"),
    "1.0": (["verify-map", "X"],
            {"kind": "iso", "source": "square.json", "target": "square.json",
             "g": [["1.0", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}, "g[0][0]"),
}


class TestRationalGrammar:
    @pytest.mark.parametrize("value", sorted(RATIONAL_GRAMMAR_PAYLOADS))
    def test_form_outside_the_grammar_is_input_error(self, capsys, tmp_path, square_file,
                                                     value):
        argv, payload, pointer = RATIONAL_GRAMMAR_PAYLOADS[value]
        assert run_payload(capsys, tmp_path, square_file, argv, payload) == \
            (2, "", f"input error: expected a rational number, got {value!r} "
                    f"(at x.json.{pointer})\n")

    # signs, leading zeros, reducible fractions and JSON integers are read
    def test_forms_in_the_grammar_are_read(self, capsys, tmp_path, square_file):
        payload = {**SQUARE1_JSON, "I": [[0, "-1"], ["+1", "00"]],
                   "G": [["2/2", "-0/5"], [0, "+006/6"]]}
        code, out, _ = run_payload(capsys, tmp_path, square_file, ["validate", "X"], payload)
        assert code == 0
        torus = report(out)["inputs"]["torus"]
        assert (torus["I"], torus["G"]) == ([["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "1"]])

    # a value past int()'s digit limit, or any long value, is cut in the
    # message, which gives its length: one short line
    def test_oversized_value_is_one_short_line(self, capsys, tmp_path, square_file):
        for value, shown in (("1" * 100_000, "'" + "1" * 39 + "... (str of length 100000)"),
                             ([0] * 1000, "[" + "0, " * 13 + "... (list of length 1000)")):
            assert run_payload(capsys, tmp_path, square_file, ["validate", "X"],
                               _g_with(value)) == \
                (2, "", f"input error: expected a rational number, got {shown} "
                        f"(at x.json.G[0][0])\n")

    # a command-line value of 4,001 characters, at each place that echoes
    # one, is cut in the one line of the input error as a file's value is
    @pytest.mark.parametrize("argv", [
        ["check-iso", "T", "T", "--bound", "x" * 4001],
        ["check-iso", "T", "T", "--budget", "-" + "1" * 4000],
        ["spectrum", "T", "--norm", "-" + "1" * 4000],
        ["spectrum", "T", "--norm", "1" * 4001],
        ["pp-classes", "T", "--p", "1" * 4001],
        ["fock-verify", "--d", "-" + "1" * 4000],
        ["fock-verify", "--d", "1" * 4001],
        ["fock-verify", "--d", "1", "--cap", "x" * 4001],
        ["fock-verify", "--d", "1", "--cap", "-" + "1" * 4000],
        ["fock-verify", "--d", "1", "--cap", "1" * 4001],
    ], ids=["int-option", "budget", "norm", "norm-limit", "p", "d", "d-size", "cap-rational",
            "cap-half", "cap-size"])
    def test_long_command_line_value_is_one_short_line(self, capsys, square_file, argv):
        code, out, err = run(capsys, *[square_file if a == "T" else a for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200, err

    # The int parser and the (num, den) writer against Fraction: a string is
    # read exactly when it is [+-]p or [+-]p/q in ASCII digits with q != 0,
    # to Fraction's value, and writes back as rat_str of that Fraction; any
    # other string is refused with the message of the forms above.
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.from_regex(r"[+-]?[0-9]{1,25}(/[0-9]{1,25})?", fullmatch=True),
                     st.text(alphabet="0123456789+-/ _.eE\u0661", max_size=10)))
    @example("+006/6")
    @example("-0/5")
    @example("3/0")
    @example("1e3")
    def test_parser_and_writer_agree_with_fraction(self, value):
        in_grammar = re.fullmatch(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?", value, re.ASCII)
        if not in_grammar:
            with pytest.raises(SchemaError) as info:
                jsonio.ratio_from_json(value, "x")
            assert str(info.value) == f"expected a rational number, got {value!r} (at x)"
            return
        ref = Fraction(value)
        p, q = jsonio.ratio_from_json(value, "x")
        assert q > 0 and Fraction(p, q) == ref == jsonio.rat_from_json(value, "x")
        assert ratio_str(p, q) == rat_str(ref)
        m = jsonio.matrix_from_json([[value, "1/6"], [value, 0]], "x", 2)
        assert jsonio.matrix_to_json(m) == [[rat_str(ref), "1/6"], [rat_str(ref), "0"]]

    # the exponent used to pass validation and then fail while the report was
    # written, with a traceback, exit 1 and an empty stdout
    def test_exponent_is_input_error_in_a_fresh_process(self, tmp_path):
        (tmp_path / "big.json").write_text(json.dumps(_g_with("1e300000")))
        proc = _fresh_python("-m", "flattori.cli", "validate", str(tmp_path / "big.json"))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("input error: expected a rational number, got '1e300000' "
                               "(at big.json.G[0][0])\n")


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
        # square1's N is the identity: the 32 charges of norm 1 and 2 are 16
        # pairs +-gamma, q = 2 w.m, and p^2/2 = (|gamma|^2 - q)/2
        code, out, _ = run(capsys, "spectrum", square_file)
        assert code == 0
        assert report(out)["result"] == {"norm": 2, "triples": (
            2 * [["-2", "2", "0"]] + 4 * [["0", "1/2", "1/2"]] + 8 * [["0", "1", "1"]]
            + 2 * [["2", "0", "2"]])}
        code, out, _ = run(capsys, "spectrum", square_file, "--norm", "0")
        assert (code, report(out)["result"]) == (0, {"norm": 0, "triples": []})

    def test_spectrum_negative_norm_is_input_error(self, capsys, square_file):
        assert run(capsys, "spectrum", square_file, "--norm", "-1") == (
            2, "", "input error: norm must be nonnegative, got -1 (at --norm)\n")

    # square1's ball holds 2.5 c^2 charges up to sign: 199,292 at norm 284,
    # 201,212 at 285, the first past the limit of 2 * 10^5; the walk stops
    # there, so 10^8 and 10^100 cost no more; a norm past 40 digits is echoed
    # cut, with its length
    @pytest.mark.parametrize("norm, shown", [
        (285, "285"), (100000000, "100000000"),
        (10 ** 100, "1" + "0" * 39 + "... (int of length 101)")],
        ids=["285", "100000000", str(10 ** 100)])
    def test_spectrum_window_past_the_limit_is_input_error(self, capsys, square_file, norm,
                                                           shown):
        assert run(capsys, "spectrum", square_file, "--norm", str(norm)) == (
            2, "", f"input error: norm {shown} holds more than 200000 charge vectors up to "
            "sign, the limit (at --norm)\n")

    def test_spectrum_lists_a_d3_ball(self, capsys, torus_file):
        # 24 charges of norm 1 and 264 of norm 2, up to sign
        path = torus_file(square_torus(3, "square3"), "square3.json")
        code, out, _ = run(capsys, "spectrum", path)
        assert code == 0 and len(report(out)["result"]["triples"]) == 144


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

# Runs argv as `python -m flattori.cli` does, through runpy with the module
# named __main__, and prints, after the report, every flattori module it
# loaded: those in sys.modules at the end, and every import statement's
# module on the way (its audit event), so one removed again still shows.
RUN_AS_MAIN = """\
import json, runpy, sys
imported = set()
sys.addaudithook(lambda event, args: event == "import" and imported.add(args[0]))
sys.argv[0] = "flattori"
code = 0
try:
    runpy.run_module("flattori.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps(sorted(m for m in imported | set(sys.modules) if m.split(".")[0] == "flattori")),
      file=sys.stderr)
sys.exit(code)
"""


def _compiled_nodes(loaded):
    """The AST nodes of the flattori modules named in ``loaded``: what a
    command compiles when no bytecode is cached."""
    root = os.path.dirname(flattori.__file__)
    return sum(sum(1 for _ in ast.walk(ast.parse(open(os.path.join(
        root, m.partition(".")[2] + ".py" if "." in m else "__init__.py")).read())))
        for m in loaded)


def _fresh_python(*argv, cwd=None):
    """Run ``python *argv`` in a new interpreter that imports this flattori."""
    src = os.path.dirname(os.path.dirname(flattori.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


# The start-up core every command loads, and each command on tiny inputs
# with the layers it loads besides the core: its own, and what that imports.
# An iso or mirror search is the isometry search of the Narain lattices, so
# it loads that module, LLL and the certificate check, and none of the
# derived_eq path; spectrum lists the Narain ball with the same enumerator.
# A derived_eq search loads the integer kernels, and LLL and the box scan
# (kernels and kernels_py) only when it scans: a pair of two bases of
# square1 (H against T) is found by the scan.  hodge, lefschetz and beta
# build their grade operators as int rows (the hodge layer), and only beta,
# which reads B's Fractions, loads _rational; the class commands load the
# exterior algebra, and so does an accepted brane.
CORE = {"flattori", "flattori.cli", "flattori.jsonio", "flattori.torus",
        "flattori.exactlinear", "flattori.errors", "flattori._record"}
ISOMETRY_LAYERS = {"isometry", "relations", "_lll"}
LATTICE_LAYERS = {"equivalence", "relations", "_intlat", "_intkernel"}
SEARCH_LAYERS = LATTICE_LAYERS | {"_lll", "kernels", "kernels_py"}
COHOMOLOGY_LAYERS = {"cohomology", "hodge", "exterior", "_rational"}
COMMAND_LAYERS = [
    (["validate", "T"], set()),
    (["doubled", "T"], set()),
    (["spectrum", "T"], ISOMETRY_LAYERS | {"equivalence"}),
    (["check-iso", "T", "T"], ISOMETRY_LAYERS),
    (["check-mirror", "T", "T"], ISOMETRY_LAYERS),
    (["check-derived-eq", "H", "T"], SEARCH_LAYERS),
    (["verify-map", "M"], {"equivalence", "relations"}),
    (["mirror", "--torus", "T"], {"tduality", "relations", "_intkernel"}),
    (["hodge", "T"], {"hodge"}),
    (["pp-classes", "T", "--p", "1"], COHOMOLOGY_LAYERS),
    (["lefschetz", "T"], {"hodge"}),
    (["fm", "--torus", "T", "--split", "1,0|0,1", "--class", "C"],
     COHOMOLOGY_LAYERS | {"tduality", "relations", "_intkernel"}),
    (["check-mirror-class", "--torus", "T", "--class", "C"], COHOMOLOGY_LAYERS),
    (["beta", "T"], {"hodge", "_rational"}),
    (["abrane-check", "--brane", "B"], {"abranes", "exterior", "_intkernel", "_rational"}),
    (["fock-verify", "--torus", "T", "--cap", "1"], {"fock"}),
]
COMMAND_IDS = [argv[0] for argv, _ in COMMAND_LAYERS]


@pytest.fixture
def command_argv(tmp_path, square_file):
    """Fill in an argv of :data:`COMMAND_LAYERS`: T a square torus, H the same
    torus in the basis (e0, e0 + e1), M an identity map, C a class and B a
    brane on T, each file in ``tmp_path``."""
    files = {"T": square_file, "H": str(tmp_path / "sheared.json"),
             "M": str(tmp_path / "map.json"),
             "C": str(tmp_path / "class.json"), "B": str(tmp_path / "brane.json")}
    (tmp_path / "sheared.json").write_text(json.dumps(
        {"d": 1, "I": [["-1", "-2"], ["1", "1"]], "G": [["1", "1"], ["1", "2"]],
         "B": [["0", "0"], ["0", "0"]], "label": "sheared"}))
    (tmp_path / "map.json").write_text(json.dumps(
        {"kind": "iso", "source": "square.json", "target": "square.json",
         "g": [[int(i == j) for j in range(4)] for i in range(4)]}))
    (tmp_path / "class.json").write_text(json.dumps(
        jsonio.class_to_json(mono(2, (0,)))))
    (tmp_path / "brane.json").write_text(json.dumps(
        {"torus_ref": "square.json", "Y_basis": [[1, 0]], "F": [["0"]]}))
    return lambda argv: [files.get(a, a) for a in argv]


class TestImportIsolation:
    """Each command imports only the layers it runs."""

    @pytest.mark.parametrize("argv, unloaded", [
        (["validate", "T"],
         {"fock", "cohomology", "abranes", "tduality", "equivalence", "isometry", "exterior",
          "_intlat"}),
        (["check-iso", "T", "T"], {"fock", "cohomology", "abranes", "tduality", "exterior",
                                   "equivalence", "_intlat", "_intkernel"}),
        (["hodge", "T"], {"tduality", "equivalence", "abranes", "fock", "cohomology", "exterior",
                          "_rational"}),
        (["mirror", "--torus", "T"],
         {"fock", "cohomology", "abranes", "exterior", "kernels", "kernels_py"}),
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

    # the exact set, so a module that starts loading anywhere shows here
    @pytest.mark.parametrize("argv, layers", COMMAND_LAYERS, ids=COMMAND_IDS)
    def test_command_loads_the_core_and_its_layers(self, command_argv, argv, layers):
        proc = _fresh_python("-c", LOADED_MODULES, *command_argv(argv))
        assert proc.returncode == 0, proc.stderr
        assert report(proc.stdout)["command"] == argv[0]
        loaded = {m for m in json.loads(proc.stderr.splitlines()[-1])
                  if m.split(".")[0] == "flattori"}
        assert loaded == CORE | {f"flattori.{layer}" for layer in layers}

    # Under -m the command line runs as __main__, so a layer that imported
    # flattori.cli would compile and run its top level a second time.
    @pytest.mark.parametrize("argv, layers", COMMAND_LAYERS, ids=COMMAND_IDS)
    def test_no_layer_imports_cli_under_dash_m(self, command_argv, argv, layers):
        proc = _fresh_python("-c", RUN_AS_MAIN, *command_argv(argv))
        assert proc.returncode == 0, proc.stderr
        assert report(proc.stdout)["command"] == argv[0]
        imported = json.loads(proc.stderr.splitlines()[-1])
        assert "flattori.cli" not in imported
        assert set(imported) == CORE - {"flattori.cli"} | {f"flattori.{m}" for m in layers}

    # Start-up compiles no dataclass machinery, no argparse and no exterior
    # algebra: after an in-process check-iso none of them is loaded, unless
    # the bare interpreter loads it already; pp-classes loads the exterior
    # algebra.
    def test_startup_loads_neither_dataclasses_nor_exterior(self, square_file):
        watched = {"argparse", "dataclasses", "flattori.exterior"}
        bare = _fresh_python("-c", "import json, sys; print(json.dumps(sorted(sys.modules)))")
        expected = watched & set(json.loads(bare.stdout))
        proc = _fresh_python("-c", LOADED_MODULES, "check-iso", square_file, square_file)
        assert proc.returncode == 0, proc.stderr
        assert set(json.loads(proc.stderr.splitlines()[-1])) & watched == expected
        proc = _fresh_python("-c", LOADED_MODULES, "pp-classes", square_file, "--p", "1")
        assert proc.returncode == 0, proc.stderr
        assert "flattori.exterior" in json.loads(proc.stderr.splitlines()[-1])

    # Validating a torus, deciding a search, listing the spectrum and
    # building a mirror work on int rows alone, so none loads fractions, nor
    # the decimal and numbers modules it loads, unless the bare interpreter
    # has them already.  None compiles the box scan either: an iso or mirror
    # search, found or refuted and at every d, is the isometry search of the
    # Narain lattices, and the derived_eq pair is refuted by its lattices.
    # hodge and lefschetz read int-row grade operators; pp-classes computes
    # with Fractions.
    @pytest.mark.parametrize("argv, verdict", [
        (["validate", "T"], None),
        (["spectrum", "T2"], None),
        (["check-iso", "T", "T"], "found"),
        (["check-iso", "T", "S"], "refuted"),
        (["check-mirror", "T", "S"], "refuted"),
        (["check-derived-eq", "T", "S"], "refuted"),
        (["check-iso", "T2", "S2"], "refuted"),
        (["check-mirror", "T3", "T3"], "found"),
        (["mirror", "--torus", "T"], "found"),
        (["hodge", "T3"], None),
        (["lefschetz", "T3"], None),
    ], ids=["validate", "spectrum", "check-iso-found", "check-iso-refuted", "check-mirror-refuted",
            "check-derived-eq-refuted", "check-iso-d2-refuted", "check-mirror-d3-found",
            "mirror", "hodge", "lefschetz"])
    def test_validate_and_search_load_no_fractions(self, square_file, stretched_file,
                                                   square2_file, stretched2_file, torus_file,
                                                   argv, verdict):
        watched = {"fractions", "decimal", "numbers"}
        bare = _fresh_python("-c", "import json, sys; print(json.dumps(sorted(sys.modules)))")
        files = {"T": square_file, "S": stretched_file, "T2": square2_file,
                 "S2": stretched2_file, "T3": torus_file(square_torus(3), "square3.json")}
        proc = _fresh_python("-c", LOADED_MODULES, *[files.get(a, a) for a in argv])
        assert proc.returncode == (verdict == "refuted"), proc.stderr
        result = report(proc.stdout)["result"]
        assert result.get("verdict", "found" if result.get("found") else None) == verdict
        loaded = set(json.loads(proc.stderr.splitlines()[-1]))
        assert loaded & watched == watched & set(json.loads(bare.stdout))
        assert loaded & {"flattori.kernels", "flattori.kernels_py"} == set()

    def test_pp_classes_loads_fractions(self, square_file):
        proc = _fresh_python("-c", LOADED_MODULES, "pp-classes", square_file, "--p", "1")
        assert proc.returncode == 0, proc.stderr
        assert "fractions" in json.loads(proc.stderr.splitlines()[-1])

    # Each handler's layer is imported when its command runs, so a missing
    # import shows only when the command starts as a fresh process: every
    # subcommand is started once as `python -m flattori.cli` on tiny inputs
    # and must exit 0 with a report.
    def test_every_command_runs_in_a_fresh_process(self, tmp_path, command_argv):
        assert set(COMMAND_IDS) == set(PAPER_REFS)
        for argv, _ in COMMAND_LAYERS:
            proc = _fresh_python("-m", "flattori.cli", *command_argv(argv), cwd=tmp_path)
            assert (proc.returncode, proc.stderr) == (0, ""), argv
            assert report(proc.stdout)["command"] == argv[0]

    # What a search compiles when no bytecode is cached (as under
    # PYTHONDONTWRITEBYTECODE=1): the AST nodes of the flattori modules it
    # loads in a fresh process.  An iso or mirror search, found or refuted at
    # d = 1, 2, 3, compiles none of the derived_eq path, and a refuted
    # derived_eq search none of the isometry search (nor LLL or the scan,
    # whose packed form lives in kernels_py).  mirror reads relations, which
    # also holds the searches' certificate check, and compiles no search.
    @pytest.mark.parametrize("argv, verdict, most, unloaded", [
        *[(argv, verdict, 9950, {"equivalence", "_intlat", "_intkernel", "kernels",
                                 "kernels_py"}) for argv, verdict in [
            (["check-iso", "T", "T"], "found"),
            (["check-mirror", "T", "S"], "refuted"),
            (["check-iso", "T2", "H2"], "found"),
            (["check-mirror", "T2", "S2"], "refuted"),
            (["check-mirror", "T3", "T3"], "found"),
            (["check-iso", "T3", "S3"], "refuted")]],
        (["check-derived-eq", "T", "S"], "refuted", 10150, {"isometry", "_lll", "kernels",
                                                            "kernels_py"}),
        (["check-derived-eq", "H", "T"], "found", 12100, {"isometry"}),
        (["mirror", "--torus", "T"], "found", 10060, {"isometry", "equivalence", "_intlat",
                                                      "_lll", "kernels", "kernels_py"}),
    ], ids=["check-iso-d1-found", "check-mirror-d1-refuted", "check-iso-d2-found",
            "check-mirror-d2-refuted", "check-mirror-d3-found", "check-iso-d3-refuted",
            "check-derived-eq-refuted", "check-derived-eq-found", "mirror"])
    def test_search_compiles_within_its_budget(self, command_argv, torus_file, stretched_file,
                                               square2_file, stretched2_file, argv, verdict,
                                               most, unloaded):
        u = RatMatrix([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        t2 = square_torus(2)
        s3 = TorusData(3, RatMatrix.from_blocks([[RatMatrix([[0, -2], [Q(1, 2), 0]]),
                                                  RatMatrix.zero(2, 4)],
                                                 [RatMatrix.zero(4, 2), t2.I]]),
                       diag([1, 4, 1, 1, 1, 1]), RatMatrix.zero(6, 6), "stretched1_square2")
        files = {"S": stretched_file, "T2": square2_file, "S2": stretched2_file,
                 "H2": torus_file(TorusData(2, u.inverse() * t2.I * u, u.transpose() * t2.G * u,
                                            t2.B, "sheared2"), "sheared2.json"),
                 "T3": torus_file(square_torus(3), "square3.json"),
                 "S3": torus_file(s3, "stretched1_square2.json")}
        proc = _fresh_python("-c", LOADED_MODULES, *command_argv([files.get(a, a) for a in argv]))
        assert proc.returncode == (verdict == "refuted"), proc.stderr
        result = report(proc.stdout)["result"]
        assert result.get("verdict", "found" if result.get("found") else None) == verdict
        loaded = [m for m in json.loads(proc.stderr.splitlines()[-1])
                  if m.split(".")[0] == "flattori"]
        assert {m.removeprefix("flattori.") for m in loaded} & unloaded == set()
        assert _compiled_nodes(loaded) <= most

    # hodge, lefschetz and beta build their grade operators as int rows and
    # compile neither the exterior algebra nor the class layer, and a brane
    # that the dimension law rejects (three unit directions on square2)
    # compiles no exterior algebra either.
    @pytest.mark.parametrize("argv, code, most, unloaded", [
        (["hodge", "T2"], 0, 8200, {"cohomology", "exterior", "_rational"}),
        (["lefschetz", "T2"], 0, 8200, {"cohomology", "exterior", "_rational"}),
        (["beta", "T2"], 0, 8280, {"cohomology", "exterior"}),
        (["abrane-check", "--brane", "R"], 1, 9990, {"exterior", "cohomology", "hodge"}),
    ], ids=["hodge", "lefschetz", "beta", "abrane-check-rejected"])
    def test_structure_command_compiles_within_its_budget(self, tmp_path, square2_file, argv,
                                                          code, most, unloaded):
        (tmp_path / "three.json").write_text(json.dumps(
            {"torus_ref": "square2.json", "Y_basis": [[int(i == k) for i in range(4)]
                                                      for k in range(3)],
             "F": [["0"] * 3 for _ in range(3)]}))
        files = {"T2": square2_file, "R": str(tmp_path / "three.json")}
        proc = _fresh_python("-c", LOADED_MODULES, *[files.get(a, a) for a in argv])
        assert proc.returncode == code, proc.stderr
        result = report(proc.stdout)["result"]
        if argv[0] == "abrane-check":
            assert result["rejection"] == "dimension_law"
        loaded = [m for m in json.loads(proc.stderr.splitlines()[-1])
                  if m.split(".")[0] == "flattori"]
        assert {m.removeprefix("flattori.") for m in loaded} & unloaded == set()
        assert _compiled_nodes(loaded) <= most

    def test_budget_default_is_the_search_default(self):
        assert cli.DEFAULTS["budget"] == equivalence.DEFAULT_NODE_BUDGET


# The console script the package installs (flattori = "flattori.cli:main"),
# after an atexit handler that writes, as stderr's last line, how many
# objects the garbage collector holds frozen once the command has returned.
CONSOLE_SCRIPT = """\
import atexit, gc, sys
atexit.register(lambda: print("frozen:", gc.get_freeze_count(), file=sys.stderr))
from flattori.cli import main
sys.exit(main())
"""


class TestProcessExit:
    """``main()`` run as the program freezes the collector before the
    interpreter exits, so that its shutdown collections skip every object;
    what the command prints, writes and returns stays that of ``main(argv)``."""

    @pytest.mark.parametrize("argv, code", [
        (["validate", "S"], 0),
        (["check-iso", "S", "T"], 1),
        (["check-iso", "S"], 2),
    ], ids=["validate", "check-iso", "usage-error"])
    def test_program_prints_what_main_returns(self, capsys, tmp_path, square_file,
                                              stretched_file, argv, code):
        argv = [{"S": square_file, "T": stretched_file}.get(a, a) for a in argv]
        expected = run(capsys, *argv)
        assert expected[0] == code
        # in process nothing is frozen
        assert gc.get_freeze_count() == 0
        proc = _fresh_python("-m", "flattori.cli", *argv, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected
        proc = _fresh_python("-c", CONSOLE_SCRIPT, *argv, cwd=tmp_path)
        *err, frozen = proc.stderr.splitlines(keepends=True)
        assert (proc.returncode, proc.stdout, "".join(err)) == expected
        # the atexit handler still ran, after the freeze
        assert frozen.startswith("frozen: ") and int(frozen.split()[1]) > 0

    def test_program_writes_both_mirror_files_whole(self, capsys, tmp_path, square_file):
        outputs = [tmp_path / "mirror.json", tmp_path / "cert.json"]
        argv = ["mirror", "--torus", square_file,
                "--out-torus", str(outputs[0]), "--out-cert", str(outputs[1])]
        expected = run(capsys, *argv)
        assert expected[0] == 0
        written = [path.read_bytes() for path in outputs]
        for path in outputs:
            path.unlink()
        proc = _fresh_python("-m", "flattori.cli", *argv, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected
        assert [path.read_bytes() for path in outputs] == written
        for data in written:
            assert data.endswith(b"}\n")
            json.loads(data)


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
        assert report(out)["result"] == SQUARE_STRETCHED_REFUTED

    def test_check_mirror_refuted(self, capsys, square_file, stretched_file):
        code, out, _ = run(capsys, "check-mirror", square_file, stretched_file)
        assert code == 1
        assert report(out)["result"] == SQUARE_STRETCHED_REFUTED

    @pytest.mark.parametrize("command", ["check-iso", "check-mirror"])
    def test_d1_refutation_ignores_bound_and_budget(self, capsys, square_file, stretched_file,
                                                    command):
        data = _report_at_every_bound_and_budget(capsys, command, square_file,
                                                 stretched_file, 1)
        assert data["result"] == SQUARE_STRETCHED_REFUTED

    @pytest.mark.parametrize("command, pair", [("check-iso", "rebased1"),
                                               ("check-mirror", "mirrored1"),
                                               ("check-iso", "sheared2"),
                                               ("check-mirror", "sheared2")])
    def test_found_report_ignores_bound_and_budget(self, capsys, torus_file, command, pair):
        # the isometry search's first certificate and its nodes: a box scan
        # would reach no certificate of the d = 1 pairs below height 2, nor
        # one of any of these pairs within a budget of 1
        t1, t2 = REBASED1
        source, target = {
            "rebased1": (t1, t2),
            "mirrored1": (t2, tduality.mirror_via_tduality(
                t1, tduality.find_lagrangian_splitting(t1)).mirror),
            "sheared2": (square_torus(2, "square2"), sheared(2, [(0, 2, 1), (3, 1, -1)])),
        }[pair]
        data = _report_at_every_bound_and_budget(
            capsys, command, torus_file(source, "source.json"),
            torus_file(target, "target.json"), 0)
        assert data["result"]["found"] is True

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

    # an isometry search whose ball passes the limit ends undecided, and the
    # message names the limit, not the budget
    def test_ball_past_the_limit_ends_undecided(self, capsys, torus_file, monkeypatch):
        monkeypatch.setattr("flattori.isometry.SPECTRUM_LIMIT", 100)
        t = TorusData(2, RatMatrix([[0, -1000, 0, 0], [Q(1, 1000), 0, 0, 0], [0, 0, 0, -1],
                                    [0, 0, 1, 0]]), diag([1, 10 ** 6, 1, 1]),
                      RatMatrix.zero(4, 4), "stretched1000_square1")
        path = torus_file(t, "t.json")
        code, out, err = run(capsys, "check-iso", path, path, "--budget", "100")
        assert code == 1
        assert report(out)["result"] == {"found": False, "verdict": "undecided", "nodes": 218,
                                         "limit": 100}
        assert err == ("limit exceeded: a Narain ball of the isometry search holds more than "
                       "100 vectors up to sign, the limit\n")

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
        # past the height-1 box, inside the height-2 one.  Neither box is
        # scanned: the Narain norms of the two lattices differ, and refute at
        # every bound
        source = TorusData(1, RatMatrix([[1, -1], [2, -1]]), RatMatrix([[2, -1], [-1, 1]]),
                           RatMatrix([[0, 2], [-2, 0]]), "source")
        target = TorusData(1, RatMatrix([[-34, -13], [89, 34]]),
                           RatMatrix([[178, 68], [68, 26]]),
                           RatMatrix([[0, -2], [2, 0]]), "target")
        code, out, _ = run(capsys, "check-mirror", torus_file(source, "source.json"),
                           torus_file(target, "target.json"), "--bound", str(bound))
        assert code == 1
        assert report(out)["result"] == dict(norms_refuted(4, 4, 1, 23), verdict=verdict)

    def test_small_ellipsoid_is_refuted_at_height_one(self, capsys, torus_file):
        # on the saturated intertwiner basis this pair's radii are at most
        # 1/4; the Narain norms of the two lattices differ
        source = TorusData(1, RatMatrix([[2, -1], [5, -2]]), RatMatrix([[10, -4], [-4, 2]]),
                           RatMatrix([[0, Q(1, 2)], [Q(-1, 2), 0]]), "source")
        target = TorusData(1, RatMatrix([[-1, -2], [1, 1]]),
                           RatMatrix([[Q(1, 2), Q(1, 2)], [Q(1, 2), 1]]),
                           RatMatrix([[0, Q(-1, 2)], [Q(1, 2), 0]]), "target")
        assert self.mirror_search(capsys, torus_file, source, target, 1) == \
            (False, "refuted", 11)

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
                                                      stretched2_file, command, budget):
        # the Narain norms of the two lattices differ, and the isometry
        # search is the whole iso and mirror search, so no scan runs
        def refuse(*args):
            raise AssertionError("a scan or a fingerprint that cannot refute ran")
        monkeypatch.setattr(equivalence, "spectrum_fingerprint", refuse)
        monkeypatch.setattr("flattori.kernels.run_filter", refuse)
        code, out, err = run(capsys, command, square2_file, stretched2_file, *budget)
        assert code == 1
        assert report(out)["result"] == norms_refuted(8, 8, 1, 81)
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

    # the basis is counted level by level before it is built: at d = 1 it holds
    # 220,886 monomials at cap 17/2 and 350,974 at cap 9, the first cap past
    # the limit of 250,000, and the count stops there whatever the cap (1e3
    # overflowed the stack of the recursive basis walk); at d = 100000 level
    # 1/2 alone holds 400,000, and no 200000 x 200000 metric is built
    @pytest.mark.parametrize("argv, size, level", [
        (["--d", "1", "--cap", "9"], 350974, "9"),
        (["--d", "1", "--cap", "1e3"], 350974, "9"),
        (["--d", "3", "--cap", "9/2"], 666042, "9/2"),
        (["--d", "100000", "--cap", "1/2"], 400001, "1/2"),
    ], ids=["d1-cap9", "d1-cap1e3", "d3-cap9/2", "d100000"])
    def test_fock_verify_space_past_the_limit_is_input_error(self, capsys, argv, size, level):
        d, cap = argv[1], argv[3]
        assert run(capsys, "fock-verify", *argv) == (
            2, "", f"input error: cap {cap} spans more than 250000 basis monomials at d = {d}: "
            f"{size} up to level {level} (at --cap)\n")

    # d = 100 at cap 1/2 spans 401 monomials but 160,000 check rows: the rows
    # are counted before the space (or its 200 x 200 metric) is built
    def test_fock_verify_report_past_the_limit_is_input_error(self, capsys, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("the space was built")

        monkeypatch.setattr(fock, "TruncatedFock", unbuilt)
        assert run(capsys, "fock-verify", "--d", "100", "--cap", "1/2") == (
            2, "", "input error: cap 1/2 at d = 100 gives 160000 check rows, more than the "
            "limit 100000 (at --cap)\n")


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
# returning exactly these.  The iso ones are the Narain isometry search's
# first, frozen when it became the whole iso and mirror search; the mirror one
# is also the first of the box scan that ran at d = 3 before it.
GOLDEN_CERTIFICATES = [
    ("check-iso", 2, [(0, 2, 1), (3, 1, -1)],
     [[0, 1, -1, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0],
      [-1, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, -1, 0, 0, -1],
      [0, 0, 0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1]]),
    ("check-iso", 3, [(0, 3, 1), (4, 1, -1), (2, 5, 1)],
     [[0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
      [0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
      [-1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
      [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0],
      [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1, 0],
      [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1]]),
    ("check-mirror", 3, [],
     [[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
      [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
      [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
      [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
      [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
      [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]]),
]


# A d=2 torus with B != 0 and non-integral G and B, and the sha256 of the
# stdout of `doubled` on it, frozen from the block formula for the Narain form
# and the per-torus G^-1 of the older code, of `spectrum --norm 2` on it (40
# triples), frozen from the Narain-ball listing once it matched the
# charge-by-charge reference of test_equivalence over a box of 2,096,325
# charges, and of `hodge`, `beta` and `pp-classes --p 1` on it, frozen from the
# code that answered them with matrices over the Gaussian rationals.  Its B has a
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
    "spectrum": "af30929a6d7a55e6366864913595e61c1e21ff991ab582fd8b0507cf99776299",
    "hodge": "71ddd0a444d3520fee728993c98a36f9d093fec851ff2571bac03ba8bd0fc8dd",
    "beta": "5c7d2de213f28db65aa53a68888b15f596b51a421998294ee9aac121973fc272",
    "pp-classes": "6d7f9717c53d6cd5d6746e645ad3effc0ab0c352175a78c22ef8eb3ac4cd104e",
}


# tau = 3i: G = diag(1, 9), a sublattice of index 3 in the square torus's.
STRETCHED3 = TorusData(1, RatMatrix([[0, -3], [Q(1, 3), 0]]), diag([1, 9]),
                       RatMatrix.zero(2, 2), "stretched3")


def _open_torus(i, label):
    i = RatMatrix(i)
    return TorusData(1, i, RatMatrix.identity(2) + i.transpose() * i, RatMatrix.zero(2, 2),
                     label)


# A d = 1 pair related by a change of lattice basis (with B != 0) whose iso
# certificates all need a coordinate of 2 over the LLL-reduced intertwiner
# basis: a box scan of height 1 holds none.
REBASED1 = (
    TorusData(1, RatMatrix([[-5, -13], [2, 5]]), RatMatrix([[4, 10], [10, 26]]),
              RatMatrix([[0, Q(3, 2)], [Q(-3, 2), 0]]), "t1"),
    TorusData(1, RatMatrix([[-17, -5], [58, 17]]), RatMatrix([[116, 34], [34, 10]]),
              RatMatrix([[0, Q(3, 2)], [Q(-3, 2), 0]]), "t2"),
)


# A d = 1 pair that no invariant separates and no bound-1 certificate
# relates: check-derived-eq on it ends "none within bound" (6,560 nodes).
OPEN1 = _open_torus([[-1, Q(4, 3)], [Q(-3, 2), 1]], "open1")
OPEN2 = _open_torus([[Q(-1, 2), Q(-5, 6)], [Q(3, 2), Q(1, 2)]], "open2")

# The sha256 of the stdout of a refuted report on square1 vs stretched1, frozen
# from the code whose Narain isometry search became the whole iso and mirror
# search, and of a none-within-bound report on open1 vs open2, frozen from the
# code that refuted derived equivalence by a mod-2 residue walk.
GOLDEN_VERDICT_REPORTS = [
    ("check-iso", "square", "stretched", "2",
     "4e78c125ba8061a91ce8d8313bbe7651cd0d396a317b3369c8588f2e6b5959b6"),
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

    @pytest.mark.parametrize("command, extra", [("doubled", []), ("spectrum", ["--norm", "2"]),
                                                ("hodge", []), ("beta", []),
                                                ("pp-classes", ["--p", "1"])],
                             ids=["doubled", "spectrum-norm2", "hodge", "beta", "pp-classes-p1"])
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
