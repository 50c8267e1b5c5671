"""End-to-end CLI behavior: every subcommand, exit codes, determinism."""

import json

import pytest

from flattori import equivalence
from flattori.cli import main
from flattori.exactlinear import RatMatrix
from flattori.torus import TorusData, square_torus


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
        (None, ["mirror", "--torus", "T", "--split-bound", "-1"],
         "split bound must be at least 1, got -1"),
        ({"split_bound": 0}, ["mirror", "--torus", "T"], "split bound must be at least 1, got 0"),
        (None, ["fock-verify", "--d", "0"], "d must be at least 1, got 0"),
        (None, ["fock-verify", "--d", "1", "--cap", "abc"],
         "cap must be a rational number, got 'abc' (at --cap)"),
    ])
    def test_one_line_exit_two(self, capsys, tmp_path, square_file, config, argv, message):
        prefix = []
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            prefix = ["--config", str(tmp_path / "cfg.json")]
        argv = [square_file if a == "T" else a for a in argv]
        assert run(capsys, *prefix, *argv) == (2, "", f"input error: {message}\n")


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


class TestSearchCommands:
    def test_check_mirror_self(self, capsys, square_file):
        code, out, _ = run(capsys, "check-mirror", square_file, square_file,
                           "--bound", "2")
        assert code == 0
        cert = report(out)["result"]["certificate"]
        assert cert["g"] in ([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
                             [[0, 0, -1, 0], [0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1]])

    def test_check_iso_none_within_bound(self, capsys, square_file, stretched_file):
        code, out, _ = run(capsys, "check-iso", square_file, stretched_file,
                           "--bound", "3")
        assert code == 1
        result = report(out)["result"]
        assert result["verdict"] == "none within bound"
        assert result["fingerprints_match"] is False
        assert result["refuted_by"] == "zero-mode spectrum mismatch"

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

    def test_none_within_bound_still_cites_fingerprint(self, capsys, monkeypatch,
                                                       square_file, stretched_file):
        calls = []
        real = equivalence.spectrum_fingerprint

        def counted(t, height):
            calls.append(height)
            return real(t, height)
        monkeypatch.setattr(equivalence, "spectrum_fingerprint", counted)
        code, out, _ = run(capsys, "check-iso", square_file, stretched_file, "--bound", "1")
        assert code == 1
        result = report(out)["result"]
        assert result["fingerprints_match"] is False
        assert result["refuted_by"] == "zero-mode spectrum mismatch"
        assert calls == [1, 1]


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

    def test_mirror_with_explicit_split(self, capsys, square2_file):
        code, out, _ = run(capsys, "mirror", "--torus", square2_file,
                           "--split", "1,0,0,0;0,0,1,0|0,1,0,0;0,0,0,1")
        assert code == 0

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
        result = report(out)["result"]
        assert result["fail"] == 0
        assert result["pass"] > 0
        statuses = {row["status"] for row in result["checks"]}
        assert statuses <= {"pass", "inconclusive"}

    def test_fock_verify_with_torus_metric(self, capsys, stretched_file):
        code, out, _ = run(capsys, "fock-verify", "--torus", stretched_file,
                           "--cap", "3/2")
        assert code == 0
        assert report(out)["result"]["fail"] == 0


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


class TestDeterminism:
    @pytest.mark.parametrize("command, d, shears, g", GOLDEN_CERTIFICATES,
                             ids=["iso-sheared2", "iso-sheared3", "mirror-square3"])
    def test_golden_certificates(self, capsys, torus_file, command, d, shears, g):
        source = torus_file(square_torus(d, f"square{d}"), "source.json")
        target = torus_file(sheared(d, shears), "target.json")
        code, out, _ = run(capsys, command, source, target, "--bound", "1")
        assert code == 0
        assert report(out)["result"]["certificate"]["g"] == g

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
