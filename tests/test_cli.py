"""Tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ri_entropy.cli import EXIT_IO, EXIT_OK, EXIT_UNSUPPORTED, EXIT_VALIDATION, EXIT_VERIFY_FAIL, main, parse_spin


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpinParsing:
    def test_fraction_and_decimal(self):
        assert parse_spin("3/2").twice_j == 3
        assert parse_spin("1.5").twice_j == 3
        assert parse_spin("2").twice_j == 4

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            parse_spin("0.3")
        with pytest.raises(ValueError):
            parse_spin("abc")


class TestRee:
    def test_werner_maximal(self, capsys):
        code, out, _ = run(capsys, "ree", "--j1", "1/2", "--j2", "1/2", "--p", "1")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["schema_version"] == "ri-entropy/1"
        assert rec["result"]["value"] == pytest.approx(math.log(2), abs=1e-15)

    def test_normalized_vertex_c(self, capsys):
        code, out, _ = run(capsys, "ree", "--j1", "1", "--j2", "1",
                           "--normalized", "0,1")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["result"]["value"] == pytest.approx(math.log(2), abs=1e-12)
        assert rec["result"]["region"] == "TRI_A'CE"

    def test_even_family_labeled_with_disclaimer(self, capsys):
        code, out, _ = run(capsys, "ree", "--j1", "1", "--j2", "3/2",
                           "--normalized", "1,0")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["result"]["quantity"] == "E_Gamma"
        assert rec["result"]["value"] == pytest.approx(math.log(2), abs=1e-12)
        assert "lower bound" in rec["result"]["note"]

    def test_alpha_input(self, capsys):
        code, out, _ = run(capsys, "ree", "--j1", "1/2", "--j2", "1/2",
                           "--alpha", "2,0")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["result"]["value"] == pytest.approx(math.log(2), abs=1e-15)

    def test_oracle_cross_check(self, capsys):
        code, out, _ = run(capsys, "ree", "--j1", "1", "--j2", "2",
                           "--normalized", "0.9,0.05", "--oracle")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["result"]["oracle"]["abs_diff"] < 1e-6

    def test_force_oracle(self, capsys):
        code, out, _ = run(capsys, "ree", "--j1", "1", "--j2", "2",
                           "--normalized", "0.9,0.05", "--force-oracle")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["result"]["quantity"] == "oracle_min"

    def test_aux_root_reported(self, capsys):
        _, out, _ = run(capsys, "ree", "--j1", "1", "--j2", "2",
                        "--normalized", "0.05,0.9")
        rec = json.loads(out)
        assert rec["result"]["region"] == "POLY_A'FCE"
        assert "a" in rec["result"]["aux"] and "t1" in rec["result"]["aux"]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "ree", "--j1", "1/2", "--j2", "1/2",
                           "--p", "1", "--format", "text")
        assert code == EXIT_OK and "value:" in out

    def test_json_round_trip_bit_identical(self, capsys):
        """Re-computing from the echoed inputs reproduces the value exactly."""
        _, out, _ = run(capsys, "ree", "--j1", "1", "--j2", "3",
                        "--normalized", "0.123456789,0.3456789")
        rec = json.loads(out)
        x, y = (float(t) for t in rec["command"]["normalized"].split(","))
        from ri_entropy.closed_form import ree_3xn_odd
        from ri_entropy.states import NormalizedCoords
        again = ree_3xn_odd(7, NormalizedCoords(x, y)).value
        assert again == rec["result"]["value"]

    def test_validation_errors(self, capsys):
        # no state given
        code, _, err = run(capsys, "ree", "--j1", "1/2", "--j2", "1/2")
        assert code == EXIT_VALIDATION and "error" in err
        # both --p and --normalized
        code, _, _ = run(capsys, "ree", "--j1", "1", "--j2", "1",
                         "--p", "0.5", "--normalized", "0,1")
        assert code == EXIT_VALIDATION
        # --p with the wrong family
        code, _, _ = run(capsys, "ree", "--j1", "1", "--j2", "1", "--p", "0.5")
        assert code == EXIT_VALIDATION
        # malformed spin
        code, _, _ = run(capsys, "ree", "--j1", "0.3", "--j2", "1", "--p", "0.5")
        assert code == EXIT_VALIDATION

    def test_unsupported_family_exit_code(self, capsys):
        code, _, err = run(capsys, "ree", "--j1", "3/2", "--j2", "3/2",
                           "--alpha", "4,0,0,0")
        assert code == EXIT_UNSUPPORTED
        assert "force-oracle" in err


class TestCurve:
    def test_csv_content(self, capsys, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, _, _ = run(capsys, "curve", "--family", "2xN",
                         "--j-list", "1/2,1,3/2", "--points", "41",
                         "--out", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "p,j,E_r"
        rows = [line.split(",") for line in lines[1:]]
        by_j = {}
        for p, j, v in rows:
            by_j.setdefault(j, []).append((float(p), float(v)))
        # threshold behavior: zero at p = 1/2 for j = 1/2
        val_at_half = dict(by_j["1/2"])[0.5]
        assert val_at_half == 0.0
        # ln(4/3) at p = 1 for j = 3/2
        assert dict(by_j["3/2"])[1.0] == pytest.approx(math.log(4 / 3), abs=1e-12)
        # pointwise ordering above p = 3/4
        for (p1, v1), (p2, v2), (p3, v3) in zip(by_j["1/2"], by_j["1"], by_j["3/2"]):
            if p1 > 0.75:
                assert v1 >= v2 - 1e-14 >= v3 - 2e-14

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "curve", "--out",
                           str(tmp_path / "missing" / "curves.csv"))
        assert code == EXIT_IO and "I/O" in err

    def test_rejects_unknown_family(self, capsys, tmp_path):
        code, _, _ = run(capsys, "curve", "--family", "3xN",
                         "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_VALIDATION


class TestGeometry:
    def test_vertices_n3(self, capsys):
        code, out, _ = run(capsys, "geometry", "--N", "3", "--table", "vertices")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["result"]["simplex"]["B"] == pytest.approx([3.0, 0.0, 0.0])

    def test_landmarks_n5(self, capsys):
        code, out, _ = run(capsys, "geometry", "--N", "5", "--table", "landmarks")
        rec = json.loads(out)
        assert rec["result"]["F"] == pytest.approx(
            [math.sqrt(5) / 2, math.sqrt(3) / 2], abs=1e-12)
        assert rec["result"]["G"][0] == pytest.approx(16 * math.sqrt(5) / 25, abs=1e-12)
        assert rec["result"]["H"][0] == pytest.approx(24 * math.sqrt(5) / 25, abs=1e-12)

    def test_area_ratio_grows(self, capsys):
        _, out5, _ = run(capsys, "geometry", "--N", "5", "--table", "area-ratio")
        _, out41, _ = run(capsys, "geometry", "--N", "41", "--table", "area-ratio")
        r5 = json.loads(out5)["result"]["area_ratio"]
        r41 = json.loads(out41)["result"]["area_ratio"]
        assert 0.0 < r5 < r41 < 1.0

    def test_invalid_n(self, capsys):
        code, _, _ = run(capsys, "geometry", "--N", "2", "--table", "vertices")
        assert code == EXIT_VALIDATION


class TestVerify:
    def test_pass_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "2xN", "--param", "1",
                           "--samples", "50", "--seed", "0", "--tol", "1e-6")
        rec = json.loads(out)
        assert code == EXIT_OK and rec["result"]["passed"] is True

    def test_polygon_family(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "3xN-odd", "--param", "5",
                           "--samples", "20", "--seed", "0", "--tol", "1e-6")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["passed"] is True

    def test_zero_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "3x3", "--param", "3",
                           "--samples", "10", "--seed", "0", "--tol", "0")
        rec = json.loads(out)
        assert code == EXIT_VERIFY_FAIL
        assert rec["result"]["max_abs_diff"] > 0.0
        assert rec["result"]["worst_input"]

    def test_grid_and_iters_accepted_hidden_and_ignored(self, capsys):
        argv = ["verify", "--family", "3xN-even", "--param", "4", "--samples", "20",
                "--seed", "3", "--tol", "1e-6"]
        code, plain, _ = run(capsys, *argv)
        code_old, legacy, _ = run(capsys, *argv, "--grid", "50", "--iters", "5")
        assert code == code_old == EXIT_OK
        assert legacy == plain
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "--grid" not in capsys.readouterr().out

    def test_malformed_param(self, capsys):
        code, _, _ = run(capsys, "verify", "--family", "3xN-odd", "--param", "6",
                         "--samples", "5", "--seed", "0", "--tol", "1e-6")
        assert code == EXIT_VALIDATION


class TestSerialization:
    def test_seventeen_digit_floats_and_inf(self):
        from ri_entropy.cli import dumps_record
        text = dumps_record({"v": 1 / 3, "w": math.inf, "x": -math.inf, "n": None})
        rec = json.loads(text)
        assert rec["v"] == 1 / 3  # 17 significant digits round-trip exactly
        assert rec["w"] == "inf" and rec["x"] == "-inf"
        assert rec["n"] is None



# Prints OPENBLAS_NUM_THREADS as it stands at the moment numpy's import begins.
_THREADS_PROBE = """
import os, sys

class Probe:
    seen = "numpy not imported"

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Probe.seen == "numpy not imported":
            Probe.seen = repr(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Probe())
import ri_entropy
print(Probe.seen)
"""


def test_threads_env_caps_blas_before_numpy_loads():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for value, seen in (("1", "'1'"), ("0", "None")):
        proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE],
                              env={**env, "RI_ENTROPY_THREADS": value},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == seen, value
