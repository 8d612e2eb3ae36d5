"""Tests for the command-line interface."""

import hashlib
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import ri_entropy.oracle
from ri_entropy.angular import Spin, coupling_range
from ri_entropy.cli import (EXIT_IO, EXIT_OK, EXIT_UNSUPPORTED, EXIT_VALIDATION, EXIT_VERIFY_FAIL,
                            _report_payload, _result_payload, dumps_record, format_spin, main)
from ri_entropy.closed_form import UnsupportedFamilyError, _ree_3xn, ree_2xn, ree_dispatch
from ri_entropy.states import NormalizedCoords, make_ri_state

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpinParsing:
    def test_fraction_and_decimal(self):
        assert Spin.of("3/2").twice_j == 3
        assert Spin.of("1.5").twice_j == 3
        assert Spin.of("2").twice_j == 4

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError, match="not an exact half-integer"):
            Spin.of("0.3")
        for text in ("abc", "1/0"):
            with pytest.raises(ValueError, match="cannot parse spin"):
                Spin.of(text)


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

    def test_total_past_float_range_refused(self, capsys):
        # the weighted total overflows: refused with exit 2, and no numpy warning,
        # which the suite's error::RuntimeWarning filter would turn into a crash
        code, out, err = run(capsys, "ree", "--j1", "1", "--j2", "1",
                             "--alpha", "1.7e308,1.7e308,1.7e308")
        assert (code, out, err) == (
            EXIT_VALIDATION, "", "error: coefficients not normalized: weighted sum = inf\n")

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

    def test_point_just_outside_the_simplex_is_clamped(self, capsys):
        code, out, _ = run(capsys, "ree", "--j1", "1", "--j2", "2",
                           "--normalized=-5e-11,0.5")
        assert code == EXIT_OK
        assert math.isfinite(json.loads(out)["result"]["value"])

    @pytest.mark.parametrize("option,value,code", [
        ("--alpha", "-1e-13,1.7320508075688772,0", EXIT_OK),  # clamped to vertex C
        ("--alpha", "-1e-13,0.9,0.37588444481314626", EXIT_VALIDATION),  # not normalized
        ("--normalized", "-5e-11,0.5", EXIT_OK),
        ("--normalized", "-0.5,0.5", EXIT_VALIDATION),
    ])
    def test_value_with_leading_minus_in_either_spelling(self, capsys, option, value, code):
        head = ("ree", "--j1", "1", "--j2", "2")
        attached = run(capsys, *head, f"{option}={value}")
        assert attached[0] == code
        assert run(capsys, *head, option, value) == attached

    def test_unsupported_family_exit_code(self, capsys):
        code, _, err = run(capsys, "ree", "--j1", "3/2", "--j2", "3/2",
                           "--alpha", "4,0,0,0")
        assert code == EXIT_UNSUPPORTED
        assert "force-oracle" in err


# (j1, j2, alphas) of each refusal that make_ri_state and the routing to a family
# make: wrong length, unnormalized, j2 < j1, NaN, negative, overflowing total,
# and j1 = 3/2, which no closed form covers; last, j2 < j1 with a wrong length
REFUSED_VECTORS = [
    ("1", "1", (0.5, 0.9)),
    ("1", "1", (0.5, 0.9, 0.5)),
    ("1", "1/2", (0.5, 0.9)),
    ("1", "1/2", (1 / math.sqrt(3), 0.0)),  # normalized for the swapped pair
    ("1", "1", (math.nan, 0.9, 0.37588444481314626)),
    ("1", "1", (-1e-3, 1.7320508075688772, 0.0)),
    ("1/2", "3/2", (1.7e308, 1.7e308)),
    ("3/2", "3/2", (0.5, 0.5, 0.5, 0.5)),
    ("3/2", "2", (0.5, 0.5, 0.5, 0.5)),
    ("3/2", "3/2", tuple(math.sqrt(2 * J + 1) / 4 for J in range(4))),
    ("1", "1/2", (0.5, 0.9, 0.5)),
]


def _refusal(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestDispatchRefusals:
    """ree_dispatch and `ree --alpha` refuse j2 < j1 first, then check a vector once
    and refuse it as the validation of make_ri_state does, in its order, then the family."""

    @pytest.mark.parametrize("j1,j2,alphas", REFUSED_VECTORS)
    def test_dispatch_refuses_as_the_validation(self, j1, j2, alphas):
        s1, s2 = Spin.of(j1), Spin.of(j2)
        got = _refusal(ree_dispatch, s1, s2, alphas)
        if s2.twice_j < s1.twice_j:  # the spin order is judged first
            assert got == (ValueError, "expected j2 >= j1")
            return
        try:
            make_ri_state(s1, s2, alphas)
        except ValueError:
            assert got == _refusal(make_ri_state, s1, s2, alphas)
        else:  # a valid vector of a family without a closed form
            assert got == (UnsupportedFamilyError, (
                "no closed form for j1 = 1.5; only j1 in {1/2, 1} is supported "
                "(the oracle-only fallback --force-oracle is likewise restricted)"))

    @pytest.mark.parametrize("j1,j2,alphas", REFUSED_VECTORS)
    def test_cli_refuses_as_the_validation(self, capsys, j1, j2, alphas):
        s1, s2 = Spin.of(j1), Spin.of(j2)
        text = ",".join(repr(a) for a in alphas)
        code, out, err = run(capsys, "ree", "--j1", j1, "--j2", j2, f"--alpha={text}")
        assert out == ""
        if s2.twice_j < s1.twice_j:  # the spin order is judged first, as by ree_dispatch
            assert (code, err) == (EXIT_VALIDATION, "error: expected j2 >= j1\n")
            return
        n = len(coupling_range(s1, s2))
        if len(alphas) != n:  # then the option's own count
            assert (code, err) == (
                EXIT_VALIDATION, f"error: --alpha needs {n} comma-separated values, got {text!r}\n")
            return
        try:
            make_ri_state(s1, s2, alphas)
        except ValueError as exc:
            assert (code, err) == (EXIT_VALIDATION, f"error: {exc}\n")
        else:
            kind, message = _refusal(ree_dispatch, s1, s2, alphas)
            assert kind is UnsupportedFamilyError
            assert (code, err) == (EXIT_UNSUPPORTED, f"error: {message}\n")


def as_printed(payload: dict) -> dict:
    """A result payload as `ree` prints it and json reads it back."""
    return json.loads(dumps_record(payload))


class TestPointAsGiven:
    """`ree` evaluates the point it was given, bit for bit as the library does (a round
    trip through the alphas moved some points, and values, by an ulp)."""

    @pytest.mark.parametrize("N", [3, 4, 5, 7, 101, 10**8 + 1])
    def test_normalized(self, capsys, N):
        u = np.sort(np.random.default_rng(N % 1000).random((60, 2)), axis=1)
        for k, (x, y) in enumerate(zip(u[:, 0].tolist(), (u[:, 1] - u[:, 0]).tolist())):
            argv = ("ree", "--j1", "1", "--j2", format_spin(Spin(N - 1)),
                    "--normalized", f"{x!r},{y!r}")
            coords = NormalizedCoords(x, y)
            assert json.loads(run(capsys, *argv)[1])["result"] == as_printed(
                _result_payload(_ree_3xn(N, coords.ahat_lo, coords.ahat_mid)))
            if k < 5:
                assert json.loads(run(capsys, *argv, "--force-oracle")[1])["result"] == as_printed(
                    {"quantity": "oracle_min",
                     **_report_payload(ri_entropy.oracle.minimize_kl_over_polygon(N, coords))})

    @pytest.mark.parametrize("tj", [1, 2, 3, 99])
    def test_p(self, capsys, tj):
        j = Spin(tj)
        for k, p in enumerate(np.random.default_rng(tj).random(100).tolist()):
            argv = ("ree", "--j1", "1/2", "--j2", format_spin(j), "--p", repr(p))
            assert json.loads(run(capsys, *argv)[1])["result"] == as_printed(
                _result_payload(ree_2xn(j, p)))
            if k < 5:
                assert json.loads(run(capsys, *argv, "--force-oracle")[1])["result"] == as_printed(
                    {"quantity": "oracle_min",
                     **_report_payload(ri_entropy.oracle.minimize_kl_over_interval(j, p))})


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
        path = tmp_path / "missing" / "x.csv"
        assert run(capsys, "curve", "--out", str(path)) == (
            EXIT_IO, "", f"I/O error: [Errno 2] No such file or directory: '{path}'\n")

    def test_too_few_points_refused_before_the_file_is_opened(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        assert run(capsys, "curve", "--points", "1", "--out", str(path)) == (
            EXIT_VALIDATION, "", "error: --points must be at least 2\n")
        assert not path.exists()

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

    @pytest.mark.parametrize("tol,samples", [("nan", "3"), ("-1", "3"), ("-1", "0")])
    def test_invalid_tolerance_is_a_validation_error(self, capsys, tol, samples):
        # not a failed campaign (exit 1): the campaign is refused before it runs
        code, out, err = run(capsys, "verify", "--family", "2xN", "--param", "1/2",
                             "--samples", samples, "--tol", tol)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"error: tol must be >= 0, got {float(tol)}\n"

    def test_zero_tolerance_fails(self, capsys, monkeypatch):
        exact = ri_entropy.oracle._value_3xn
        monkeypatch.setattr(ri_entropy.oracle, "_value_3xn", lambda N, x, y: exact(N, x, y) + 1e-3)
        code, out, _ = run(capsys, "verify", "--family", "3x3", "--param", "3",
                           "--samples", "10", "--seed", "0", "--tol", "0")
        rec = json.loads(out)
        assert code == EXIT_VERIFY_FAIL
        assert rec["result"]["passed"] is False
        assert rec["result"]["max_abs_diff"] == pytest.approx(1e-3, abs=1e-12)
        assert len(rec["result"]["worst_input"]) == 2

    def test_zero_tolerance_fails_2xn(self, capsys, monkeypatch):
        exact = ri_entropy.oracle._values_2xn
        monkeypatch.setattr(ri_entropy.oracle, "_values_2xn", lambda tj, ps: exact(tj, ps) + 1e-3)
        code, out, _ = run(capsys, "verify", "--family", "2xN", "--param", "1",
                           "--samples", "10", "--seed", "0", "--tol", "0")
        rec = json.loads(out)
        assert code == EXIT_VERIFY_FAIL
        assert rec["result"]["passed"] is False
        assert rec["result"]["max_abs_diff"] == pytest.approx(1e-3, abs=1e-12)
        assert len(rec["result"]["worst_input"]) == 1

    def test_no_samples_passes_with_zero_difference(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "2xN", "--param", "1",
                             "--samples", "0")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["result"] == {"passed": True, "max_abs_diff": 0,
                                             "worst_input": []}

    def test_negative_samples_refused(self, capsys):
        assert run(capsys, "verify", "--family", "2xN", "--param", "1", "--samples", "-1") == (
            EXIT_VALIDATION, "", "error: samples must be >= 0, got -1\n")

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

    def test_every_campaign_when_no_family_is_given(self, capsys):
        # one record per campaign of CAMPAIGNS, each the one-campaign command's own
        opts = ("--samples", "1000", "--seed", "7", "--tol", "1e-6")
        code, out, err = run(capsys, "verify", *opts)
        assert (code, err) == (EXIT_OK, "")
        records = out.splitlines(keepends=True)
        assert len(records) == len(ri_entropy.oracle.CAMPAIGNS)
        for line, (family, param) in zip(records, ri_entropy.oracle.CAMPAIGNS):
            text = json.loads(line)["command"]["param"]
            assert (Spin.of(text).j if family == "2xN" else int(text)) == param
            assert run(capsys, "verify", "--family", family, "--param", text, *opts) == (
                EXIT_OK, line, "")

    def test_every_campaign_as_text_names_each_block(self, capsys):
        opts = ("--samples", "20", "--seed", "7", "--format", "text")
        code, out, _ = run(capsys, "verify", *opts)
        blocks = []
        for family, param in ri_entropy.oracle.CAMPAIGNS:
            text = format_spin(Spin.of(param)) if family == "2xN" else str(param)
            one = run(capsys, "verify", "--family", family, "--param", text, *opts)[1]
            blocks.append(f"{family} {text}:\n" + "".join(
                f"  {line}\n" for line in one.splitlines()))
        assert (code, out) == (EXIT_OK, "".join(blocks))

    def test_every_campaign_fails_if_one_fails(self, capsys, monkeypatch):
        exact = ri_entropy.oracle._value_3xn
        monkeypatch.setattr(ri_entropy.oracle, "_value_3xn", lambda N, x, y: exact(N, x, y) + 1e-3)
        code, out, _ = run(capsys, "verify", "--samples", "10", "--seed", "0")
        passed = [json.loads(line)["result"]["passed"] for line in out.splitlines()]
        assert code == EXIT_VERIFY_FAIL
        assert passed == [family == "2xN" for family, _ in ri_entropy.oracle.CAMPAIGNS]

    @pytest.mark.parametrize("option,value", [("--family", "2xN"), ("--param", "1")])
    def test_family_without_param_or_param_without_family(self, capsys, option, value):
        assert run(capsys, "verify", option, value, "--samples", "5") == (
            EXIT_VALIDATION, "", "error: give both --family and --param, or neither\n")


class TestSerialization:
    def test_seventeen_digit_floats_and_inf(self):
        from ri_entropy.cli import dumps_record
        text = dumps_record({"v": 1 / 3, "w": math.inf, "x": -math.inf, "n": None})
        rec = json.loads(text)
        assert rec["v"] == 1 / 3  # 17 significant digits round-trip exactly
        assert rec["w"] == "inf" and rec["x"] == "-inf"
        assert rec["n"] is None


# stdout and exit code of every `ri-entropy` command shown in README.md
README_EXAMPLES = [
    ("ree --j1 1/2 --j2 1/2 --p 1", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree"'
     ', "j1": "1/2", "j2": "1/2", "p": 1, "alpha": null, "normalized": null'
     ', "oracle": false, "force_oracle": false}, "result": {"quantity": "E_r"'
     ', "value": 0.69314718055994529, "region": "ENTANGLED_INTERVAL"'
     ', "minimizer_alphas": [1, 0.57735026918962584], "aux": null}}\n'),
    ("ree --j1 1 --j2 1 --normalized 0,1", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1"'
     ', "j2": "1", "p": null, "alpha": null, "normalized": "0,1"'
     ', "oracle": false, "force_oracle": false}, "result": {"quantity": "E_r"'
     ', "value": 0.69314718055994529, "region": "TRI_A\'CE"'
     ', "minimizer_alphas": [0, 0.8660254037844386, 0.67082039324993692]'
     ', "aux": null}}\n'),
    ("ree --j1 1 --j2 3/2 --normalized 1,0 --oracle", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1"'
     ', "j2": "3/2", "p": null, "alpha": null, "normalized": "1,0"'
     ', "oracle": true, "force_oracle": false}'
     ', "result": {"quantity": "E_Gamma", "value": 0.69314718055994529'
     ', "region": "POLY_A\'HBF", "minimizer_alphas": [1.2247448713915889'
     ', 0.69282032302755092, 0.14142135623730953], "aux": null'
     ', "note": "E_Gamma is the minimum over PPT states: a lower bound of E_r'
     ' and an upper bound of distillable entanglement"'
     ', "oracle": {"value": 0.69314718055994529, "optimum_point": [0.5'
     ', 0.40000000000000002], "iterations": 2, "converged": true'
     ', "abs_diff": 0}}}\n'),
    ("ree --j1 1 --j2 2 --alpha 0.5,0.9,0.37588444481314626", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1"'
     ', "j2": "2", "p": null, "alpha": "0.5,0.9,0.37588444481314626"'
     ', "normalized": null, "oracle": false, "force_oracle": false}'
     ', "result": {"quantity": "E_r", "value": 0, "region": "SEPARABLE_ADA\'E"'
     ', "minimizer_alphas": [0.5, 0.90000000000000002, 0.37588444481314626]'
     ', "aux": null}}\n'),
    ("geometry --N 5 --table landmarks", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "geometry"'
     ', "N": 5, "table": "landmarks"}, "result": {"F": [1.1180339887498949'
     ', 0.8660254037844386], "G": [1.4310835055998654, 0]'
     ', "H": [2.1466252583997982, 0]}}\n'),
    ("geometry --N 41 --table area-ratio", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "geometry"'
     ', "N": 41, "table": "area-ratio"}'
     ', "result": {"area_ratio": 0.92915214866434381}}\n'),
    ("verify --family 3xN-odd --param 7 --samples 1000 --seed 7 --tol 1e-6", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "verify"'
     ', "family": "3xN-odd", "param": "7", "samples": 1000, "seed": 7'
     ', "tol": 9.9999999999999995e-07}, "result": {"passed": true'
     ', "max_abs_diff": 2.7755575615628914e-16'
     ', "worst_input": [0.15666906363387467, 0.84055848443332326]}}\n'),
    ("verify --samples 1000 --seed 7 --tol 1e-6", 0, "".join(
        '{"schema_version": "ri-entropy/1", "command": {"name": "verify"'
        f', "family": "{family}", "param": "{param}", "samples": 1000, "seed": 7'
        ', "tol": 9.9999999999999995e-07}, "result": {"passed": true'
        f', "max_abs_diff": {diff}, "worst_input": [{worst}]}}}}\n'
        for family, param, diff, worst in [
            ("2xN", "1/2", "5.5193577088493229e-17", "0.24856977320898288"),
            ("2xN", "1", "1.6653345369377348e-16", "0.94494817114497953"),
            ("2xN", "3/2", "1.8964795977347352e-16", "0.14590151903260973"),
            ("2xN", "2", "2.2023090424173299e-16", "0.0081681817214638297"),
            ("3x3", "3", "4.4408920985006262e-16", "0.70731538602459421, 0.042971496214609051"),
            ("3xN-odd", "5", "2.9143354396410359e-16",
             "0.14186878961733085, 0.78053459040218243"),
            ("3xN-odd", "7", "2.7755575615628914e-16",
             "0.15666906363387467, 0.84055848443332326"),
            ("3xN-even", "4", "3.6082248300317588e-16",
             "0.018545745125166269, 0.81249827597032076"),
            ("3xN-even", "6", "3.0531133177191805e-16",
             "0.7555260958502994, 0.095954994618417389")])),
]
README_CURVE = "curve --family 2xN --j-list 1/2,1,3/2 --points 201 --out curves.csv"
README_CURVE_SHA256 = "53f88444fefa11aa61eaec3306b520b297b50fba821c9b04df1b5881d7596959"

# further commands whose output the shared prefactor table and spin parsing feed
PINNED = [
    ("geometry --N 5 --table vertices", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "geometry"'
     ', "N": 5, "table": "vertices"}, "result": {"simplex": {"A": [0, 0'
     ', 1.4638501094227998], "B": [2.2360679774997898, 0, 0], "C": [0'
     ', 1.7320508075688772, 0]}, "theta2_images": {"A\'": [1.3416407864998738'
     ', 0.57735026918962573, 0.097590007294853315], "B\'": [0.22360679774997896'
     ', -0.8660254037844386, 2.0493901531919199], "C\'": [-0.67082039324993692'
     ', 1.4433756729740643, 0.68313005106397329]}, "ppt_polygon": {"A": [0, 0]'
     ', "D": [0.89442719099991586, 0], "A\'": [1.3416407864998738'
     ', 0.57735026918962573], "E": [0, 1.1547005383792515]}}}\n', ""),
    ("ree --j1 0.3 --j2 1 --p 0.5", 2, "",
     "error: spin '0.3' is not an exact half-integer\n"),
    ("ree --j1 1/0 --j2 1 --p 0.5", 2, "", "error: cannot parse spin '1/0'\n"),
    ("verify --family 2xN --param abc --samples 5", 2, "",
     "error: cannot parse spin 'abc'\n"),
    ("ree --j1 1 --j2 2 --alpha 0.5,0.9", 2, "",
     "error: --alpha needs 3 comma-separated values, got '0.5,0.9'\n"),
    ("ree --j1 1 --j2 2 --alpha=-0.5,0.9,0.37588444481314626", 2, "",
     "error: coefficients not normalized: weighted sum = 0.776393202250021\n"),
    ("ree --j1 3/2 --j2 3/2 --alpha 4,0,0,0", 3, "",
     "error: no closed form for j1 = 1.5; only j1 in {1/2, 1} is supported"
     " (the oracle-only fallback --force-oracle is likewise restricted)\n"),
    ("ree --j1 3/2 --j2 3/2 --alpha 4,0,0,0 --force-oracle", 3, "",
     "error: no closed form for j1 = 1.5; only j1 in {1/2, 1} is supported"
     " (the oracle-only fallback --force-oracle is likewise restricted)\n"),
    # repaired inputs: a clamped -1e-13 coefficient (vertex C) and a vector off
    # by 5e-9 that is renormalized, each with and without the oracle
    ("ree --j1 1 --j2 2 --alpha=-1e-13,1.7320508075688772,0", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1"'
     ', "j2": "2", "p": null, "alpha": "-1e-13,1.7320508075688772,0"'
     ', "normalized": null, "oracle": false, "force_oracle": false}'
     ', "result": {"quantity": "E_r", "value": 0.40546510810816438'
     ', "region": "POLY_A\'FCE", "minimizer_alphas": [0, 1.1547005383792515'
     ', 0.48795003647426666], "aux": {"a": 0, "t1": -10'
     ', "minimizer_point": [0, 1.1547005383792515]}}}\n', ""),
    ("ree --j1 1 --j2 2 --alpha=-1e-13,1.7320508075688772,0 --oracle", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1"'
     ', "j2": "2", "p": null, "alpha": "-1e-13,1.7320508075688772,0"'
     ', "normalized": null, "oracle": true, "force_oracle": false}'
     ', "result": {"quantity": "E_r", "value": 0.40546510810816438'
     ', "region": "POLY_A\'FCE", "minimizer_alphas": [0, 1.1547005383792515'
     ', 0.48795003647426666], "aux": {"a": 0, "t1": -10'
     ', "minimizer_point": [0, 1.1547005383792515]}'
     ', "oracle": {"value": 0.40546510810816438, "optimum_point": [0'
     ', 0.66666666666666663], "iterations": 2, "converged": true'
     ', "abs_diff": 0}}}\n', ""),
    ("ree --j1 1 --j2 2 --alpha 0.11180339943400648,1.5588457346062181"
     ",0.07319250583710252", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1"'
     ', "j2": "2", "p": null, "alpha": "0.11180339943400648,1.5588457346062181'
     ',0.07319250583710252", "normalized": null, "oracle": false'
     ', "force_oracle": false}, "result": {"quantity": "E_r"'
     ', "value": 0.21642780227875161, "region": "POLY_A\'FCE"'
     ', "minimizer_alphas": [0.12993852547542178, 1.0987839000240229'
     ', 0.45014348862143688], "aux": {"a": 0.048425229309855218, "t1": -11.1'
     ', "minimizer_point": [0.12993852547542178, 1.0987839000240229]}}}\n', ""),
    ("ree --j1 1 --j2 2 --alpha 0.11180339943400648,1.5588457346062181"
     ",0.07319250583710252 --oracle", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1"'
     ', "j2": "2", "p": null, "alpha": "0.11180339943400648,1.5588457346062181'
     ',0.07319250583710252", "normalized": null, "oracle": true'
     ', "force_oracle": false}, "result": {"quantity": "E_r"'
     ', "value": 0.21642780227875161, "region": "POLY_A\'FCE"'
     ', "minimizer_alphas": [0.12993852547542178, 1.0987839000240229'
     ', 0.45014348862143688], "aux": {"a": 0.048425229309855218, "t1": -11.1'
     ', "minimizer_point": [0.12993852547542178, 1.0987839000240229]}'
     ', "oracle": {"value": 0.21642780227875166, "optimum_point"'
     ': [0.058110275171826251, 0.63438318046009656], "iterations": 2'
     ', "converged": true, "abs_diff": 5.5511151231257827e-17}}}\n', ""),
    ("ree --j1 1/2 --j2 1 --normalized 0.2,0.3", 2, "",
     "error: --normalized applies to 3(x)N systems (j1 = 1) only\n"),
    # text output nests the oracle block under its key
    ("ree --j1 1/2 --j2 1/2 --p 1 --oracle --format text", 0,
     "quantity: E_r\nvalue: 0.69314718055994529\nregion: ENTANGLED_INTERVAL\n"
     "minimizer_alphas: 1, 0.57735026918962584\naux: None\noracle:\n"
     "  value: 0.69314718055994529\n  optimum_point: 0.5\n  iterations: 2\n"
     "  converged: True\n  abs_diff: 0\n", ""),
    # N = 2 is refused with the message of every 3(x)N entry point
    ("ree --j1 1 --j2 1/2 --normalized 0.2,0.3", 2, "",
     "error: need integer N >= 3, got 2\n"),
    # a spin-0 second factor is refused like any j2 < j1, with exit code 2
    ("ree --j1 1/2 --j2 0 --p 0.5", 2, "", "error: expected j2 >= j1\n"),
    # p exactly at the 2(x)3 separability threshold 2/3
    ("ree --j1 1/2 --j2 1 --p 0.6666666666666666", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1/2"'
     ', "j2": "1", "p": 0.66666666666666663, "alpha": null, "normalized": null'
     ', "oracle": false, "force_oracle": false}, "result": {"quantity": "E_r"'
     ', "value": 0, "region": "SEPARABLE_ADA\'E", "minimizer_alphas"'
     ': [1.1547005383792515, 0.40824829046386307], "aux": null}}\n', ""),
    # the oracle alone, for a 2(x)N and a 3(x)N state
    ("ree --j1 1/2 --j2 1 --p 0.9 --force-oracle", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1/2"'
     ', "j2": "1", "p": 0.90000000000000002, "alpha": null, "normalized": null'
     ', "oracle": false, "force_oracle": true}, "result": {"quantity": "oracle_min"'
     ', "value": 0.14969685277271072, "optimum_point": [0.66666666666666663]'
     ', "iterations": 2, "converged": true}}\n', ""),
    ("ree --j1 1 --j2 2 --normalized 0.9,0.05 --force-oracle", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1"'
     ', "j2": "2", "p": null, "alpha": null, "normalized": "0.9,0.05"'
     ', "oracle": false, "force_oracle": true}, "result": {"quantity": "oracle_min"'
     ', "value": 0.25527460072161179, "optimum_point": [0.59663503655702743'
     ', 0.32772506092837905], "iterations": 2, "converged": true}}\n', ""),
    # a weighted total 5e-11 above 1 is accepted as given: p = w_0 alpha_0 is
    # taken as 1 by the closed form and by both oracle routes
    ("ree --j1 1/2 --j2 1/2 --alpha 2.0000000001,0", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1/2"'
     ', "j2": "1/2", "p": null, "alpha": "2.0000000001,0", "normalized": null'
     ', "oracle": false, "force_oracle": false}, "result": {"quantity": "E_r"'
     ', "value": 0.69314718055994529, "region": "ENTANGLED_INTERVAL"'
     ', "minimizer_alphas": [1, 0.57735026918962584], "aux": null}}\n', ""),
    ("ree --j1 1/2 --j2 1/2 --alpha 2.0000000001,0 --oracle", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1/2"'
     ', "j2": "1/2", "p": null, "alpha": "2.0000000001,0", "normalized": null'
     ', "oracle": true, "force_oracle": false}, "result": {"quantity": "E_r"'
     ', "value": 0.69314718055994529, "region": "ENTANGLED_INTERVAL"'
     ', "minimizer_alphas": [1, 0.57735026918962584], "aux": null'
     ', "oracle": {"value": 0.69314718055994529, "optimum_point": [0.5]'
     ', "iterations": 2, "converged": true, "abs_diff": 0}}}\n', ""),
    ("ree --j1 1/2 --j2 1/2 --alpha 2.0000000001,0 --force-oracle", 0,
     '{"schema_version": "ri-entropy/1", "command": {"name": "ree", "j1": "1/2"'
     ', "j2": "1/2", "p": null, "alpha": "2.0000000001,0", "normalized": null'
     ', "oracle": false, "force_oracle": true}, "result": {"quantity": "oracle_min"'
     ', "value": 0.69314718055994529, "optimum_point": [0.5], "iterations": 2'
     ', "converged": true}}\n', ""),
]


def prints_oracle_figures(cmd: str) -> bool:
    """Whether a command prints figures of the oracle: `verify`, `ree --oracle` and
    `ree --force-oracle`."""
    return cmd.startswith("verify ") or bool({"--oracle", "--force-oracle"} & set(cmd.split()))


def run_pinned(capsys, cmd: str):
    """(exit code, stdout, stderr) of a pinned command, run in-process.  Its oracle
    figures are pinned as libm's `log` gives them, so `TestGolden` runs every row
    under the `libm_log` fixture."""
    return run(capsys, *shlex.split(cmd))


@pytest.mark.usefixtures("libm_log")
class TestGolden:
    def test_every_readme_command_is_pinned(self):
        shown = {line.split("ri-entropy ", 1)[1].strip()
                 for line in README.read_text().splitlines()
                 if line.startswith("ri-entropy ")}
        assert shown == {cmd for cmd, _, _ in README_EXAMPLES} | {README_CURVE}

    @pytest.mark.parametrize("cmd,code,out", README_EXAMPLES)
    def test_readme_example(self, capsys, cmd, code, out):
        assert run_pinned(capsys, cmd)[:2] == (code, out)

    def test_readme_curve_csv(self, capsys, tmp_path):
        argv = shlex.split(README_CURVE)
        argv[-1] = str(tmp_path / argv[-1])
        assert run(capsys, *argv) == (EXIT_OK, "", "")
        csv = Path(argv[-1]).read_bytes()
        assert csv.startswith(b"p,j,E_r\n0,1/2,0\n0.0050000000000000001,1/2,0\n")
        assert csv.endswith(b"\n0.995,3/2,0.26169606794795475\n1,3/2,0.28768207245178085\n")
        assert hashlib.sha256(csv).hexdigest() == README_CURVE_SHA256

    @pytest.mark.parametrize("cmd,code,out,err", PINNED)
    def test_pinned_output(self, capsys, cmd, code, out, err):
        assert run_pinned(capsys, cmd) == (code, out, err)
