"""Command-line interface: reports, round-trips, error codes, sweeps."""

import csv
import io
import json
import math

import pytest

from gwidiv.cli import PRESETS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestClassify:
    def test_sp3d_example(self, capsys):
        code, out = run_json(
            capsys, "classify", "--beta-a", "1.8", "--beta-h", "0.9",
            "--alpha-a", "1.2", "--alpha-h", "3.0", "--lambda", "0.5",
        )
        assert code == 0
        assert out["case"] == "SP3d"
        assert out["x_star"] == 2

    def test_preset_lookup(self, capsys):
        code, out = run_json(capsys, "classify", "--preset", "a2-example")
        assert code == 0
        assert out["case"] == "SP3a"

    def test_flag_overrides_preset(self, capsys):
        code, out = run_json(
            capsys, "classify", "--preset", "a2-example", "--alpha-a", "2.9"
        )
        assert code == 0
        assert out["case"] == "SP3b"


class TestHellinger:
    def test_horizon_zero(self, capsys):
        code, out = run_json(
            capsys, "hellinger", "--beta-a", "4", "--beta-h", "2",
            "--alpha-a", "0", "--alpha-h", "0", "--lambda", "0.5",
            "--omega0", "1", "--n", "0",
        )
        assert code == 0
        assert out["log_exact"] == 0.0
        assert out["hellinger_exact"] == 1.0

    def test_bound_case_report(self, capsys):
        code, out = run_json(
            capsys, "hellinger", "--preset", "a7-sp2", "--omega0", "10", "--n", "5"
        )
        assert code == 0
        assert out["case"] == "SP2"
        assert out["log_lower"] < out["log_upper"] <= 0.0
        assert out["log_closed_form_lower"] < out["log_lower"]
        assert out["hellinger_lower"] == pytest.approx(math.exp(out["log_lower"]))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_forced_method_matches_auto(self, capsys, preset):
        """--method exact|bounds print the auto report byte for byte where the
        case allows them, and the case-mismatch error elsewhere."""
        argv = ("hellinger", "--preset", preset, "--omega0", "3", "--n", "7")
        code, auto = run_cli(capsys, *argv)
        assert code == 0
        exact = json.loads(auto)["log_exact"] is not None
        for method, allowed in (("exact", exact), ("bounds", not exact)):
            code, out = run_cli(capsys, *argv, "--method", method)
            if allowed:
                assert (code, out) == (0, auto)
            else:
                assert code == 3
                assert json.loads(out)["error"]["kind"] == "case-mismatch"

    def test_deep_subnormal_linear_suppression(self, capsys):
        code, out = run_json(
            capsys, "hellinger", "--preset", "sp1-small", "--omega0", "3", "--n", "300"
        )
        assert code == 0
        assert out["log_exact"] < -700.0
        assert out["hellinger_exact"] is None


class TestVerify:
    def test_preset_pass(self, capsys):
        code, out = run_json(capsys, "verify", "--preset", "ni-small", "--n", "3")
        assert code == 0
        assert out["status"] == "PASS"
        assert out["abs_gap"] <= out["certified_error"]

    def test_bound_case_pass(self, capsys):
        code, out = run_json(capsys, "verify", "--preset", "a5-example", "--n", "3")
        assert code == 0
        assert out["status"] == "PASS"


class TestOtherCommands:
    def test_divergence(self, capsys):
        code, out = run_json(capsys, "divergence", "--preset", "a7-sp3a", "--n", "3")
        assert code == 0
        assert 0.0 <= out["power_divergence_lower"] <= out["power_divergence_upper"] <= 4.0
        assert out["distinguishability"]["entirely_separated"] is True

    def test_entropy(self, capsys):
        code, out = run_json(capsys, "entropy", "--preset", "sp3d-entropy", "--omega0", "3", "--n", "2")
        assert code == 0
        assert out["degenerate_sp3d"] is True

    def test_diffusion(self, capsys):
        code, out = run_json(
            capsys, "diffusion", "--eta", "0.5", "--kappa-a", "2", "--kappa-h", "1",
            "--sigma", "1", "--x0-tilde", "1", "--lambda", "0.5", "--t", "1",
            "--m", "100",
        )
        assert code == 0
        assert out["log_prelimit_lower"] <= out["log_prelimit_upper"]
        assert out["step_case"] == "SP1"
        assert out["horizon"] == 100

    def test_bayes_and_nptest(self, capsys):
        code, out = run_json(capsys, "bayes", "--preset", "ni-small", "--n", "2")
        assert code == 0
        assert out["bayes_risk_lower"] <= out["bayes_risk_upper"]
        code, out = run_json(
            capsys, "nptest", "--preset", "ni-small", "--n", "2", "--level", "0.1"
        )
        assert code == 0
        assert 0.0 < out["type2_error_bound"] <= 1.0

    def test_simulate_deterministic(self, capsys):
        args = ("simulate", "--preset", "ni-small", "--n", "2", "--reps", "2000", "--seed", "9")
        code_a, out_a = run_cli(capsys, *args)
        code_b, out_b = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a)
        assert payload["rng"] == "philox-counter-based"


class TestErrors:
    def test_case_mismatch_code(self, capsys):
        code, out = run_json(
            capsys, "entropy", "--beta-a", "1", "--beta-h", "1", "--alpha-a", "2",
            "--alpha-h", "2", "--omega0", "1", "--n", "1",
        )
        assert code == 5
        assert out["error"]["kind"] == "invalid-input"

    def test_inadmissible_m_code(self, capsys):
        code, out = run_json(
            capsys, "diffusion", "--eta", "0.5", "--kappa-a", "4", "--kappa-h", "1",
            "--sigma", "1", "--x0-tilde", "1", "--lambda", "0.5", "--t", "1", "--m", "2",
        )
        assert code == 4
        assert out["error"]["kind"] == "inadmissible-m"

    def test_identical_laws_rejected(self, capsys):
        code, out = run_json(
            capsys, "hellinger", "--beta-a", "0.8", "--beta-h", "0.8",
            "--alpha-a", "2", "--alpha-h", "2", "--lambda", "0.5",
            "--omega0", "1", "--n", "1",
        )
        assert code == 5  # identical laws rejected by ParamSet validation

    def test_forced_method_case_mismatch_code(self, capsys):
        code, out = run_json(
            capsys, "hellinger", "--preset", "a7-sp2", "--n", "2",
            "--method", "exact",
        )
        assert code == 3
        assert out["error"]["kind"] == "case-mismatch"
        code, out = run_json(
            capsys, "hellinger", "--preset", "ni-small", "--n", "2",
            "--method", "bounds",
        )
        assert code == 3

    @pytest.mark.parametrize("argv, field", [
        (("hellinger", "--preset", "a7-sp3a", "--alpha-a", "inf", "--n", "3"), "alpha_a"),
        (("classify", "--preset", "a7-sp2", "--beta-h", "nan"), "beta_h"),
        (("diffusion", "--eta", "0.5", "--kappa-a", "inf", "--kappa-h", "1", "--sigma", "1",
          "--x0-tilde", "1", "--lambda", "0.5", "--t", "1"), "kappa_a"),
    ])
    def test_non_finite_input_code(self, capsys, argv, field):
        code, out = run_json(capsys, *argv)
        assert code == 5
        assert out["error"]["kind"] == "invalid-input"
        assert f"{field} must be finite" in out["error"]["message"]

    def test_parse_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["hellinger", "--n", "not-an-int"])
        assert excinfo.value.code == 2


class TestDeterminismAndRoundTrip:
    def test_identical_requests_identical_bytes(self, capsys):
        args = ("hellinger", "--preset", "a7-sp3b", "--omega0", "2", "--n", "4")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_json_roundtrip_reconstructs_request(self, capsys):
        _, out = run_json(capsys, "hellinger", "--preset", "a7-sp3c", "--omega0", "2", "--n", "3")
        inputs = out["inputs"]
        argv = [
            out["command"],
            "--beta-a", repr(inputs["beta_a"]), "--beta-h", repr(inputs["beta_h"]),
            "--alpha-a", repr(inputs["alpha_a"]), "--alpha-h", repr(inputs["alpha_h"]),
            "--lambda", repr(inputs["lambda"]),
            "--omega0", str(inputs["omega0"]), "--n", str(inputs["n"]),
        ]
        _, again = run_json(capsys, *argv)
        assert again == out


class TestSweep:
    def test_lambda_sweep_csv_shape(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--preset", "a7-sp2", "--axis", "lambda",
            "--grid", "0.1:0.9:9", "--n", "3",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda", "case", "log_lower", "log_upper", "log_exact"]
        assert len(rows) == 10
        # 17-significant-digit round-trip: values re-parse to identical floats
        for row in rows[1:]:
            assert float(row[2]) <= float(row[3])
            assert repr(float(row[2])) == row[2]

    def test_n_sweep(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--preset", "ni-small", "--axis", "n", "--grid", "1:6",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 7
        exacts = [float(r[4]) for r in rows[1:]]
        assert all(a > b for a, b in zip(exacts, exacts[1:]))

    def test_m_sweep(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--axis", "m", "--grid", "100:300:100",
            "--eta", "0", "--kappa-a", "0", "--kappa-h", "1", "--sigma", "1",
            "--x0-tilde", "1", "--lambda", "0.5", "--t", "1",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "m"
        assert len(rows) == 4


def test_presets_cover_reference_examples():
    assert set(PRESETS) >= {
        "a2-example", "a3-example", "a4-example", "a5-example",
        "a7-sp2", "a7-sp3a", "a7-sp3b", "a7-sp3c", "ni-small",
    }
