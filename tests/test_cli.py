"""Command-line interface: reports, round-trips, error codes, sweeps."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

import gwidiv
from gwidiv.cli import PRESETS, main
from gwidiv.entropy import _occupation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out, parse_constant=_reject_constant)


_DIFFUSION = ("--eta", "1", "--kappa-a", "0.5", "--kappa-h", "2", "--sigma", "1",
              "--x0-tilde", "1", "--lambda", "0.5")


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

    def test_near_identical_sp1_is_reported(self, capsys):
        """The float geometric mean rounds above the lambda-weight here; the
        report used to be refused with exit code 5."""
        code, out = run_json(
            capsys, "hellinger", "--beta-a", "2.5593272465407857", "--beta-h",
            "2.5593272465409647", "--alpha-a", "5.118654493081571", "--alpha-h",
            "5.118654493081929", "--lambda", "0.6963088582540318", "--omega0", "3",
            "--n", "50",
        )
        assert code == 0
        assert out["log_lower"] == out["log_exact"] == out["log_upper"] <= 0.0


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

    @pytest.mark.parametrize("preset, n", [("ni-small", 5), ("sp1-small", 3)])
    def test_rounding_gap_passes(self, capsys, preset, n):
        """The exact value once missed the enclosure's lower end by one rounding error."""
        code, out = run_json(capsys, "verify", "--preset", preset, "--n", str(n),
                             "--tail-budget", "1e-15")
        assert code == 0
        assert out["status"] == "PASS"

    @pytest.mark.parametrize("shift", [1e-9, -1e-9])
    def test_shifted_value_fails(self, capsys, monkeypatch, shift):
        """The rounding allowance is far below a 1e-9 relative error."""
        import gwidiv.cli

        exact = gwidiv.cli.exact_log_hellinger
        monkeypatch.setattr(gwidiv.cli, "exact_log_hellinger",
                            lambda *args: exact(*args) + math.log1p(shift))
        code, out = run_json(capsys, "verify", "--preset", "ni-small", "--n", "5",
                             "--tail-budget", "1e-15")
        assert code == 0
        assert out["status"] == "FAIL"


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

    def test_entropy_tangent_at_mean_population(self, capsys):
        """The best tangent touches g at the mean population S/n, a finite number."""
        code, out = run_json(capsys, "entropy", "--preset", "a2-example", "--n", "50")
        assert code == 0
        params = gwidiv.ParamSet(*PRESETS["a2-example"][:4])
        assert out["components"]["y_best"] == _occupation(params, 1, 50) / 50
        assert out["components"]["k_best"] == math.floor(out["components"]["y_best"])
        assert out["lower"] <= out["upper"]

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

    def test_crossed_report_is_a_library_fault(self, capsys):
        """The input is valid; the SP2 secant(0,1) slope rounds too low and the
        report comes out crossed, which used to exit 5 as invalid input."""
        code, out = run_json(
            capsys, "hellinger", "--beta-a", "2.603618456914746", "--beta-h",
            "2.6036184569147456", "--alpha-a", "4.469573356601049", "--alpha-h",
            "4.469573356601049", "--lambda", "0.3989426784924799", "--omega0", "3",
            "--n", "85",
        )
        assert code == 6
        assert out == {"error": {
            "code": 6, "kind": "library-fault",
            "message": "log_lower -199.42487977684232 exceeds log_upper -201.92816811415585"}}

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

    @pytest.mark.parametrize("budget", ["nan", "inf", "2", "0", "-1e-9"])
    def test_bad_tail_budget_code(self, capsys, budget):
        """Such budgets once printed NaN/Infinity (not JSON) and a PASS."""
        code, payload = run_json(capsys, "verify", "--preset", "a7-sp2", "--n", "2",
                                 f"--tail-budget={budget}")
        assert code == 5
        assert payload["error"]["kind"] == "invalid-input"
        assert "tail_budget" in payload["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ("--preset", "a2-example", "--n", "2000"),
        ("--preset", "sp1-small", "--n", "2000"),
        ("--beta-a", "2", "--beta-h", "0.01", "--alpha-a", "1", "--alpha-h", "1.5",
         "--n", "1020"),
        ("--preset", "a7-sp2", "--n", str(10**400)),  # beyond the double range
    ])
    def test_entropy_overflow_code(self, capsys, argv):
        """These once died with an OverflowError traceback or printed Infinity."""
        code, out = run_json(capsys, "entropy", *argv)
        assert code == 5
        assert out["error"]["kind"] == "invalid-input"
        assert "double" in out["error"]["message"]

    @pytest.mark.parametrize("command", ["hellinger", "bayes", "divergence", "nptest"])
    @pytest.mark.parametrize("omega0", ["-5", "0"])
    def test_horizon_zero_checks_omega0(self, capsys, command, omega0):
        """These once printed the trivial horizon-0 report for any omega0."""
        code, out = run_json(capsys, command, "--preset", "a2-example", "--n", "0",
                             "--omega0", omega0)
        assert code == 5
        assert out["error"]["kind"] == "invalid-input"
        assert "omega0" in out["error"]["message"]

    def test_verify_omega0_above_state_cap_code(self, capsys):
        """This once died with an IndexError traceback (exit code 1)."""
        code, out = run_json(capsys, "verify", "--preset", "a2-example", "--omega0", "6000",
                             "--n", "1")
        assert code == 5
        assert out["error"]["kind"] == "invalid-input"
        assert "max_state" in out["error"]["message"]

    def test_parse_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["hellinger", "--n", "not-an-int"])
        assert excinfo.value.code == 2


class TestNonFiniteResults:
    """No command prints NaN or Infinity: a log value beyond the double range
    is refused with exit code 5, naming the key."""

    def test_verify_underflowing_enumeration(self, capsys):
        """The oracle's kept mass underflows to 0; this once exited 0 and
        printed "log_enum": -Infinity."""
        code, out = run_json(capsys, "verify", "--beta-a", "0.5", "--beta-h", "0.4",
                             "--alpha-a", "200", "--alpha-h", "1", "--lambda", "0.5", "--n", "40")
        assert code == 5
        assert out["error"]["kind"] == "invalid-input"
        assert out["error"]["message"].startswith("log_enum is -inf")

    def test_horizon_beyond_the_double_range(self, capsys):
        """This once died with an OverflowError traceback (exit code 1)."""
        code, out = run_json(capsys, "hellinger", "--preset", "a7-sp2", "--n", str(10**400))
        assert code == 5
        assert "largest double" in out["error"]["message"]

    @pytest.mark.parametrize("params, code, field", [
        (("0.5", "5", "0", "0"), 0, None),  # NI: was refused, "exact value must lie between"
        (("4", "2", "4", "2"), 5, "log_exact"),  # SP1: -inf in every field
        (("0.8", "0.6", "20", "2"), 5, "log_lower"),  # SP3c
    ])
    def test_report_at_huge_horizon(self, capsys, params, code, field):
        flags = ("--beta-a", "--beta-h", "--alpha-a", "--alpha-h")
        argv = [x for pair in zip(flags, params) for x in pair] + ["--lambda", "0.5"]
        got, out = run_json(capsys, "hellinger", *argv, "--n", str(10**308))
        assert got == code
        if field is None:
            exact = out["log_exact"]
            assert math.isfinite(exact) and exact < 0.0
        else:
            assert out["error"]["message"] == f"{field} is -inf, not a finite double"
        got, out = run_json(capsys, "sweep", *argv, "--axis", "n",
                            "--grid", f"1:{10**308}:{10**308 - 1}", "--format", "json")
        assert got == code
        if field is None:
            assert [row[0] for row in out["rows"]] == [1, 10**308]
            assert out["rows"][1][4] == exact
        else:
            assert out["error"]["message"] == f"{field} is -inf, not a finite double"

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("argv, field", [
        (("diffusion", *_DIFFUSION, "--t", "1"), "limit_entropy"),
        (("sweep", *_DIFFUSION, "--axis", "t", "--grid", "1:2:3"), "limit_entropy"),
        (("sweep", *_DIFFUSION, "--axis", "t", "--grid", "1:2:3", "--format", "json"),
         "limit_entropy"),
        (("entropy", "--preset", "a7-sp2", "--n", "3"), "components.horizontal"),
    ])
    def test_every_result_is_checked(self, capsys, monkeypatch, argv, field, value):
        """A non-finite number anywhere in a result, a sweep row or a nested
        field, becomes an error at the one output point."""
        import gwidiv.cli

        report = gwidiv.cli.entropy_report

        def entropy_report(*args):
            out = report(*args)
            object.__setattr__(out, "horizontal", value)  # past the report's own check
            return out

        monkeypatch.setattr(gwidiv.cli, "limit_entropy", lambda *args: value)
        monkeypatch.setattr(gwidiv.cli, "entropy_report", entropy_report)
        code, out = run_json(capsys, *argv)
        assert code == 5
        assert out["error"] == {"code": 5, "kind": "invalid-input",
                                "message": f"{field} is {value}, not a finite double"}


def test_one_dispatch_for_every_command():
    """Every command, sweep included, is one _DISPATCH entry."""
    import gwidiv.cli

    parser = gwidiv.cli._build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(gwidiv.cli._DISPATCH) == set(commands)
    assert len(commands) == 10


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


def _contract_cases():
    for preset in sorted(PRESETS):
        yield "classify", preset, None
        for command in ("hellinger", "divergence", "entropy", "bayes", "nptest", "sweep",
                        "verify", "simulate"):
            for n in (1, 5, 50, 2000):
                if command in ("verify", "simulate") and n > 5:
                    continue
                yield command, preset, n


@pytest.mark.parametrize("command, preset, n", list(_contract_cases()))
def test_cli_contract(capsys, command, preset, n):
    """Every command on every preset exits with a documented code and prints strict JSON."""
    argv = [command, "--preset", preset]
    if n is not None:
        argv += ["--n", str(n)]
    if command == "sweep":
        argv += ["--axis", "lambda", "--grid", "0.1:0.9:3", "--format", "json"]
    elif command == "simulate":
        argv += ["--reps", "1000"]
    code, _ = run_json(capsys, *argv)
    assert code in (0, 3, 4, 5)


#: presets whose expected-population sum overflows a double at n = 1e9
_ENTROPY_OVERFLOW = ("a2-example", "a3-example", "a4-example", "a5-example", "sp1-small")

_HUGE_N = "1000000000"


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_cli_contract_at_huge_horizon(capsys, preset):
    """Every recursion reaches its float fixed point long before n = 1e9, so
    these reports take milliseconds, not minutes, and stay strict JSON."""
    start = time.perf_counter()
    for command in ("hellinger", "divergence", "bayes", "nptest"):
        code, out = run_json(capsys, command, "--preset", preset, "--n", _HUGE_N)
        assert code == 0, (command, out)
        assert out["inputs"]["n"] == 10**9
    code, out = run_json(capsys, "sweep", "--preset", preset, "--axis", "n",
                         "--grid", f"1:{_HUGE_N}:100000000", "--format", "json")
    assert code == 0
    assert [row[0] for row in out["rows"]] == list(range(1, 10**9, 10**8))
    code, out = run_json(capsys, "entropy", "--preset", preset, "--n", _HUGE_N)
    assert code == (5 if preset in _ENTROPY_OVERFLOW else 0), out
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("argv", [
    ("diffusion", *_DIFFUSION, "--t", "nan"),
    ("diffusion", *_DIFFUSION, "--t", "inf"),
    ("diffusion", *_DIFFUSION, "--t", "nan", "--m", "100"),
    ("diffusion", *_DIFFUSION, "--t", "1e308"),
    ("diffusion", *_DIFFUSION, "--t", "1e300", "--m", "100000000000"),
    ("sweep", *_DIFFUSION, "--axis", "t", "--grid", "0:inf:3"),
    ("sweep", *_DIFFUSION, "--axis", "t", "--grid", "0:inf:3", "--format", "json"),
])
def test_cli_contract_non_finite_time(capsys, argv):
    """A non-finite or overflowing diffusion time is an input error in strict JSON;
    these once printed NaN or Infinity, or died with a ValueError or
    OverflowError traceback."""
    code, out = run_json(capsys, *argv)
    assert code == 5
    assert out["error"]["kind"] == "invalid-input"


def test_presets_cover_reference_examples():
    assert set(PRESETS) >= {
        "a2-example", "a3-example", "a4-example", "a5-example",
        "a7-sp2", "a7-sp3a", "a7-sp3b", "a7-sp3c", "ni-small",
    }


def test_import_does_not_load_scipy_stats():
    """The library and its CLI need only scipy.special; scipy.stats alone
    costs most of a second of start-up."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gwidiv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, gwidiv, gwidiv.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"
