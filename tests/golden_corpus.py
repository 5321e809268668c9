"""Golden corpus: exact outputs that a change meant to keep results must keep.

Each line is ``key<TAB>value``.  The parts:

* the standard output and exit code of ``gwidiv.cli.main`` run in process
  for every preset, for ``classify`` and, at n in ``CLI_NS``, for
  ``hellinger``, ``divergence``, ``entropy``, ``bayes`` and ``nptest``; for
  ``verify`` and ``simulate`` on every preset; and for ``diffusion``,
  ``sweep`` (every axis) and one ``simulate`` at lambda 0.9, error objects
  included;
* ``float.hex`` of every pair in ``Constellation(params, lam).uppers`` and of
  the ``log_hellinger_bounds`` report, on seeded SP2-SP3d draws at every
  lambda in ``LAMBDAS``;
* every field of ``entropy_report`` and ``entropy_lower`` (floats as
  ``float.hex``), the value of ``entropy_upper`` and ``exact_entropy``, or
  the refusal, on seeded draws of all eight cases, on draws with beta_a
  within ``NEAR_ONE`` of 1 and on a supercritical long-horizon point, at
  every (omega0, n) in ``ENTROPY_HORIZONS``;
* every ``ClosedFormTerms`` field (floats as ``float.hex``) of
  ``closed_form_lower_terms`` and ``closed_form_upper_terms`` with
  ``explicit`` False and True, or the refusal, at every (omega0, n) in
  ``CLOSED_FORM_HORIZONS``, and the ``FixedPointResult`` fields and
  ``asymptotic_log_slope`` of each pair, or the refusal, on the SP2-SP3d
  draws above and on ``LINEAR_DRAWS`` seeded NI/SP1 draws per lambda; and
  ``prelimit_log_bounds`` (or the refusal) at the ``_SDE`` points, lambda
  0.3, 0.5 and 0.9, t 0.5, 1 and 10, for every m in ``PRELIMIT_MS``;
* ``optimize_bayes_upper`` (lambda and bound as ``float.hex``, or the
  refusal) and ``bayes_risk_bounds`` at every lambda in ``LAMBDAS`` on
  ``DECISION_DRAWS`` seeded draws of all eight cases and on one input whose
  report crosses, at every n in ``DECISION_NS`` under each of
  ``DECISION_CONFIGS``;
* the ``--help`` text of ``gwidiv`` and of each command in ``COMMANDS``,
  at ``COLUMNS`` 80, and the ``--format csv`` output of every command but
  ``sweep`` on one preset, error object included;
* ``float.hex`` of ``phi_eval`` (phi, phi', phi'') and ``varphi_value`` at
  every x in ``PHI_XS`` and of every (log value, error) pair of
  ``enum_log_hellinger_profile`` at ``PROFILE_OMEGA0``, ``PROFILE_N``, on one
  seeded draw per case at lambda ``PHI_LAMBDA``; and ``log_hellinger_bounds``
  at omega0 2, n 7 on ``GAMMA_ZERO_SP3A`` at every lambda in ``LAMBDAS``,
  refusals included.

``tests/test_golden.py`` recomputes the corpus and compares it with the
committed ``tests/golden_corpus.txt`` line by line.  To regenerate the file
after a change that is meant to alter results, run from the repository root

    PYTHONPATH=src python tests/golden_corpus.py

and review the diff of ``tests/golden_corpus.txt``.  Before that,

    PYTHONPATH=src python tests/golden_corpus.py --summary

prints, without writing the file, how many lines of each part (the first
word of a key) changed and the largest relative move of each numeric field
(a JSON key of CLI output, else the position of a number in the value):
what a change that states a tolerance has to account for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
from collections import Counter
from unittest import mock

import numpy as np

from gwidiv import (
    DecisionConfig,
    GWIError,
    ParamSet,
    SDEParams,
    asymptotic_log_slope,
    bayes_risk_bounds,
    closed_form_lower_terms,
    closed_form_upper_terms,
    entropy_lower,
    entropy_report,
    entropy_upper,
    exact_entropy,
    log_hellinger_bounds,
    optimize_bayes_upper,
    prelimit_log_bounds,
    solve_fixed_point,
)
from gwidiv.cli import PRESETS, main
from gwidiv.oracle import enum_log_hellinger_profile
from gwidiv.params import phi_eval, varphi_value
from gwidiv.recursions import Constellation

from conftest import ALL_CASES, random_params

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_corpus.txt")

CLI_COMMANDS = ("hellinger", "divergence", "entropy", "bayes", "nptest")
CLI_NS = (1, 5, 50, 2000, 10**5)

BOUND_CASES = ("SP2", "SP3a", "SP3b", "SP3c", "SP3d")
LAMBDAS = (0.1, 0.3, 0.5, 0.7, 0.9)
DRAWS = 4
#: (omega0, n) of the log_hellinger_bounds entries
HORIZONS = ((1, 1), (3, 7), (1, 60), (2, 2000))
SEED = 20261019

ENTROPY_DRAWS = 3
#: distances of beta_a from 1 (on both sides) of the near-singular draws
NEAR_ONE = (1e-3, 1e-5, 1e-7, 1e-9)
#: a supercritical SP2 point of the long-horizon workload
LONG_HORIZON_POINT = ParamSet(1.1412442533744493, 0.9273376114944971,
                              0.6419940810377196, 0.6419940810377196)
ENTROPY_HORIZONS = tuple((omega0, n) for omega0 in (1, 5) for n in (1, 10, 1000, 10**5))
ENTROPY_FIELDS = ("exact", "upper", "lower", "tan_at_ystar", "best_tan", "best_sec",
                  "horizontal", "y_best", "k_best", "simplified", "degenerate_sp3d",
                  "dtan_at_ystar", "case")

#: draws per (case, lambda) of the closed-form entries on NI and SP1
LINEAR_DRAWS = 2
#: (omega0, n) of the closed-form entries
CLOSED_FORM_HORIZONS = (*HORIZONS, (1, 10**9))
CLOSED_FORM_FIELDS = ("zeta", "vartheta", "main_linear", "main_geometric", "x0_used", "omega0",
                      "explicit_fallback")
FIXED_POINT_FIELDS = ("x0", "x0_under", "x0_over", "d_t", "d_s", "gamma_cap", "q",
                      "beta_lambda", "explicit_unsafe")
PRELIMIT_MS = tuple(10**k for k in range(1, 9))

#: draws per case of the decision entries
DECISION_DRAWS = 2
DECISION_OMEGA0 = 3
DECISION_NS = (0, 1, 7, 20)
DECISION_CONFIGS = (DecisionConfig(), DecisionConfig(loss_a=10.0, loss_h=0.5, prior_h=0.3))
#: near-identical supercritical SP2 laws whose report crosses at omega0 = 3, n = 85
CROSSING_POINT = ParamSet(2.603618456914746, 2.6036184569147456,
                          4.469573356601049, 4.469573356601049)

#: the order, points and profile horizon of the phi entries
PHI_LAMBDA = 0.3
PHI_XS = (0.0, 1.0, 2.5)
PROFILE_OMEGA0, PROFILE_N = 2, 3
#: gamma is exactly 0.0 in floats, yet classify finds phi'(0) <= 0: SP3a,
#: whose majorant checks read the affine form of phi
GAMMA_ZERO_SP3A = ParamSet(2208272.1629589596, 1.3388200155740742,
                           7768091.752870571, 4.7095991590201)

_SDE = (("--eta", "0.5", "--kappa-a", "2", "--kappa-h", "1", "--sigma", "1", "--x0-tilde", "1"),
        ("--eta", "1", "--kappa-a", "0.5", "--kappa-h", "2", "--sigma", "1", "--x0-tilde", "1"),
        ("--eta", "0", "--kappa-a", "0", "--kappa-h", "1", "--sigma", "1", "--x0-tilde", "2"))


def _cli(argv: list[str]) -> str:
    """Exit code and stdout of ``main(argv)``; ``--help`` exits through
    argparse's ``SystemExit``, and wraps its text at 80 columns."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"{code} {out.getvalue()}".rstrip("\n").replace("\n", "\\n")


def _hex(*values) -> str:
    return " ".join(v.hex() for v in values)


def _value(v) -> str:
    return v.hex() if isinstance(v, float) else repr(v)


def cli_lines():
    for preset in sorted(PRESETS):
        yield f"cli classify {preset}", _cli(["classify", "--preset", preset])
        for command in CLI_COMMANDS:
            for n in CLI_NS:
                argv = [command, "--preset", preset, "--n", str(n)]
                yield f"cli {command} {preset} n={n}", _cli(argv)
        for n in (1, 3):
            yield f"cli verify {preset} n={n}", _cli(["verify", "--preset", preset, "--n", str(n)])
            argv = ["simulate", "--preset", preset, "--n", str(n), "--reps", "1000"]
            yield f"cli simulate {preset} n={n}", _cli(argv)
    yield from _other_cli_lines()


def _other_cli_lines():
    argvs = [
        ["simulate", "--beta-a", "0.8652015606657605", "--beta-h", "0.41477744087016977",
         "--alpha-a", "1.2142988534394856", "--alpha-h", "0.2633468617418253",
         "--lambda", "0.9", "--omega0", "5", "--n", "5", "--reps", "10000",
         "--seed", "1130065792"],
        ["simulate", "--preset", "a7-sp2", "--n", "2", "--reps", "999"],
        ["verify", "--preset", "a7-sp2", "--n", "2", "--tail-budget", "2"],
    ]
    for sde in _SDE:
        for lam in ("0.3", "0.5", "0.9"):
            for t in ("0.5", "1", "10"):
                base = ["diffusion", *sde, "--lambda", lam, "--t", t]
                argvs.append(base)
                argvs += [base + ["--m", m] for m in ("2", "100", "10000")]
            argvs.append(["diffusion", *sde, "--lambda", lam, "--t", "1", "--m", "100",
                          "--x0-count", "7"])
        argvs += [
            ["diffusion", *sde, "--t", "1"],
            ["diffusion", *sde, "--lambda", "0.5", "--t", "nan", "--m", "100"],
            ["sweep", *sde, "--lambda", "0.5", "--axis", "t", "--grid", "0.5:4:5"],
            ["sweep", *sde, "--lambda", "0.5", "--axis", "m", "--grid", "100:500:200",
             "--t", "2", "--format", "json"],
            ["sweep", *sde, "--lambda", "0.5", "--axis", "m", "--grid", "100:300:100",
             "--x0-count", "3"],
            ["sweep", *sde, "--axis", "t", "--grid", "0.5:4:5"],
        ]
    argvs += [
        ["diffusion", "--eta", "1", "--lambda", "0.5", "--t", "1"],
        ["sweep", "--axis", "t", "--grid", "0:1:3", "--lambda", "0.5"],
        ["sweep", *_SDE[0], "--axis", "m", "--grid", "100:300:100"],
        ["sweep", "--beta-a", "0.8", "--beta-h", "0.6", "--alpha-a", "2", "--alpha-h", "1.1",
         "--axis", "n", "--grid", "1:4"],
        ["sweep", "--beta-a", "0.8", "--beta-h", "0.6", "--alpha-a", "2", "--alpha-h", "1.1",
         "--axis", "lambda", "--grid", "0.1:0.9:4", "--n", "3"],
        ["sweep", "--preset", "a7-sp2", "--axis", "lambda", "--grid", "0.9:0.1"],
        ["sweep", "--preset", "a7-sp2", "--axis", "n", "--grid", "1:2:3:4"],
    ]
    for preset in sorted(PRESETS):
        argvs += [
            ["sweep", "--preset", preset, "--axis", "lambda", "--grid", "0.1:0.9:5", "--n", "3"],
            ["sweep", "--preset", preset, "--axis", "n", "--grid", "1:2001:500", "--omega0", "2",
             "--format", "json"],
        ]
    for argv in argvs:
        yield "cli " + " ".join(argv), _cli(argv)


COMMANDS = ("classify", "hellinger", "divergence", "entropy", "diffusion", "bayes", "nptest",
            "verify", "simulate", "sweep")


def surface_lines():
    for command in ("", *COMMANDS):
        yield f"surface help {command or 'gwidiv'}", _cli([command, "--help"] if command
                                                          else ["--help"])
    preset = ["--preset", "a7-sp3b"]
    argvs = [["classify", *preset]]
    argvs += [[command, *preset, "--n", "5"] for command in CLI_COMMANDS]
    argvs += [
        ["diffusion", *_SDE[0], "--lambda", "0.5", "--t", "1", "--m", "100"],
        ["verify", *preset, "--n", "1"],
        ["simulate", *preset, "--n", "1", "--reps", "1000"],
        ["hellinger", *preset, "--n", "0"],
        ["hellinger", *preset, "--n", "5", "--method", "exact"],
    ]
    for argv in argvs:
        argv += ["--format", "csv"]
        yield "surface " + " ".join(argv), _cli(argv)


def _refusal(exc: GWIError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _draws(seed: int, cases, draws: int = DRAWS):
    rng = np.random.default_rng(seed)
    for case in cases:
        for lam in LAMBDAS:
            for draw in range(draws):
                yield f"{case} lam={lam} draw={draw}", random_params(rng, case, lam), lam


def bound_lines():
    for key, params, lam in _draws(SEED, BOUND_CASES):
        yield f"params {key}", _hex(params.beta_a, params.beta_h, params.alpha_a, params.alpha_h)
        c = Constellation(params, lam)
        for pair in c.uppers:
            yield f"uppers {key} {pair.label}", _hex(pair.p, pair.q)
        for omega0, n in HORIZONS:
            try:
                report = log_hellinger_bounds(params, lam, omega0, n)
                value = f"{_hex(report.log_lower, report.log_upper)} {report.method}"
            except GWIError as exc:
                value = _refusal(exc)
            yield f"bounds {key} omega0={omega0} n={n}", value


def _call(f, *args, fields=()) -> str:
    """The result of ``f(*args)``: a float, or the named fields of a record,
    or the refusal."""
    try:
        out = f(*args)
    except GWIError as exc:
        return _refusal(exc)
    if isinstance(out, float):
        return out.hex()
    return " ".join(_value(getattr(out, name)) for name in fields)


def closed_form_lines():
    draws = [*_draws(SEED, BOUND_CASES), *_draws(SEED + 2, ("NI", "SP1"), LINEAR_DRAWS)]
    for key, params, lam in draws:
        if key.startswith(("NI", "SP1")):
            yield f"params {key}", _hex(params.beta_a, params.beta_h,
                                        params.alpha_a, params.alpha_h)
        c = Constellation(params, lam)
        pairs = [c.star, c.upper] + ([] if c.case.exactly_computable else list(c.uppers))
        for pair in dict.fromkeys(pairs):
            fp = _call(solve_fixed_point, pair.q, c.weights[0], fields=FIXED_POINT_FIELDS)
            slope = _call(asymptotic_log_slope, pair, params, lam)
            yield f"fixed-point {key} {pair.label}", f"{fp} | slope {slope}"
        for omega0, n in CLOSED_FORM_HORIZONS:
            yield f"closed-form {key} omega0={omega0} n={n}", " | ".join(
                _call(f, params, lam, omega0, n, explicit, fields=CLOSED_FORM_FIELDS)
                for f in (closed_form_lower_terms, closed_form_upper_terms)
                for explicit in (False, True))


def _sde(argv) -> SDEParams:
    values = dict(zip(argv[::2], map(float, argv[1::2])))
    return SDEParams(*(values[f"--{name}"] for name in ("eta", "kappa-a", "kappa-h", "sigma",
                                                         "x0-tilde")))


def prelimit_lines():
    for index, argv in enumerate(_SDE):
        sde = _sde(argv)
        for lam in (0.3, 0.5, 0.9):
            for t in (0.5, 1.0, 10.0):
                for m in PRELIMIT_MS:
                    x0_count = max(1, round(m * sde.x0_tilde))
                    try:
                        value = _hex(*prelimit_log_bounds(sde, lam, t, m, x0_count))
                    except GWIError as exc:
                        value = _refusal(exc)
                    yield f"prelimit sde={index} lam={lam} t={t} m={m}", value


def _entropy_params():
    rng = np.random.default_rng(SEED + 1)
    for case in ALL_CASES:
        for draw in range(ENTROPY_DRAWS):
            params = random_params(rng, case)
            yield f"{case} draw={draw}", ParamSet(*map(float, (
                params.beta_a, params.beta_h, params.alpha_a, params.alpha_h)))
    for eps in NEAR_ONE:
        for beta_a in (1.0 - eps, 1.0 + eps):
            beta_h = float(rng.uniform(0.3, 0.9) if rng.integers(0, 2) else rng.uniform(1.1, 1.25))
            scale = float(rng.uniform(0.3, 2.0))
            alpha_a, alpha_h = map(float, rng.uniform(0.3, 2.2, size=2))
            key = f"beta_a={beta_a!r}"
            yield f"{key} NI", ParamSet(beta_a, beta_h, 0.0, 0.0)
            yield f"{key} SP1", ParamSet(beta_a, beta_h, scale * beta_a, scale * beta_h)
            yield f"{key} any", ParamSet(beta_a, beta_h, alpha_a, alpha_h)
    yield "long-horizon", LONG_HORIZON_POINT


def entropy_lines():
    for key, params in _entropy_params():
        yield f"params {key}", _hex(params.beta_a, params.beta_h, params.alpha_a, params.alpha_h)
        for omega0, n in ENTROPY_HORIZONS:
            for f in (entropy_report, entropy_lower, entropy_upper, exact_entropy):
                value = _call(f, params, omega0, n, fields=ENTROPY_FIELDS)
                yield f"{f.__name__} {key} omega0={omega0} n={n}", value


def _decision_params():
    rng = np.random.default_rng(SEED + 3)
    for case in ALL_CASES:
        for draw in range(DECISION_DRAWS):
            yield f"{case} draw={draw}", random_params(rng, case), DECISION_NS
    yield "crossing", CROSSING_POINT, (85,)


def decision_lines():
    omega0 = DECISION_OMEGA0
    for key, params, ns in _decision_params():
        yield f"params decision {key}", _hex(params.beta_a, params.beta_h, params.alpha_a,
                                             params.alpha_h)
        for index, cfg in enumerate(DECISION_CONFIGS):
            for n in ns:
                at = f"{key} cfg={index} omega0={omega0} n={n}"
                try:
                    value = " ".join(map(_value, optimize_bayes_upper(params, omega0, n, cfg)))
                except GWIError as exc:
                    value = _refusal(exc)
                yield f"optimize {at}", value
                risks = []
                for lam in LAMBDAS:
                    try:
                        risks.append(_hex(*bayes_risk_bounds(params, lam, omega0, n, cfg)))
                    except GWIError as exc:
                        risks.append(_refusal(exc))
                yield f"bayes {at}", " | ".join(risks)


def phi_lines():
    rng = np.random.default_rng(SEED + 4)
    lam = PHI_LAMBDA
    for case in ALL_CASES:
        params = random_params(rng, case, lam)
        key = f"phi {case} lam={lam}"
        yield f"{key} params", _hex(params.beta_a, params.beta_h, params.alpha_a, params.alpha_h)
        yield key, " | ".join(_hex(*phi_eval(params, lam, x), varphi_value(params, lam, x))
                              for x in PHI_XS)
        profile = enum_log_hellinger_profile(params, lam, PROFILE_OMEGA0, PROFILE_N)
        yield f"{key} profile", " | ".join(_hex(*entry) for entry in profile)
    for lam in LAMBDAS:
        try:
            report = log_hellinger_bounds(GAMMA_ZERO_SP3A, lam, 2, 7)
            value = f"{_hex(report.log_lower, report.log_upper)} {report.method}"
        except GWIError as exc:
            value = _refusal(exc)
        yield f"phi gamma-zero lam={lam} omega0=2 n=7", value


def corpus() -> list[str]:
    return [f"{key}\t{value}"
            for lines in (cli_lines(), bound_lines(), entropy_lines(), closed_form_lines(),
                          prelimit_lines(), decision_lines(), surface_lines(), phi_lines())
            for key, value in lines]


def _leaves(doc, path: str = ""):
    """(path, number) of every numeric leaf of a JSON document; list indices
    are left out of the path, so the rows of a table share their fields."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value, path)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path, float(doc)


def _numbers(value: str) -> list[tuple[str, float]]:
    """(field, number) of a corpus value: the JSON leaves of a CLI result,
    else every hex or decimal token, named by its position."""
    try:
        doc = json.loads(value.partition(" ")[2])
    except ValueError:
        doc = None
    if isinstance(doc, (dict, list)):
        return list(_leaves(doc))
    numbers = []
    for token in re.split(r"[\s|,;()]+", value):
        try:
            numbers.append(float.fromhex(token) if "0x" in token else float(token))
        except ValueError:
            pass
    return [(f"[{i}]", number) for i, number in enumerate(numbers)]


def _relative_move(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if math.isfinite(scale) else math.inf


def summary(want: list[str], got: list[str]) -> list[str]:
    """The changed lines of ``got`` against ``want`` (corpus lines) per part,
    then the largest relative move of every field that moved.  A line whose
    fields differ in name or number counts as changed but moves no field."""
    old, new = (dict(line.split("\t", 1) for line in lines) for lines in (want, got))
    lines, changed, moves = Counter(), Counter(), {}
    for key in old.keys() | new.keys():
        part = key.split(" ", 1)[0]
        lines[part] += 1
        if old.get(key) == new.get(key):
            continue
        changed[part] += 1
        before, after = _numbers(old.get(key, "")), _numbers(new.get(key, ""))
        if [field for field, _ in before] != [field for field, _ in after]:
            continue
        for (field, a), (_, b) in zip(before, after):
            name = f"{part} {field}"
            moves[name] = max(moves.get(name, 0.0), _relative_move(a, b))
    out = [f"{part:<16} {changed[part]:>5} of {lines[part]:>5} lines changed"
           for part in sorted(lines)]
    out += [f"{name:<40} {move:.3g}" for name, move in sorted(moves.items()) if move]
    return out


def _run(argv=None) -> None:
    parser = argparse.ArgumentParser(description="regenerate or compare the golden corpus")
    parser.add_argument("--summary", action="store_true",
                        help="compare with the committed file instead of rewriting it")
    if parser.parse_args(argv).summary:
        with open(PATH) as f:
            print("\n".join(summary(f.read().splitlines(), corpus())))
        return
    with open(PATH, "w") as f:
        f.write("\n".join(corpus()) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    _run()
