"""Command-line front end: classify, compute, sweep, verify, simulate.

Single results are emitted as JSON on stdout, sweeps as CSV; diagnostics go
to stderr.  Every report repeats the inputs, the case tag and the method
provenance, and carries values both in log scale and (when representable in
a double) linear scale.  Errors exit nonzero with a machine-readable error
object: 2 argument parsing, 3 case/operation mismatch, 4 inadmissible
approximation step, 5 other invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional, Sequence

from .closed_form import closed_form_log_lower, closed_form_log_upper
from .decisions import (
    DecisionConfig,
    bayes_risk_bounds,
    distinguishability,
    divergence_from_log_hellinger,
    np_type2_bound,
)
from .diffusion import (
    SDEParams,
    approx_params,
    limit_entropy,
    limit_log_bounds,
    prelimit_log_bounds,
    time_horizon,
)
from .entropy import entropy_report
from .oracle import TruncationPolicy, enum_log_hellinger, mc_log_hellinger
from .params import (
    AdmissibilityError,
    CaseError,
    GWIError,
    ParamSet,
    case_details,
    classify,
)
from .recursions import (
    LogBoundReport,
    exact_log_hellinger,
    log_hellinger_bounds,
    recursive_log_bounds,
)

__all__ = ["main", "PRESETS"]

#: example parameter tuples (beta_a, beta_h, alpha_a, alpha_h, lambda),
#: named after the worked example each tuple illustrates
PRESETS = {
    "a2-example": (1.8, 0.9, 2.8, 0.7, 0.5),
    "a3-example": (1.8, 0.9, 2.9, 0.7, 0.5),
    "a4-example": (1.8, 0.9, 1.1, 3.0, 0.5),
    "a5-example": (1.8, 0.9, 1.2, 3.0, 0.5),
    "a7-sp2": (0.8, 0.6, 2.0, 2.0, 0.5),
    "a7-sp3a": (0.8, 0.6, 2.0, 1.9, 0.5),
    "a7-sp3b": (0.8, 0.6, 2.0, 1.1, 0.5),
    "a7-sp3c": (1.0, 1.5, 2.0, 1.8, 0.5),
    "ni-small": (0.5, 0.25, 0.0, 0.0, 0.5),
    "sp1-small": (4.0, 2.0, 4.0, 2.0, 0.5),
    "sp3d-entropy": (1.0 / 3.0, 2.0 / 3.0, 2.0, 1.0, 0.5),
    "sp4-example": (1.0, 1.0, 2.0, 3.0, 0.5),
}

#: linear-scale values are suppressed below this log threshold (double underflow)
_LOG_FLOOR = -700.0


def _linear(log_value: Optional[float]) -> Optional[float]:
    if log_value is None or log_value < _LOG_FLOOR:
        return None
    return math.exp(log_value)


def _add_param_args(sub: argparse.ArgumentParser, with_lambda: bool = True) -> None:
    sub.add_argument("--preset", choices=sorted(PRESETS), help="named example tuple")
    sub.add_argument("--beta-a", type=float, help="offspring mean under the alternative")
    sub.add_argument("--beta-h", type=float, help="offspring mean under the hypothesis")
    sub.add_argument("--alpha-a", type=float, help="immigration mean under the alternative")
    sub.add_argument("--alpha-h", type=float, help="immigration mean under the hypothesis")
    if with_lambda:
        sub.add_argument("--lambda", dest="lam", type=float, help="order in (0,1)")


def _params_from(args: argparse.Namespace, need_lambda: bool = True):
    values = [args.beta_a, args.beta_h, args.alpha_a, args.alpha_h]
    lam = getattr(args, "lam", None)
    if args.preset is not None:
        preset = PRESETS[args.preset]
        values = [v if v is not None else p for v, p in zip(values, preset[:4])]
        if lam is None:
            lam = preset[4]
    if any(v is None for v in values):
        raise GWIError("missing parameters: give --preset or all of --beta-a/--beta-h/--alpha-a/--alpha-h")
    if need_lambda and lam is None:
        raise GWIError("missing --lambda")
    return ParamSet(*values), lam


def _inputs_dict(args: argparse.Namespace, params: ParamSet, lam=None, **extra) -> dict:
    inputs = {
        "beta_a": params.beta_a,
        "beta_h": params.beta_h,
        "alpha_a": params.alpha_a,
        "alpha_h": params.alpha_h,
    }
    if lam is not None:
        inputs["lambda"] = lam
    inputs.update({k: v for k, v in extra.items() if v is not None})
    return inputs


def _hellinger_payload(params: ParamSet, lam: float, omega0: int, n: int,
                       report: LogBoundReport) -> dict:
    payload = {
        "case": report.case.value,
        "method": report.method,
        "log_lower": report.log_lower,
        "log_upper": report.log_upper,
        "log_exact": report.log_exact,
        "hellinger_lower": _linear(report.log_lower),
        "hellinger_upper": _linear(report.log_upper),
        "hellinger_exact": _linear(report.log_exact),
    }
    if n >= 1:
        try:
            payload["log_closed_form_lower"] = closed_form_log_lower(params, lam, omega0, n)
        except CaseError:
            payload["log_closed_form_lower"] = None
        try:
            payload["log_closed_form_upper"] = closed_form_log_upper(params, lam, omega0, n)
        except CaseError:
            payload["log_closed_form_upper"] = None
    return payload


def _cmd_classify(args) -> dict:
    params, lam = _params_from(args)
    details = case_details(params, lam)
    out = {
        "command": "classify",
        "inputs": _inputs_dict(args, params, lam),
    }
    out.update(details)
    return out


def _cmd_hellinger(args) -> dict:
    params, lam = _params_from(args)
    out = {
        "command": "hellinger",
        "inputs": _inputs_dict(args, params, lam, omega0=args.omega0, n=args.n),
    }
    if args.n == 0:
        case = classify(params, lam)
        out.update(
            {"case": case.value, "log_exact": 0.0, "hellinger_exact": 1.0,
             "log_lower": 0.0, "log_upper": 0.0, "method": "horizon-0"}
        )
        return out
    if args.method == "exact" and not classify(params, lam).exactly_computable:
        # raises its CaseError (exit code 3) before computing anything
        exact_log_hellinger(params, lam, args.omega0, args.n)
    # recursive_log_bounds raises CaseError (exit code 3) on NI/SP1; elsewhere
    # its report is the one log_hellinger_bounds returns
    compute = recursive_log_bounds if args.method == "bounds" else log_hellinger_bounds
    report = compute(params, lam, args.omega0, args.n)
    out.update(_hellinger_payload(params, lam, args.omega0, args.n, report))
    return out


def _cmd_divergence(args) -> dict:
    params, lam = _params_from(args)
    report = log_hellinger_bounds(params, lam, args.omega0, args.n)
    # an upper Hellinger bound is a lower divergence bound and vice versa
    power_lo, renyi_lo = divergence_from_log_hellinger(report.log_upper, lam)
    power_hi, renyi_hi = divergence_from_log_hellinger(report.log_lower, lam)
    out = {
        "command": "divergence",
        "inputs": _inputs_dict(args, params, lam, omega0=args.omega0, n=args.n),
        "case": report.case.value,
        "method": report.method,
        "power_divergence_lower": power_lo,
        "power_divergence_upper": power_hi,
        "renyi_divergence_lower": renyi_lo,
        "renyi_divergence_upper": renyi_hi,
    }
    if report.log_exact is not None:
        power, renyi = divergence_from_log_hellinger(report.log_exact, lam)
        out["power_divergence_exact"] = power
        out["renyi_divergence_exact"] = renyi
    verdict = distinguishability(params)
    out["distinguishability"] = {
        "contiguous_a_to_h": verdict.contiguous_a_to_h,
        "contiguous_h_to_a": verdict.contiguous_h_to_a,
        "entirely_separated": verdict.entirely_separated,
    }
    return out


def _cmd_entropy(args) -> dict:
    params, _ = _params_from(args, need_lambda=False)
    report = entropy_report(params, args.omega0, args.n)
    return {
        "command": "entropy",
        "inputs": _inputs_dict(args, params, omega0=args.omega0, n=args.n),
        "case": report.case.value,
        "exact": report.exact,
        "upper": report.upper,
        "lower": report.lower,
        "simplified_lower": report.simplified,
        "components": {
            "best_tangent": report.best_tan,
            "best_secant": report.best_sec,
            "horizontal": report.horizontal,
            "tangent_at_ystar": report.tan_at_ystar,
            "y_best": report.y_best,
            "k_best": report.k_best,
        },
        "degenerate_sp3d": report.degenerate_sp3d,
        "dtan_at_ystar": report.dtan_at_ystar,
    }


def _sde_from(args) -> SDEParams:
    needed = [args.eta, args.kappa_a, args.kappa_h, args.sigma, args.x0_tilde]
    if any(v is None for v in needed):
        raise GWIError("missing SDE parameters: --eta --kappa-a --kappa-h --sigma --x0-tilde")
    return SDEParams(*needed)


def _cmd_diffusion(args) -> dict:
    sde = _sde_from(args)
    if args.lam is None:
        raise GWIError("missing --lambda")
    log_lo, log_hi = limit_log_bounds(sde, args.lam, args.t)
    out = {
        "command": "diffusion",
        "inputs": {
            "eta": sde.eta, "kappa_a": sde.kappa_a, "kappa_h": sde.kappa_h,
            "sigma": sde.sigma, "x0_tilde": sde.x0_tilde, "lambda": args.lam,
            "t": args.t,
        },
        "log_limit_lower": log_lo,
        "log_limit_upper": log_hi,
        "limit_lower": _linear(log_lo),
        "limit_upper": _linear(log_hi),
        "limit_entropy": limit_entropy(sde, args.t),
    }
    if args.m is not None:
        x0_count = args.x0_count if args.x0_count is not None else max(1, round(args.m * sde.x0_tilde))
        pre_lo, pre_hi = prelimit_log_bounds(sde, args.lam, args.t, args.m, x0_count)
        step_params = approx_params(sde, args.m)
        out["inputs"].update({"m": args.m, "x0_count": x0_count})
        out.update({
            "horizon": time_horizon(sde, args.m, args.t),
            "step_case": classify(step_params, args.lam).value,
            "log_prelimit_lower": pre_lo,
            "log_prelimit_upper": pre_hi,
        })
    return out


def _decision_cfg(args) -> DecisionConfig:
    return DecisionConfig(
        loss_a=args.loss_a, loss_h=args.loss_h, prior_h=args.prior_h, level=args.level
    )


def _cmd_bayes(args) -> dict:
    params, lam = _params_from(args)
    cfg = _decision_cfg(args)
    lower, upper = bayes_risk_bounds(params, lam, args.omega0, args.n, cfg)
    return {
        "command": "bayes",
        "inputs": _inputs_dict(
            args, params, lam, omega0=args.omega0, n=args.n,
            loss_a=cfg.loss_a, loss_h=cfg.loss_h, prior_h=cfg.prior_h,
        ),
        "case": classify(params, lam).value,
        "bayes_risk_lower": lower,
        "bayes_risk_upper": upper,
        "method": "upper from Hellinger upper bound, lower from Hellinger lower bound",
    }


def _cmd_nptest(args) -> dict:
    params, lam = _params_from(args)
    cfg = _decision_cfg(args)
    bound = np_type2_bound(params, lam, args.omega0, args.n, cfg)
    return {
        "command": "nptest",
        "inputs": _inputs_dict(
            args, params, lam, omega0=args.omega0, n=args.n, level=cfg.level
        ),
        "case": classify(params, lam).value,
        "type2_error_bound": bound,
        "method": "Hellinger order 1-lambda upper bound",
    }


def _cmd_verify(args) -> dict:
    params, lam = _params_from(args)
    policy = TruncationPolicy(tail_budget=args.tail_budget)
    log_enum, err = enum_log_hellinger(params, lam, args.omega0, args.n, policy)
    enum_lo, enum_hi = math.exp(log_enum), math.exp(log_enum) + err
    case = classify(params, lam)
    out = {
        "command": "verify",
        "inputs": _inputs_dict(
            args, params, lam, omega0=args.omega0, n=args.n, tail_budget=args.tail_budget
        ),
        "case": case.value,
        "log_enum": log_enum,
        "certified_error": err,
    }
    if case.exactly_computable:
        value = math.exp(exact_log_hellinger(params, lam, args.omega0, args.n))
        out["hellinger_exact"] = value
        out["abs_gap"] = abs(value - enum_lo)
        ok = enum_lo <= value <= enum_hi
    else:
        report = log_hellinger_bounds(params, lam, args.omega0, args.n)
        out["log_lower"] = report.log_lower
        out["log_upper"] = report.log_upper
        ok = math.exp(report.log_lower) <= enum_hi and enum_lo <= math.exp(report.log_upper)
    out["status"] = "PASS" if ok else "FAIL"
    return out


def _cmd_simulate(args) -> dict:
    params, lam = _params_from(args)
    estimate, std_error = mc_log_hellinger(
        params, lam, args.omega0, args.n, args.reps, args.seed
    )
    return {
        "command": "simulate",
        "inputs": _inputs_dict(
            args, params, lam, omega0=args.omega0, n=args.n,
            reps=args.reps, seed=args.seed,
        ),
        "case": classify(params, lam).value,
        "log_estimate": estimate,
        "std_error_log": std_error,
        "hellinger_estimate": _linear(estimate),
        "rng": "philox-counter-based",
    }


def _parse_grid(spec: str, integer: bool) -> list:
    parts = spec.split(":")
    if integer:
        if len(parts) == 2:
            start, stop, step = int(parts[0]), int(parts[1]), 1
        elif len(parts) == 3:
            start, stop, step = int(parts[0]), int(parts[1]), int(parts[2])
        else:
            raise GWIError("integer grid must be start:stop[:step]")
        if step < 1 or stop < start:
            raise GWIError("bad integer grid")
        return list(range(start, stop + 1, step))
    if len(parts) == 2:
        start, stop, count = float(parts[0]), float(parts[1]), 50
    elif len(parts) == 3:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    else:
        raise GWIError("grid must be start:stop[:count]")
    if count < 2 or stop <= start:
        raise GWIError("bad grid")
    width = (stop - start) / (count - 1)
    return [start + i * width for i in range(count)]


def _cmd_sweep(args) -> tuple[list[str], list[list]]:
    rows: list[list] = []
    if args.axis in ("lambda", "n"):
        params, lam = _params_from(args, need_lambda=(args.axis == "n"))
        if args.axis == "lambda":
            grid = _parse_grid(args.grid, integer=False)
            header = ["lambda", "case", "log_lower", "log_upper", "log_exact"]
            for value in grid:
                report = log_hellinger_bounds(params, value, args.omega0, args.n)
                rows.append([value, report.case.value, report.log_lower,
                             report.log_upper, report.log_exact])
        else:
            grid = _parse_grid(args.grid, integer=True)
            header = ["n", "case", "log_lower", "log_upper", "log_exact"]
            for value in grid:
                report = log_hellinger_bounds(params, lam, args.omega0, value)
                rows.append([value, report.case.value, report.log_lower,
                             report.log_upper, report.log_exact])
        return header, rows
    sde = _sde_from(args)
    if args.lam is None:
        raise GWIError("missing --lambda")
    if args.axis == "t":
        grid = _parse_grid(args.grid, integer=False)
        header = ["t", "log_limit_lower", "log_limit_upper", "limit_entropy"]
        for value in grid:
            lo, hi = limit_log_bounds(sde, args.lam, value)
            rows.append([value, lo, hi, limit_entropy(sde, value)])
        return header, rows
    # axis == "m"
    grid = _parse_grid(args.grid, integer=True)
    header = ["m", "horizon", "log_prelimit_lower", "log_prelimit_upper"]
    for value in grid:
        x0_count = args.x0_count if args.x0_count is not None else max(1, round(value * sde.x0_tilde))
        lo, hi = prelimit_log_bounds(sde, args.lam, args.t, value, x0_count)
        rows.append([value, time_horizon(sde, value, args.t), lo, hi])
    return header, rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwidiv",
        description="Divergence bounds between two Poisson GWI path laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name: str, need_horizon: bool = True, with_lambda: bool = True):
        p = sub.add_parser(name)
        _add_param_args(p, with_lambda=with_lambda)
        if need_horizon:
            p.add_argument("--omega0", type=int, default=1, help="initial population")
            p.add_argument("--n", type=int, required=True, help="observation horizon")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    common("classify", need_horizon=False)
    p = common("hellinger")
    p.add_argument("--method", choices=("auto", "exact", "bounds"), default="auto",
                   help="force exact values or bounds instead of dispatching by case")
    common("divergence")
    common("entropy", with_lambda=False)

    p = sub.add_parser("diffusion")
    p.add_argument("--eta", type=float)
    p.add_argument("--kappa-a", type=float)
    p.add_argument("--kappa-h", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--x0-tilde", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--x0-count", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    for name in ("bayes", "nptest"):
        p = common(name)
        p.add_argument("--loss-a", type=float, default=1.0)
        p.add_argument("--loss-h", type=float, default=1.0)
        p.add_argument("--prior-h", type=float, default=0.5)
        p.add_argument("--level", type=float, default=0.05)

    p = common("verify")
    p.add_argument("--tail-budget", type=float, default=1e-9)

    p = common("simulate")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep")
    _add_param_args(p)
    p.add_argument("--omega0", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--axis", choices=("lambda", "n", "t", "m"), required=True)
    p.add_argument("--grid", required=True, help="start:stop[:count|:step]")
    p.add_argument("--eta", type=float)
    p.add_argument("--kappa-a", type=float)
    p.add_argument("--kappa-h", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--x0-tilde", type=float)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x0-count", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    return parser


_DISPATCH = {
    "classify": _cmd_classify,
    "hellinger": _cmd_hellinger,
    "divergence": _cmd_divergence,
    "entropy": _cmd_entropy,
    "diffusion": _cmd_diffusion,
    "bayes": _cmd_bayes,
    "nptest": _cmd_nptest,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
}

_ERROR_CODES = (
    (CaseError, 3, "case-mismatch"),
    (AdmissibilityError, 4, "inadmissible-m"),
    (GWIError, 5, "invalid-input"),
    (ValueError, 5, "invalid-input"),
)


def _emit_csv(header: list[str], rows: list[list], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                         for v in row])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            header, rows = _cmd_sweep(args)
            if args.format == "json":
                payload = {"command": "sweep", "header": header, "rows": rows}
                print(json.dumps(payload, sort_keys=True))
            else:
                buffer = io.StringIO()
                _emit_csv(header, rows, buffer)
                sys.stdout.write(buffer.getvalue())
            return 0
        result = _DISPATCH[args.command](args)
    except tuple(exc for exc, _, _ in _ERROR_CODES) as exc:
        for exc_type, code, kind in _ERROR_CODES:
            if isinstance(exc, exc_type):
                print(json.dumps({"error": {"code": code, "kind": kind, "message": str(exc)}}))
                print(f"gwidiv: error: {exc}", file=sys.stderr)
                return code
        raise  # unreachable
    if args.format == "csv":
        flat = _flatten(result)
        buffer = io.StringIO()
        _emit_csv(list(flat), [list(flat.values())], buffer)
        sys.stdout.write(buffer.getvalue())
    else:
        print(json.dumps(result, sort_keys=True))
    return 0


def _flatten(obj: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


if __name__ == "__main__":
    raise SystemExit(main())
