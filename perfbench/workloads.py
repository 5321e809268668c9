"""Queries of the four workloads: how each is built, run and checked.

A query is ``Query(kind, args)``.  ``RUNNERS[kind](gw, *args)`` calls the
library through the package object ``gw`` at call time (so a traced run sees
the wrapped functions) and returns everything the check needs;
``CHECKS[kind](result, *args)`` returns the list of problems.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from typing import NamedTuple

import checks
import inputs


class Query(NamedTuple):
    kind: str
    args: tuple

    @property
    def label(self) -> str:
        """The kind, and for CLI queries the command too."""
        return f"{self.kind}:{self.args[0][0]}" if self.kind.startswith("cli") else self.kind

    def describe(self) -> str:
        return f"{self.kind}{self.args!r}"


# ------------------------------------------------------------------ runners


def run_hellinger(gw, params, lam, omega0, n):
    """A Hellinger report as the ``hellinger``/``divergence`` commands build it."""
    report = gw.log_hellinger_bounds(params, lam, omega0, n)
    closed = []
    # the closed forms do not cover SP4 (lower) and SP3d/SP4 (upper); any
    # other CaseError is a failure of the query
    for fn, uncovered in ((gw.closed_form_log_lower, ("SP4",)),
                          (gw.closed_form_log_upper, ("SP3d", "SP4"))):
        try:
            closed.append(fn(params, lam, omega0, n))
        except gw.CaseError:
            if report.case.value not in uncovered:
                raise
            closed.append(None)
    return (report, *closed,
            gw.divergence_from_log_hellinger(report.log_upper, lam),
            gw.divergence_from_log_hellinger(report.log_lower, lam))


def run_limit(gw, sde, lam, t):
    return (*gw.limit_log_bounds(sde, lam, t), gw.limit_entropy(sde, t))


def run_profile(gw, params, lam, omega0, n):
    profile = gw.enum_log_hellinger_profile(params, lam, omega0, n)
    return profile, [gw.log_hellinger_bounds(params, lam, omega0, k) for k in range(1, n + 1)]


def run_atoms(gw, params, lam, omega0, n, cfg):
    return (gw.enum_bayes_risk(params, omega0, n, cfg),
            gw.bayes_risk_bounds(params, lam, omega0, n, cfg),
            gw.enum_np_type2(params, omega0, n, cfg.level),
            gw.np_type2_bound(params, lam, omega0, n, cfg),
            gw.enum_relative_entropy(params, omega0, n),
            gw.entropy_report(params, omega0, n))


def run_mc(gw, params, lam, omega0, n, reps, seed):
    return (gw.mc_log_hellinger(params, lam, omega0, n, reps, seed),
            gw.log_hellinger_bounds(params, lam, omega0, n))


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


#: what the ``gwidiv`` console script runs
CLI_MAIN = "import sys; from gwidiv.cli import main; sys.exit(main())"

#: a single CLI call that takes longer than this is a failure
CLI_TIMEOUT_S = 60


def run_cli(gw, argv, expect, root):
    """One fresh ``gwidiv`` process; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], cwd=root, env=cli_env(root),
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_cli_inproc(gw, argv, expect, root):
    """``gwidiv.cli.main(argv)`` in this process, after import."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gw.cli.main(argv)
    return code, out.getvalue()


RUNNERS = {
    "hellinger": run_hellinger,
    "entropy": lambda gw, params, omega0, n: gw.entropy_report(params, omega0, n),
    "bayes": lambda gw, params, lam, omega0, n, cfg: gw.bayes_risk_bounds(params, lam, omega0, n, cfg),
    "np": lambda gw, params, lam, omega0, n, cfg: gw.np_type2_bound(params, lam, omega0, n, cfg),
    "optimize": lambda gw, params, omega0, n, cfg: gw.optimize_bayes_upper(params, omega0, n, cfg),
    "horizon": run_hellinger,
    "prelimit": lambda gw, sde, lam, t, m, x0: gw.prelimit_log_bounds(sde, lam, t, m, x0),
    "limit": run_limit,
    "profile": run_profile,
    "atoms": run_atoms,
    "mc": run_mc,
    "cli": run_cli,
    "cli_inproc": run_cli_inproc,
}


# ------------------------------------------------------------------- checks


def check_cli(result, argv, expect, root) -> list[str]:
    code, stdout = result
    if code != expect:
        return [f"exit code {code}, expected {expect}"]
    command = argv[0]
    if command == "sweep":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[:1] != [["lambda", "case", "log_lower", "log_upper", "log_exact"]] or len(rows) != 10:
            return [f"sweep: unexpected CSV {rows[:2]}"]
        return [p for row in rows[1:]
                for p in checks.check_order("sweep", float(row[2]), float(row[3]), 0.0)]
    payload = json.loads(stdout)
    if expect:
        return [] if payload.get("error", {}).get("code") == expect else [f"error payload {payload}"]
    if payload.get("command") != command:
        return [f"command field {payload.get('command')!r}"]
    if command in ("hellinger", "verify") and "log_lower" in payload:
        problems = checks.check_order(command, payload["log_lower"], payload["log_upper"], 0.0)
        return problems + ([] if payload.get("status", "PASS") == "PASS" else ["verify: FAIL"])
    if command == "verify":
        return [] if payload["status"] == "PASS" else ["verify: FAIL"]
    if command == "divergence":
        return checks.check_order("divergence", 0.0, payload["power_divergence_lower"],
                                  payload["power_divergence_upper"])
    if command == "entropy":
        return checks.check_order("entropy", 0.0, payload["lower"], payload["upper"])
    if command == "diffusion":
        return (checks.check_order("diffusion", payload["log_limit_lower"], payload["log_limit_upper"], 0.0)
                + checks.check_order("prelimit", payload["log_prelimit_lower"],
                                     payload["log_prelimit_upper"], 0.0))
    if command == "bayes":
        return checks.check_order("bayes", 0.0, payload["bayes_risk_lower"], payload["bayes_risk_upper"])
    if command == "nptest":
        return checks.check_np(payload["type2_error_bound"])
    if command == "simulate":
        return [] if payload["std_error_log"] >= 0.0 else ["simulate: negative standard error"]
    return [] if "case" in payload else [f"{command}: no case in {payload}"]


CHECKS = {
    "hellinger": lambda r, *a: checks.check_hellinger(r),
    "entropy": lambda r, *a: checks.check_entropy(r),
    "bayes": lambda r, params, lam, omega0, n, cfg: checks.check_bayes(r, cfg),
    "np": lambda r, *a: checks.check_np(r),
    "optimize": lambda r, params, omega0, n, cfg: checks.check_optimize(r, cfg),
    "horizon": lambda r, *a: checks.check_hellinger(r),
    "prelimit": lambda r, *a: checks.check_order("prelimit", r[0], r[1], 0.0),
    "limit": lambda r, *a: checks.check_limit(r),
    "profile": lambda r, *a: checks.check_profile(*r),
    "atoms": lambda r, *a: checks.check_atoms(r),
    "mc": lambda r, *a: checks.check_mc(r),
    "cli": check_cli,
    "cli_inproc": check_cli,
}


# ----------------------------------------------------------------- builders


def _decision(gw, args):
    loss_a, loss_h, prior_h, level = args
    return gw.DecisionConfig(loss_a=loss_a, loss_h=loss_h, prior_h=prior_h, level=level)


#: gap strata whose constellations also get an optimize_bayes_upper query:
#: 32 per cycle (3.4 %), enough for the tail percentile to fall among them.
#: The smallest gaps are left out: there one 99-lambda optimize runs for
#: seconds (SP3d delta scans), and the total would swing with the seed.
OPTIMIZE_STRATA = (9, 11, 13, 15)


def desk_atlas(gw, data) -> list[Query]:
    queries = []
    for item in data["constellations"]:
        params = gw.ParamSet(*item["params"])
        cfg = _decision(gw, item["decision"])
        omega0, (n1, n2) = item["omega0"], item["ns"]
        for j, lam in enumerate(item["lams"]):
            queries.append(Query("hellinger", (params, lam, omega0, (n1, n2)[j % 2])))
        queries.append(Query("entropy", (params, omega0, n2)))
        queries.append(Query("bayes", (params, item["lams"][0], omega0, n1, cfg)))
        queries.append(Query("np", (params, item["lams"][1], omega0, n2, cfg)))
        if item["stratum"] in OPTIMIZE_STRATA:
            queries.append(Query("optimize", (params, omega0, n1, cfg)))
    return queries


#: horizons of the long Hellinger reports, one query each (the points of a
#: ``sweep --axis n``), and of the entropy queries
HORIZON_NS = (1000, 10_000)
ENTROPY_NS = (100, 300, 1000)

#: constellations whose reports also run to LONGEST_N: the cases whose
#: bounds take one recursion (12 reports, 35-70 ms each on a 2-vCPU Xeon
#: VM) and one supercritical bound case (several recursions, 0.1-0.3 s).
#: The cycle then stays near a second, so every query runs 14 or more times
#: in a 20-s run, and the tail percentile (ten queries beyond it) falls
#: among the one-recursion reports at 1e5, whose cost the case and n fix.
LONGEST_N = 100_000
LONGEST_CASES = ("NI", "SP1", "SP4", "SP2-super")


def long_horizon(gw, data) -> list[Query]:
    queries = []
    for item in data["constellations"]:
        params = gw.ParamSet(*item["params"])
        ns = HORIZON_NS + ((LONGEST_N,) if item["case"] in LONGEST_CASES else ())
        queries += [Query("horizon", (params, lam, item["omega0"], n))
                    for lam in item["lams"] for n in ns]
        queries += [Query("entropy", (params, item["omega0"], n)) for n in ENTROPY_NS]
    # the entropy lower bound is known to overtake the upper bound here
    queries.append(Query("entropy", (gw.ParamSet(1.1412442533744493, 0.9273376114944971,
                                                 0.6419940810377196, 0.6419940810377196), 10, 500)))
    for item in data["diffusions"]:
        sde = gw.SDEParams(*item["sde"])
        for m in inputs.m_grid(item["sde"]):
            x0_count = max(1, round(m * sde.x0_tilde))
            queries.append(Query("prelimit", (sde, item["lam"], item["t"], m, x0_count)))
        queries.append(Query("limit", (sde, item["lam"], item["t"])))
    return queries


MC_REPS, MC_N = 10_000, 5


def oracle_certify(gw, data) -> list[Query]:
    queries = []
    for item in data["constellations"]:
        params = gw.ParamSet(*item["params"])
        lam, omega0 = item["lam"], item["omega0"]
        queries.append(Query("profile", (params, lam, omega0, inputs.PROFILE_N)))
        queries.append(Query("atoms", (params, lam, *item["atoms"], _decision(gw, item["decision"]))))
        queries.append(Query("mc", (params, lam, omega0, MC_N, MC_REPS, item["mc_seed"])))
    return queries


CLI_COMMANDS = ("classify", "hellinger", "divergence", "entropy", "diffusion", "bayes",
                "nptest", "verify", "simulate", "sweep")


def cli_queries(seed: int, root: str) -> list[Query]:
    """The CLI calls of a traced run: each as a fresh ``gwidiv`` process, then
    each as ``gwidiv.cli.main(argv)`` in this process."""
    calls = [Query("cli", (call["argv"], call["expect"], root))
             for call in inputs.cli_calls(seed)["calls"]]
    return calls + [Query("cli_inproc", q.args) for q in calls]


def build(gw, workload: str, seed: int) -> list[Query]:
    data = inputs.GENERATORS[workload](seed)
    return {"desk-atlas": desk_atlas, "long-horizon": long_horizon,
            "oracle-certify": oracle_certify}[workload](gw, data)
