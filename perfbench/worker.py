"""Benchmark worker: one workload, one process, one thread, closed loop.

Started by ``run.py`` with single-thread BLAS settings.  Two modes:

``--setup-only``
    Time the imports of numpy, scipy.special, scipy.stats and gwidiv one
    after another, generate the workload's inputs, print the timings and
    exit.  ``run.py`` times whole processes of this kind for ``setup_s``.

default
    Import, generate, then run the workload's query cycle.  With
    ``--trace 0`` the loop runs for ``--seconds`` and the end-to-end numbers
    are taken; with ``--trace 1`` the same whole cycles run untraced and then
    traced, and the per-layer numbers are taken from the traced pass.  The
    tracing overhead compares each query's best time in the two passes.
    Every traced run also makes the seed's CLI calls, each as a fresh
    process and in process, for the cli layer's numbers.

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_timed() -> tuple[dict, object]:
    """Import the stack one layer after another; returns (ms per layer, gwidiv)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    times = {}
    start = time.perf_counter()
    import numpy  # noqa: F401

    times["numpy_ms"] = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    import scipy.special  # noqa: F401

    times["scipy_special_ms"] = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    import scipy.stats  # noqa: F401

    times["scipy_stats_ms"] = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    import gwidiv
    import gwidiv.cli  # noqa: F401

    times["gwidiv_ms"] = (time.perf_counter() - start) * 1e3
    if not os.path.abspath(gwidiv.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"gwidiv imported from {gwidiv.__file__}, not from this checkout")
    return times, gwidiv


#: the tail percentile is the highest that has at least this many queries
#: beyond it (but not below the median: the CLI cycle has only 12 queries)
TAIL_BEYOND = 10


def tail_percentile(count: int) -> float:
    """Highest percentile of ``count`` sorted values with TAIL_BEYOND beyond it."""
    if count <= 2 * TAIL_BEYOND + 1:
        return 50.0
    return 100.0 * (count - 1 - TAIL_BEYOND) / (count - 1)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = round(pct / 100.0 * (len(sorted_values) - 1), 9)  # whole ranks stay whole
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Loop:
    """Runs queries in a closed loop and keeps latencies and failures.

    A query fails when the library refuses it with a typed ``GWIError``,
    when its result fails a check (a wrong number), or when it raises
    anything else (a crash).  Every failing input is listed once, with the
    number of times it failed; ``attempted`` and ``failed`` count inputs, not
    repetitions, so they are exact for a seed whatever the run's length.
    """

    def __init__(self, gw, queries, runners, check_fns):
        self.gw, self.queries, self.runners, self.checks = gw, queries, runners, check_fns
        self.latencies: dict[str, list[float]] = {}
        self.durations: list[list[float]] = [[] for _ in queries]
        self.ok: list[bool] = [True] * len(queries)
        self.calls = 0
        self.failures: dict[int, dict] = {}
        self.outcomes = {"refused": 0, "wrong": 0, "crashed": 0}

    def one(self, index: int, tracer=None) -> None:
        query = self.queries[index]
        run = self.runners[query.kind]
        self.calls += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = run(self.gw, *query.args)
            else:
                tracer.query = self.calls
                result = tracer.call("query." + query.kind, run, (self.gw, *query.args), {})
        except self.gw.GWIError as exc:
            outcome, problems = "refused", [f"{type(exc).__name__}: {exc}"]
        except Exception as exc:
            outcome, problems = "crashed", [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            self.durations[index].append(elapsed)
            problems = self.checks[query.kind](result, *query.args)
            if not problems:
                self.latencies.setdefault(query.label, []).append(elapsed)
                return
            outcome = "wrong"
        if outcome != "wrong":
            self.durations[index].append(time.perf_counter() - start)
        self.ok[index] = False
        self.outcomes[outcome] += 1
        entry = self.failures.setdefault(index, {"query": query.describe(), "count": 0})
        entry.update(outcome=outcome, error="; ".join(problems), count=entry["count"] + 1,
                     known=outcome != "crashed" and checks.known_defect(query.kind, problems))

    @property
    def attempted(self) -> int:
        """Distinct inputs run; every run covers the whole cycle at least once."""
        return len(self.queries)

    @property
    def failed(self) -> int:
        """Distinct inputs that failed at least once."""
        return len(self.failures)

    def run_for(self, seconds: float) -> float:
        """Cycle through the queries for ``seconds``, and at least once."""
        start = time.perf_counter()
        index = cycles = 0
        while cycles == 0 or time.perf_counter() - start < seconds:
            self.one(index)
            index += 1
            if index == len(self.queries):
                index, cycles = 0, cycles + 1
        return time.perf_counter() - start

    def run_cycles(self, cycles: int, tracer=None) -> float:
        start = time.perf_counter()
        for _ in range(cycles):
            for index in range(len(self.queries)):
                self.one(index, tracer)
        return time.perf_counter() - start


def warm_up(gw, queries, runners) -> None:
    """One query of each kind, untimed: lazy imports and first-call costs."""
    seen = set()
    for query in queries:
        if query.kind not in seen:
            seen.add(query.kind)
            try:
                runners[query.kind](gw, *query.args)
            except gw.GWIError:
                pass


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(loop: Loop, elapsed: float, panel: dict) -> dict:
    """Timing metrics from each query's best time over its repetitions.

    Every query of the cycle runs several times in a run, spread over the
    whole run.  On a shared machine a query can run up to 1.9x slower than
    its best while the other vCPU is busy, in bursts of milliseconds to
    seconds (seen on a 2-vCPU Xeon VM); the best of a query's repetitions is
    what the program itself costs, and is what stays put from run to run
    (as with ``timeit``).  Throughput is the cycle's query count over the
    sum of those times.  The latency percentiles are over the best times of
    every query of the cycle, failed ones included at their measured time:
    the sample is then the same set of queries for every seed, so the tail
    percentile does not move between groups of queries when a seed's known
    defects drop a few.  Failures are counted in ``fail_share``.
    """
    if not any(loop.ok):
        raise SystemExit("no query succeeded")
    best = sorted(min(d) for d in loop.durations)
    pct = tail_percentile(len(best))
    tail = percentile(best, pct)
    metrics = {
        "throughput_qps": (len(best) / sum(best), "1/s"),
        "latency_p50_ms": (percentile(best, 50.0) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    units = {"log_gap_per_step": "nats", "log_gap_per_step_long": "nats",
             "entropy_rel_gap": "ratio", "entropy_rel_gap_long": "ratio",
             "exact_rel_err_max": "ratio", "oracle_rel_err_max": "ratio"}
    for name, value in panel.items():
        metrics[name] = (value, units[name])
    return {"metrics": metrics,
            "tail": {"percentile": pct, "samples": len(best), "beyond": sum(t > tail for t in best),
                     "repetitions": min(len(d) for d in loop.durations)},
            "observed_qps": loop.calls / elapsed,
            "per_kind_p50_ms": {k: percentile(sorted(v), 50.0) * 1e3
                                for k, v in sorted(loop.latencies.items())}}


def run_traced(gw, loop: Loop, cli_loop: Loop, seconds: float, workload: str, seed: int) -> dict:
    """Per-layer metrics: the workload's cycle untraced, then traced; then the
    CLI calls of ``cli_loop``, untraced for their latencies and, in process,
    traced for the cli layer's share of their time."""
    import tracer as tracing

    cli_loop.run_cycles(1)
    first = loop.run_cycles(1)
    # each pass takes about a quarter of --seconds untraced: a traced pass
    # runs up to 3x slower, and the run must end within its time budget
    cycles = max(1, round(seconds / 4.0 / first))
    if cycles > 1:
        loop.run_cycles(cycles - 1)
    # every call of a query adds one duration, so the first ``cycles`` are untraced
    untraced = sum(min(d) for d in loop.durations)

    keep = ("recursions.log_hellinger_bounds", "closed_form.closed_form_log_lower",
            "closed_form.closed_form_log_upper", "entropy.entropy_upper",
            "decisions.optimize_bayes_upper", "diffusion.prelimit_log_bounds",
            "diffusion.limit_log_bounds", "oracle.enum_log_hellinger_profile",
            "oracle.path_law_atoms")
    tr = tracing.Tracer(keep_durations=keep)
    tracing.install(tr)
    loop.run_cycles(cycles, tr)
    traced = sum(min(d[cycles:]) for d in loop.durations)

    queries = cycles * len(loop.queries)
    stats = {name: list(st) for name, st in tr.stats.items()}
    zero = [0, 0.0, 0.0, 0, 0]

    def st(name):
        return stats.get(name, zero)

    def per_query(value):
        return value / queries

    def self_ms(prefix):
        return per_query(sum(v[2] for k, v in stats.items() if k.startswith(prefix)) * 1e3)

    layer_time = sum(v[1] for k, v in stats.items() if k.startswith("query."))
    m = {}
    for name in ("params.classify", "params.phi_eval", "recursions.select_coeffs",
                 "fixed_point.solve_fixed_point", "entropy.secant_component",
                 "entropy.tangent_component"):
        m[f"{name}.calls_per_query"] = (per_query(st(name)[0]), "calls/query")
    m["params.self_ms"] = (self_ms("params."), "ms")
    for name in ("recursions.select_coeffs", "recursions.sp3d_log_delta",
                 "fixed_point.solve_fixed_point", "entropy.entropy_lower",
                 "decisions.bayes_risk_bounds", "decisions.np_type2_bound"):
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    m["oracle.enum.self_ms"] = (self_ms("oracle.enum_"), "ms")
    for name in ("recursions.log_hellinger_bounds", "closed_form.closed_form_log_lower",
                 "closed_form.closed_form_log_upper", "entropy.entropy_upper",
                 "diffusion.prelimit_log_bounds", "diffusion.limit_log_bounds"):
        m[f"{name}.p50_us"] = (tr.p50(name) * 1e6, "us")
    for name in ("decisions.optimize_bayes_upper", "oracle.enum_log_hellinger_profile",
                 "oracle.path_law_atoms"):
        m[f"{name}.p50_ms"] = (tr.p50(name) * 1e3, "ms")
    rec = st("recursions.run_recursion")
    m["recursions.run_recursion.steps"] = (per_query(rec[4]), "steps/query")
    m["recursions.run_recursion.ns_per_step"] = (rec[1] / rec[4] * 1e9 if rec[4] else 0.0, "ns")
    atoms = st("oracle.path_law_atoms")
    m["oracle.path_law_atoms.atoms"] = (atoms[4] / atoms[0] if atoms[0] else 0.0, "atoms/call")
    mc = st("oracle.mc_log_hellinger")
    m["oracle.mc_log_hellinger.paths_per_s"] = (mc[4] / mc[1] if mc[1] else 0.0, "1/s")
    for name in ("diffusion.prelimit_log_bounds", "entropy.entropy_report"):
        m[f"{name}.failed"] = (per_query(st(name)[3]), "calls/query")
    for layer in (layer for layer in tracing.LAYERS if layer != "cli"):
        share = sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))
        m[f"{layer}.self_share"] = (share / layer_time if layer_time else 0.0, "ratio")
    m["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")

    from workloads import CLI_COMMANDS
    for command in CLI_COMMANDS:
        for kind, suffix in (("cli", "wall_ms_p50"), ("cli_inproc", "inproc_ms_p50")):
            values = sorted(cli_loop.latencies.get(f"{kind}:{command}", ()))
            m[f"cli.{command}.{suffix}"] = (percentile(values, 50.0) * 1e3 if values else 0.0, "ms")
    for index, query in enumerate(cli_loop.queries):
        if query.kind == "cli_inproc":
            cli_loop.one(index, tr)

    def added(prefix, field):
        return sum(v[field] - stats.get(k, zero)[field]
                   for k, v in tr.stats.items() if k.startswith(prefix))

    inproc_time = added("query.cli_inproc", 1)
    m["cli.self_share"] = (added("cli.", 2) / inproc_time if inproc_time else 0.0, "ratio")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, f"trace-{workload}-{seed}.jsonl")
    tr.write(span_file)
    return {"metrics": m, "cycles": cycles, "queries_traced": queries,
            "spans_kept": len(tr.spans), "spans_not_kept": tr.dropped,
            "span_file": os.path.relpath(span_file, ROOT)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_ms, gw = _import_timed()
    import workloads

    start = time.perf_counter()
    queries = workloads.build(gw, args.workload, args.seed)
    random.Random(f"order:{args.seed}").shuffle(queries)
    generate_ms = (time.perf_counter() - start) * 1e3
    if args.setup_only:
        print(json.dumps({"import_ms": import_ms, "generate_ms": generate_ms,
                          "queries": len(queries)}))
        return 0

    loop = Loop(gw, queries, workloads.RUNNERS, workloads.CHECKS)
    warm_up(gw, queries, workloads.RUNNERS)
    panel, panel_problems = checks.quality_panel(gw)
    loops = [loop]
    if args.trace:
        loops.append(Loop(gw, workloads.cli_queries(args.seed, ROOT), workloads.RUNNERS,
                          workloads.CHECKS))
        result = run_traced(gw, loop, loops[1], args.seconds, args.workload, args.seed)
    else:
        elapsed = loop.run_for(args.seconds)
        result = end_to_end(loop, elapsed, panel)
    failures = [f for each in loops for f in each.failures.values()]
    result.update({
        "attempted": sum(each.attempted for each in loops),
        "failed": sum(each.failed for each in loops),
        "outcomes": {k: sum(each.outcomes[k] for each in loops) for k in loop.outcomes},
        "panel_problems": panel_problems,
        "calls": sum(each.calls for each in loops),
        "correct": not panel_problems and all(f["known"] for f in failures),
        "failures": sorted(failures, key=lambda f: f["query"]),
        "cycle_queries": len(queries),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
