"""gwidiv benchmark entry point.

    python3 perfbench/run.py --workload desk-atlas --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: desk-atlas, long-horizon,
oracle-certify (see BENCHMARK.json for why each exists).  The
program under test is the checkout's ``src/gwidiv``; nothing is installed.

This launcher imports no numeric code.  It byte-compiles the sources, starts
``SETUP_RUNS`` fresh set-up processes (import plus input generation; the
median wall time is ``setup_s``), then one worker process that runs the
workload (``worker.py``).  Its children get single-thread BLAS settings.
It prints a readable report and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exit code 0
means a result was printed; anything else prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("desk-atlas", "long-horizon", "oracle-certify")

#: fresh set-up processes per run; setup_s is their median wall time
SETUP_RUNS = 3

#: a run that has not finished after this long is killed and prints no result
RUN_BUDGET_S = 170.0

SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                        "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def _child(args: list[str], timeout: float) -> str:
    """Run a Python child to completion; returns its standard output."""
    env = dict(os.environ, **SINGLE_THREAD)
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"{args[0]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    worker = os.path.join("perfbench", "worker.py")
    _child(["-m", "compileall", "-q", "src/gwidiv", "perfbench"], deadline - time.monotonic())

    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    walls, probes = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        out = _child([worker, *common, "--setup-only"], deadline - time.monotonic())
        walls.append(time.perf_counter() - start)
        probes.append(_last_json(out))
    out = _child([worker, *common], deadline - time.monotonic())
    result = _last_json(out)
    result["setup_walls_s"] = walls
    result["import_ms"] = {key: statistics.median(p["import_ms"][key] for p in probes)
                           for key in probes[0]["import_ms"]}
    metrics = result["metrics"]
    if trace:
        for key, value in result["import_ms"].items():
            metrics[f"import.{key}"] = (value, "ms")
    else:
        metrics["setup_s"] = (statistics.median(walls), "s")
    return result


def check_contract(metrics: dict, trace: int) -> None:
    """The metrics must be exactly those BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_value, unit) in metrics.items()}
    if got != wanted:
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got.items()) ^ set(wanted.items()))}")


def report(result: dict, trace: int) -> None:
    attempted, failed = result["attempted"], result["failed"]
    outcomes = ", ".join(f"{k} {v}" for k, v in result["outcomes"].items())
    print(f"inputs attempted {attempted}, failed {failed}; fail_share = {failed / attempted:.6f} "
          f"({result['calls']} calls; failed calls: {outcomes})")
    for failure in result["failures"]:
        known = "known defect" if failure["known"] else "NEW"
        print(f"  FAILED ({failure['outcome']}, {known}) x{failure['count']}: {failure['query']}\n"
              f"      -> {failure['error']}")
    for problem in result["panel_problems"]:
        print(f"  PANEL CHECK FAILED: {problem}")
    if not trace:
        tail = result["tail"]
        print(f"latency_tail_ms is p{tail['percentile']:g} over the best times of "
              f"{tail['samples']} queries ({tail['repetitions']}+ runs each), "
              f"{tail['beyond']} beyond it; observed rate {result['observed_qps']:.4g} q/s")
        print(f"set-up wall times (s): {', '.join(f'{w:.3f}' for w in result['setup_walls_s'])}")
        print(f"cycle of {result['cycle_queries']} queries; raw p50 by kind (ms): "
              + ", ".join(f"{k} {v:.4g}" for k, v in result["per_kind_p50_ms"].items()))
    else:
        print(f"traced {result['cycles']} cycle(s), {result['queries_traced']} queries, "
              f"spans in {result['span_file']}")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"{name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gwidiv benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gwidiv", "__init__.py")):
        print(f"gwidiv sources not found under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        check_contract(result["metrics"], args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(result, args.trace)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(result["metrics"].items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
