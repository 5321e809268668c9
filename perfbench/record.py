"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --out perfbench/baseline.json

For each workload it makes ``RUNS`` untraced runs, with seeds 1 to ``RUNS``,
and one traced run, all through ``run.py`` one after another.  Per metric it
records the median and the spread, the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
and flags a spread above a third of the metric's bound in BENCHMARK.json.
The record also names the machine and the library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import checks
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: untraced runs per workload
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy, mpmath; "
         "print(numpy.__version__, scipy.__version__, mpmath.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": versions[0], "scipy": versions[1],
            "mpmath": versions[2], "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"note": f"End-to-end medians and spreads of {RUNS} untraced runs (seeds 1-{RUNS}) "
                      "per workload, made one after another on the machine named in "
                      "'environment', and the per-layer metrics of one traced run (seed 1). "
                      "Spread is the interquartile range over the median; 'steady' marks a "
                      "spread below a third of the metric's bound in BENCHMARK.json.",
              "environment": environment(), "run_seconds": spec["run_seconds"],
              "runs_per_workload": RUNS,
              "checks": {"rel_allowance": checks.REL_ALLOWANCE, "mc_sigmas": checks.MC_SIGMAS,
                         "reference_digits": checks.REFERENCE_DPS},
              "tail_beyond": worker.TAIL_BEYOND, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = list(range(1, RUNS + 1))
        results = [run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {"seeds": seeds, "attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "correct": all(r["correct"] for r in results), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "median": median, "spread": spread, "unit": results[0]["metrics"][name]["unit"],
                "steady": spread < bound / 3.0, "values": values}
            print(f"{workload:15s} {name:20s} median {median:<12.6g} spread {spread:.4f}"
                  f" (bound {bound})  {' '.join(f'{v:.4g}' for v in values)}", flush=True)
        traced = run(workload, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        record["workloads"][workload] = entry
        with open(args.out, "w") as out:  # after each workload, so a failure keeps the rest
            json.dump(record, out, indent=1, sort_keys=True)
            out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
