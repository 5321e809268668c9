"""Checks of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import inputs  # noqa: E402


def test_seed_reproduces_inputs():
    for name, generate in [*inputs.GENERATORS.items(), ("cli", inputs.cli_calls)]:
        assert generate(7) == generate(7), name
        assert generate(7) != generate(8), name


def test_generated_cases_match_the_library():
    import gwidiv

    data = inputs.desk_atlas(3)["constellations"] + inputs.oracle_certify(3)["constellations"]
    for item in data:
        assert gwidiv.classify(gwidiv.ParamSet(*item["params"]), 0.5).value == item["case"]


def test_edge_families():
    data = inputs.long_horizon(5)
    cases = {item["case"]: item["params"] for item in data["constellations"]}
    assert all(cases[c + "-super"][0] > 1.0 for c in ("SP2", "SP3b", "SP3c"))
    assert 0.0 < abs(cases["near-one"][0] - 1.0) <= 1e-3
    assert all(max(inputs.m_grid(d["sde"])) == 10**8 for d in data["diffusions"])


def test_oracle_work_is_nearly_seed_independent():
    work = []
    for seed in range(1, 6):
        items = inputs.oracle_certify(seed)["constellations"]
        work.append(sum(sum(inputs._oracle_work(it["params"], it["lam"], it["omega0"], it["atoms"]))
                        for it in items))
    assert max(work) / min(work) < 1.15


def test_check_order_allowance():
    assert checks.check_order("x", -1.0, -1.0 + 1e-14, 0.0) == []
    assert checks.check_order("x", -1.0 + 1e-14, -1.0, 0.0) == []
    assert checks.check_order("x", -1.0 + 1e-9, -1.0, 0.0) != []
    assert checks.check_order("x", float("nan"), 0.0) != []


def test_known_defects_are_matched_by_kind():
    error = "prelimit: order violated (-0.7960745068097834, -0.796244351734107, 0.0)"
    assert checks.known_defect("prelimit", [error])
    assert not checks.known_defect("hellinger", [error])
    assert not checks.known_defect("prelimit", [error, "limit bounds: order violated (0, 1)"])
    assert not checks.known_defect("profile", ["oracle k=2: enclosure [0.5, 0.6] misses [0.7, 0.8]"])


def test_failures_count_inputs_not_repetitions():
    import gwidiv
    import worker
    import workloads

    queries = [workloads.Query("prelimit", (gwidiv.SDEParams(0.5, 2.0, 1.0, 1.0, 1.0),
                                            0.5, 1.0, 10**8, 10**8)),
               workloads.Query("np", (gwidiv.ParamSet(0.5, 0.25, 0.0, 0.0), 0.5, 3, 5,
                                      gwidiv.DecisionConfig()))]
    loop = worker.Loop(gwidiv, queries, workloads.RUNNERS, workloads.CHECKS)
    loop.run_cycles(3)
    assert (loop.calls, loop.attempted, loop.failed) == (6, 2, 1)
    assert [(f["count"], f["known"]) for f in loop.failures.values()] == [(3, True)]


def test_reference_matches_library_on_exact_cases():
    import gwidiv

    args = (0.5, 0.25, 0.0, 0.0)
    value = gwidiv.exact_log_hellinger(gwidiv.ParamSet(*args), 0.5, 3, 20)
    assert abs(value - checks.reference_log_hellinger(args, 0.5, 3, 20)) <= 1e-13 * abs(value)


def test_traced_call_counts_repeat_exactly():
    import gwidiv
    import gwidiv.cli  # noqa: F401
    import tracer
    import workloads

    queries = workloads.build(gwidiv, "desk-atlas", 4)[::20]
    tr = tracer.Tracer()
    assert tracer.install(tr) > 50
    counts = []
    for _ in range(2):
        tr.stats.clear()
        for query in queries:
            workloads.RUNNERS[query.kind](gwidiv, *query.args)
        counts.append({name: st[0] for name, st in tr.stats.items()})
    assert counts[0] == counts[1]
    assert counts[0]["recursions.log_hellinger_bounds"] > 0


def test_tail_percentile_leaves_ten_beyond():
    import worker

    for count in (22, 96, 222, 940):
        values = [float(i) for i in range(count)]
        tail = worker.percentile(values, worker.tail_percentile(count))
        assert sum(v > tail for v in values) == worker.TAIL_BEYOND
    assert worker.tail_percentile(12) == 50.0
