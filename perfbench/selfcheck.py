#!/usr/bin/env python3
"""Quick self-check of the benchmark harness on cut-down inputs.

Run from the repository root:  python3 perfbench/selfcheck.py

It runs every workload on small inputs, untraced and traced, and checks
that the metric names and units match BENCHMARK.json, that each failure
kind (budget, limit, error) is counted as a failure, and that a wrong
answer is caught.  It takes about ten seconds and is not part of the
repository's test suite.
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

import run
import tracing
from oracle import WrongAnswer
from workloads import WORKLOADS

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def metric_table(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def check_workload(name: str) -> set:
    meter = run.Meter()
    result = run.run_workload(name, seed=7, seconds=0.2, trace=False, meter=meter, quick=True)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == metric_table("end_to_end"), (name, got)
    assert result["correct"] and result["attempted"] == len(meter.wall) >= 1
    traced = run.run_workload(name, seed=7, seconds=0.2, trace=True, meter=run.Meter(), quick=True)
    got = {k: v["unit"] for k, v in traced["metrics"].items()}
    assert got == metric_table("per_layer"), (name, sorted(set(got) ^ set(metric_table("per_layer"))))
    return {run.Meter.KINDS[k] for k in meter.kind}


def expect_wrong(check, result) -> None:
    try:
        check(result)
    except WrongAnswer:
        return
    raise AssertionError("a wrong answer was accepted")


def check_wrong_answers() -> None:
    dt = run.import_fresh()
    for name, wrong in (
        ("family-search", frozenset()),
        ("partition-search", None),
        ("closed-form", "not the answer"),
    ):
        wl = WORKLOADS[name](dt, 7, True)
        wl.prepare({})
        ops = wl.ops(0)
        if name == "partition-search":
            ops = [op for op in ops if op[0].startswith("Petersen")]
        expect_wrong(ops[0][3], wrong)
    sweep = WORKLOADS["sweep"](dt, 7, True)
    sweep.prepare(json.loads((run.HERE / "sweep_reference.json").read_text()))
    ops = sweep.ops(0)
    # Graph 0 is K1, whose only DIM is empty; the report for K2 says size 1.
    expect_wrong(ops[0][3], dt.full_report(sweep.graphs[1], dt.Budgets()))


def check_failure_kinds() -> None:
    def recurse():
        raise RecursionError("maximum recursion depth exceeded")

    def budget():
        raise dt.SearchBudgetExceeded("exceeded search budget of 1 nodes")

    dt = run.import_fresh()
    fake = SimpleNamespace(dt=dt, limit_s=0.05, finish_pass=lambda: None)
    ops = [("error", recurse, (), None), ("budget", budget, (), None), ("limit", time.sleep, (1.0,), None)]
    meter = run.Meter()
    run.run_pass(fake, ops, meter)
    assert [run.Meter.KINDS[k] for k in meter.kind] == ["error", "budget", "limit"], meter.kind
    assert meter.wall[2] < 0.5, "the wall limit did not interrupt the op"


def main() -> int:
    assert [m["name"] for m in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == tracing.metric_specs()
    kinds = {}
    for name in WORKLOADS:
        kinds[name] = check_workload(name)
    assert kinds["family-search"] >= {None, "budget"}, kinds
    assert kinds["partition-search"] >= {None, "limit"}, kinds
    assert kinds["sweep"] == kinds["closed-form"] == {None}, kinds
    check_wrong_answers()
    check_failure_kinds()
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
