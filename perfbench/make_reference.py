#!/usr/bin/env python3
"""Write sweep_reference.json: the pass/fail/na/error tally of full_report.

Run from the repository root as ``python3 perfbench/make_reference.py``
at the commit whose answers are the reference.  The sweep workload
compares every complete pass against these tallies, so a change to the
program must leave them as they are; regenerate only when the checks
themselves are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import dimtools  # noqa: E402
from workloads import add_to_tally, empty_tally  # noqa: E402


def tally(graphs) -> dict:
    out = empty_tally()
    for g in graphs:
        add_to_tally(out, dimtools.full_report(g, dimtools.Budgets()))
    return out


def main() -> None:
    corpora = {}
    for max_n in (4, 6):
        corpora[f"exhaustive-{max_n}"] = tally(
            g for n in range(1, max_n + 1) for g in dimtools.connected_graphs(n)
        )
    for n, count in ((6, 50), (8, 1000)):
        corpora[f"sample-{n}-{count}-42"] = tally(dimtools.sample_connected_graphs(n, count, 42))
    (HERE / "sweep_reference.json").write_text(json.dumps(corpora, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
