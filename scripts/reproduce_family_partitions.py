#!/usr/bin/env python3
"""Build and verify the closed-form DIM partitions of the subset families.

Usage:
    python3 scripts/reproduce_family_partitions.py [--max-r 6] [--max-bg 5]

Prints one table row per construction: graph size, class count, class
size, and the verification verdicts (every class a DIM, class count
d(u)+d(v)-1, regularity, list-assignment properties).  A construction
whose classes are not all DIMs, or whose class count is wrong, has its
row printed and ends the run with exit code 1.
"""

from __future__ import annotations

import argparse
import sys
import time

from dimtools.families import bg_dim_partition, kneser_dim_partition
from dimtools.partition import (
    check_kneser_isomorphism,
    list_assignment,
    verify_dim_partition,
    verify_list_properties,
)
from dimtools.solver import classify_dim


def describe(name, lg, p):
    g = lg.graph
    report = verify_dim_partition(g, p)
    classes_valid = all(classify_dim(g, c).is_valid for c in p.classes)
    sizes = sorted({len(c) for c in p.classes})
    row = (
        f"{name:<14} n={g.n:<4} m={g.m:<5} classes={p.num_classes:<3} "
        f"class-size={'/'.join(map(str, sizes)):<4} "
        f"valid={report.valid} count-ok={report.class_count_ok} "
        f"{report.regularity:<9} "
    )
    # The list assignment is defined only for a partition into DIMs.
    if not (report.valid and report.class_count_ok and classes_valid):
        print(row)
        sys.exit(f"{name}: closed-form partition failed verification")
    a = list_assignment(g, p)
    lists = verify_list_properties(g, a)
    row += (
        f"lists(disjoint={lists.disjointness},onto={lists.surjective},"
        f"equal={lists.equal_fibers})"
    )
    if report.regularity == "regular":
        row += f" extremal={check_kneser_isomorphism(g, a)}"
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-r", type=int, default=6)
    parser.add_argument("--max-bg", type=int, default=5)
    args = parser.parse_args()

    t0 = time.perf_counter()
    for r in range(2, args.max_r + 1):
        lg, p = kneser_dim_partition(r)
        print(describe(f"KG({2 * r - 1},{r - 1})", lg, p))
    for r in range(2, args.max_bg + 1):
        for s in range(2, args.max_bg + 1):
            lg, p = bg_dim_partition(r, s)
            print(describe(f"BG({r - 1},{s - 1})", lg, p))
    print(f"all constructions verified in {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
