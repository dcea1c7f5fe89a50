"""Command-line interface.

Exit codes:

* 0 success;
* 1 answered no: no DIM, no partition, a failed check, or a sweep
  counterexample;
* 2 usage or input errors, including a graph file whose header declares
  more than ``io.MAX_VERTICES`` vertices, a ``gen`` family with more
  vertices than that or with more than ``MAX_GEN_ENTRIES`` edges and
  label entries together, and a sweep over no graphs;
* 3 a search ran out of budget: for ``verify`` and ``sweep``, the DIM
  search or any check of any report (this takes precedence over 1);
* 4 internal error: any other exception, reported on one stderr line.

Output is deterministic for fixed arguments and inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, TextIO

from .checks import Budgets, VerificationReport, full_report
from .corpus import connected_graphs, sample_connected_graphs
from .families import (
    LabeledGraph,
    bg_dim_partition,
    bipartite_kneser,
    complete,
    cycle,
    kneser,
    kneser_dim_partition,
    petersen,
    star,
)
from .graph import Graph
from .io import (
    GRAPH_FORMATS,
    MAX_VERTICES,
    parse_graph,
    parse_partition,
    serialize_certificate,
    serialize_graph,
    serialize_labels,
    serialize_partition,
)
from .partition import find_dim_partition, verify_dim_partition
from .solver import DEFAULT_BUDGET, SearchBudgetExceeded, enumerate_dims, find_dim

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# Largest number of edges and label entries together that ``gen``
# builds.  A family allocates about 240 bytes per edge and 60-110 per
# label entry while it is built, whatever the file it writes, so this
# keeps a ``gen`` run under about 400 MB; KG(19,9) with its partition,
# 461 890 edges and 831 402 label entries, fits.
MAX_GEN_ENTRIES = 1_500_000


def _comb(n: int, k: int) -> int:
    # Out-of-range parameters count as small, so the family reports them.
    return math.comb(max(n, 0), max(k, 0))


def _kneser_counts(n: int, k: int) -> tuple[int, int, int]:
    count = _comb(n, k)
    # Each k-subset is disjoint from the k-subsets of its complement.
    return count, count * _comb(n - k, k) // 2, count * max(k, 0)


def _bg_counts(r: int, s: int) -> tuple[int, int, int]:
    # r or s below 2 is the family's own error, not an oversized graph.
    if min(r, s) < 2:
        return 0, 0, 0
    left, right = _comb(r + s - 1, r - 1), _comb(r + s - 1, s - 1)
    # Each (r-1)-subset is disjoint from s of the (s-1)-subsets.
    return left + right, left * s, left * (r - 1) + right * (s - 1)


class _Family(NamedTuple):
    help: str
    params: tuple[str, ...]
    # The vertex, edge and label-entry counts in closed form, checked
    # before anything is built.
    counts: Callable[..., tuple[int, int, int]]
    # A Graph, or a LabeledGraph whose labels --with-labels writes.
    make: Callable
    # The graph with its closed-form DIM partition, if the family has one.
    partition: Optional[Callable] = None


_FAMILIES = {
    "kneser": _Family("disjointness graph of k-subsets", ("n", "k"), _kneser_counts, kneser),
    "kneser-family": _Family(
        "KG(2r-1, r-1), optionally with its DIM partition",
        ("r",),
        lambda r: _kneser_counts(2 * r - 1, r - 1),
        lambda r: kneser(2 * r - 1, r - 1),
        kneser_dim_partition,
    ),
    "bg": _Family(
        "BG(r-1, s-1), optionally with its DIM partition",
        ("r", "s"),
        _bg_counts,
        lambda r, s: bipartite_kneser(r - 1, s - 1),
        bg_dim_partition,
    ),
    "cycle": _Family("cycle graph", ("n",), lambda n: (n, n, 0), cycle),
    "complete": _Family("complete graph", ("n",), lambda n: (n, _comb(n, 2), 0), complete),
    "star": _Family("star graph with k leaves", ("k",), lambda k: (k + 1, k, 0), star),
    "petersen": _Family("the Petersen graph", (), lambda: (10, 15, 0), petersen),
}


def _read(path: str, parse: Callable, *args):
    """``parse`` of a file's text, each error naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text, *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _budget(text: str) -> int:
    """``--budget``: a node count, so any integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid budget {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimtools",
        description="Dominating induced matchings: generate, solve, partition, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate family graphs")
    gen.set_defaults(run=_cmd_gen)
    gen_sub = gen.add_subparsers(dest="family", required=True)
    for name, family in _FAMILIES.items():
        p = gen_sub.add_parser(name, help=family.help)
        for param in family.params:
            p.add_argument(f"--{param}", type=int, required=True)
        p.add_argument("-o", "--output", help="output graph file (default stdout)")
        p.add_argument(
            "--format", choices=GRAPH_FORMATS, default="edgelist",
            help="graph serialization format",
        )
        p.add_argument(
            "--with-labels", action="store_true",
            help="also write the subset-label sidecar (requires -o)",
        )
        if family.partition:
            p.add_argument(
                "--with-partition", action="store_true",
                help="also write the closed-form DIM partition (requires -o)",
            )

    dim = sub.add_parser("dim", help="find, enumerate, or size DIMs")
    dim.set_defaults(run=_cmd_dim)
    dim.add_argument("action", choices=("find", "enum", "size"))
    dim.add_argument("graphfile")
    dim.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    dim.add_argument("--format", choices=GRAPH_FORMATS, default="edgelist")

    part = sub.add_parser("partition", help="find or verify DIM partitions")
    part.set_defaults(run=_cmd_partition)
    part.add_argument("action", choices=("find", "verify"))
    part.add_argument("graphfile")
    part.add_argument("--partition", help="partition file (verify only)")
    part.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    part.add_argument("--format", choices=GRAPH_FORMATS, default="edgelist")

    ver = sub.add_parser("verify", help="run the verification report")
    ver.set_defaults(run=_cmd_verify)
    ver.add_argument("action", choices=("all", "report"))
    ver.add_argument("graphfile")
    ver.add_argument("--max-cycle", type=int, default=Budgets.max_cycle_len)
    ver.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    ver.add_argument("--format", choices=GRAPH_FORMATS, default="edgelist")

    sweep = sub.add_parser("sweep", help="verify every small-graph law on a corpus")
    sweep.set_defaults(run=_cmd_sweep)
    sweep.add_argument("--max-n", type=int, help="exhaustive corpus bound (<= 7)")
    sweep.add_argument("--sample", action="store_true", help="sample mode")
    sweep.add_argument("--n", type=int, help="vertex count in sample mode")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--count", type=int, default=1000)
    sweep.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    sweep.add_argument("--max-cycle", type=int, default=Budgets.max_cycle_len)
    sweep.add_argument("--dump-dir", default=".", help="where counterexamples go")
    return parser


def _cmd_gen(args: argparse.Namespace, out: TextIO) -> int:
    family = _FAMILIES[args.family]
    params = [getattr(args, param) for param in family.params]
    n, m, labels = family.counts(*params)
    for what, count, limit in (
        ("vertex count", n, MAX_VERTICES),
        ("edge and label-entry count", m + labels, MAX_GEN_ENTRIES),
    ):
        if count > limit:
            raise ValueError(f"{args.family}: {what} {count} exceeds the limit of {limit}")
    partition = None
    if getattr(args, "with_partition", False):
        made, partition = family.partition(*params)
    else:
        made = family.make(*params)
    labeled = isinstance(made, LabeledGraph)
    g = made.graph if labeled else made

    if (partition is not None or args.with_labels) and not args.output:
        raise ValueError("--with-partition/--with-labels require -o")
    if args.with_labels and not labeled:
        raise ValueError(f"{args.family} has no subset labels")

    text = serialize_graph(g, args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        if partition is not None:
            Path(args.output + ".partition").write_text(
                serialize_partition(g, partition), encoding="utf-8"
            )
        if args.with_labels:
            Path(args.output + ".labels").write_text(
                serialize_labels(made.labels), encoding="utf-8"
            )
    else:
        out.write(text)
    return EXIT_OK


def _cmd_dim(args: argparse.Namespace, out: TextIO) -> int:
    g = _read(args.graphfile, parse_graph, args.format)
    if args.action == "enum":
        dims = enumerate_dims(g, args.budget)
        out.write(f"dims {len(dims)}\n")
        for d in dims:
            pairs = sorted(g.edges[e] for e in d)
            out.write(" ".join(f"{u}-{v}" for u, v in pairs) + "\n")
        return EXIT_OK if dims else EXIT_NO
    found = find_dim(g, args.budget)
    if found is None:
        out.write("no DIM\n")
        return EXIT_NO
    if args.action == "find":
        out.write(serialize_certificate(g, found))
    else:
        out.write(f"{len(found)}\n")
    return EXIT_OK


def _cmd_partition(args: argparse.Namespace, out: TextIO) -> int:
    g = _read(args.graphfile, parse_graph, args.format)
    if args.action == "find":
        p = find_dim_partition(g, args.budget)
        if p is None:
            out.write("no partition\n")
            return EXIT_NO
        out.write(serialize_partition(g, p))
        return EXIT_OK
    if not args.partition:
        raise ValueError("partition verify requires --partition")
    p = _read(args.partition, parse_partition, g)
    report = verify_dim_partition(g, p)
    out.write(f"valid = {'true' if report.valid else 'false'}\n")
    out.write(f"class-count-ok = {'true' if report.class_count_ok else 'false'}\n")
    out.write(f"regularity = {report.regularity}\n")
    return EXIT_OK if report.valid else EXIT_NO


def _has_budget_error(report: VerificationReport) -> bool:
    return report.dim_search_error is not None or any(
        e.outcome == "error" for e in report.entries
    )


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    g = _read(args.graphfile, parse_graph, args.format)
    budgets = Budgets(max_cycle_len=args.max_cycle, search_nodes=args.budget)
    report = full_report(g, budgets)
    if args.action == "all":
        out.write(report.to_text())
    else:
        out.write(json.dumps(report.as_dict(), indent=2) + "\n")
    if _has_budget_error(report):
        return EXIT_BUDGET
    return EXIT_OK if report.all_passed else EXIT_NO


@dataclass
class _SweepTally:
    graphs: int = 0
    with_dim: int = 0
    without_dim: int = 0
    budget_errors: bool = False
    # Entries per (check name, outcome).
    outcomes: Counter = field(default_factory=Counter)
    counterexamples: list = field(default_factory=list)

    def add(self, g: Graph, report: VerificationReport) -> None:
        self.graphs += 1
        if report.dim_exists:
            self.with_dim += 1
        elif report.dim_search_error is None:
            self.without_dim += 1
        self.budget_errors |= _has_budget_error(report)
        self.outcomes.update((e.name, e.outcome) for e in report.entries)
        if any(e.outcome == "fail" for e in report.entries):
            self.counterexamples.append(g)


def _cmd_sweep(args: argparse.Namespace, out: TextIO) -> int:
    budgets = Budgets(max_cycle_len=args.max_cycle, search_nodes=args.budget)
    if args.sample:
        if args.n is None:
            raise ValueError("sample mode requires --n")
        if args.count < 1:
            raise ValueError("--count must be at least 1")
        graphs = sample_connected_graphs(args.n, args.count, args.seed)
        header = f"sweep mode=sample n={args.n} seed={args.seed} count={args.count}"
    else:
        if args.max_n is None:
            raise ValueError("exhaustive mode requires --max-n")
        if args.max_n > 7:
            raise ValueError("exhaustive sweeps are limited to --max-n 7")
        if args.max_n < 1:
            raise ValueError("--max-n must be at least 1")
        graphs = (
            g for n in range(1, args.max_n + 1) for g in connected_graphs(n)
        )
        header = f"sweep mode=exhaustive max-n={args.max_n}"

    tally = _SweepTally()
    for g in graphs:
        tally.add(g, full_report(g, budgets))

    out.write(header + "\n")
    out.write(
        f"budgets search-nodes={budgets.search_nodes} "
        f"max-cycle-length={budgets.max_cycle_len}\n"
    )
    out.write(f"graphs {tally.graphs}\n")
    out.write(f"graphs-with-dim {tally.with_dim}\n")
    out.write(f"graphs-without-dim {tally.without_dim}\n")
    counts = tally.outcomes
    for name in sorted({name for name, _ in counts}):
        out.write(
            f"check {name} pass={counts[name, 'pass']} fail={counts[name, 'fail']} "
            f"na={counts[name, 'na']} error={counts[name, 'error']}\n"
        )
    out.write(f"counterexamples {len(tally.counterexamples)}\n")
    for i, g in enumerate(tally.counterexamples):
        path = Path(args.dump_dir) / f"counterexample-{i:03d}.g"
        path.write_text(serialize_graph(g, "edgelist"), encoding="utf-8")
        out.write(f"dumped {path}\n")
    if tally.budget_errors:
        return EXIT_BUDGET
    return EXIT_NO if tally.counterexamples else EXIT_OK


def run(
    argv: Optional[list[str]] = None,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args, out)
    except SearchBudgetExceeded as exc:
        err.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:
        # Exit 1 means "answered no", so a crash must not fall through to it.
        err.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
