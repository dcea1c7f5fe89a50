"""Command-line interface.

Exit codes:

* 0 success;
* 1 answered no: no DIM, no partition, a failed check, or a sweep
  counterexample;
* 2 usage or input errors, including a graph file whose header declares
  more than ``io.MAX_VERTICES`` vertices and a sweep over no graphs;
* 3 a search ran out of budget: for ``verify`` and ``sweep``, the DIM
  search or any check of any report (this takes precedence over 1);
* 4 internal error: any other exception, reported on one stderr line.

Output is deterministic for fixed arguments and inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, TextIO

from .checks import Budgets, VerificationReport, full_report
from .corpus import connected_graphs, sample_connected_graphs
from .families import (
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
    FormatError,
    GRAPH_FORMATS,
    parse_graph,
    parse_partition,
    serialize_certificate,
    serialize_graph,
    serialize_labels,
    serialize_partition,
)
from .partition import find_dim_partition, verify_dim_partition
from .solver import SearchBudgetExceeded, enumerate_dims, find_dim

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

DEFAULT_BUDGET = 10_000_000
DEFAULT_MAX_CYCLE = 8


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


def _read_graph(path: str, fmt: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_graph(text, fmt)
    except (FormatError, ValueError) as exc:
        raise _CliError(f"{path}: {exc}") from exc


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
    gen_sub = gen.add_subparsers(dest="family", required=True)

    def add_gen_common(p: argparse.ArgumentParser, partition: bool) -> None:
        p.add_argument("-o", "--output", help="output graph file (default stdout)")
        p.add_argument(
            "--format", choices=GRAPH_FORMATS, default="edgelist",
            help="graph serialization format",
        )
        p.add_argument(
            "--with-labels", action="store_true",
            help="also write the subset-label sidecar (requires -o)",
        )
        if partition:
            p.add_argument(
                "--with-partition", action="store_true",
                help="also write the closed-form DIM partition (requires -o)",
            )

    p = gen_sub.add_parser("kneser", help="disjointness graph of k-subsets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_gen_common(p, partition=False)

    p = gen_sub.add_parser(
        "kneser-family", help="KG(2r-1, r-1), optionally with its DIM partition"
    )
    p.add_argument("--r", type=int, required=True)
    add_gen_common(p, partition=True)

    p = gen_sub.add_parser(
        "bg", help="BG(r-1, s-1), optionally with its DIM partition"
    )
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    add_gen_common(p, partition=True)

    p = gen_sub.add_parser("cycle", help="cycle graph")
    p.add_argument("--n", type=int, required=True)
    add_gen_common(p, partition=False)

    p = gen_sub.add_parser("complete", help="complete graph")
    p.add_argument("--n", type=int, required=True)
    add_gen_common(p, partition=False)

    p = gen_sub.add_parser("star", help="star graph with k leaves")
    p.add_argument("--k", type=int, required=True)
    add_gen_common(p, partition=False)

    p = gen_sub.add_parser("petersen", help="the Petersen graph")
    add_gen_common(p, partition=False)

    dim = sub.add_parser("dim", help="find, enumerate, or size DIMs")
    dim.add_argument("action", choices=("find", "enum", "size"))
    dim.add_argument("graphfile")
    dim.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    dim.add_argument("--format", choices=GRAPH_FORMATS, default="edgelist")

    part = sub.add_parser("partition", help="find or verify DIM partitions")
    part.add_argument("action", choices=("find", "verify"))
    part.add_argument("graphfile")
    part.add_argument("--partition", help="partition file (verify only)")
    part.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    part.add_argument("--format", choices=GRAPH_FORMATS, default="edgelist")

    ver = sub.add_parser("verify", help="run the verification report")
    ver.add_argument("action", choices=("all", "report"))
    ver.add_argument("graphfile")
    ver.add_argument("--max-cycle", type=int, default=DEFAULT_MAX_CYCLE)
    ver.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    ver.add_argument("--format", choices=GRAPH_FORMATS, default="edgelist")

    sweep = sub.add_parser("sweep", help="verify every small-graph law on a corpus")
    sweep.add_argument("--max-n", type=int, help="exhaustive corpus bound (<= 7)")
    sweep.add_argument("--sample", action="store_true", help="sample mode")
    sweep.add_argument("--n", type=int, help="vertex count in sample mode")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--count", type=int, default=1000)
    sweep.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    sweep.add_argument("--max-cycle", type=int, default=DEFAULT_MAX_CYCLE)
    sweep.add_argument("--dump-dir", default=".", help="where counterexamples go")
    return parser


def _cmd_gen(args: argparse.Namespace, out: TextIO) -> int:
    labeled = None
    partition = None
    if args.family == "kneser":
        labeled = kneser(args.n, args.k)
        g = labeled.graph
    elif args.family == "kneser-family":
        if getattr(args, "with_partition", False):
            labeled, partition = kneser_dim_partition(args.r)
        else:
            labeled = kneser(2 * args.r - 1, args.r - 1)
        g = labeled.graph
    elif args.family == "bg":
        if getattr(args, "with_partition", False):
            labeled, partition = bg_dim_partition(args.r, args.s)
        else:
            labeled = bipartite_kneser(args.r - 1, args.s - 1)
        g = labeled.graph
    elif args.family == "cycle":
        g = cycle(args.n)
    elif args.family == "complete":
        g = complete(args.n)
    elif args.family == "star":
        g = star(args.k)
    else:
        g = petersen()

    wants_sidecar = getattr(args, "with_partition", False) or args.with_labels
    if wants_sidecar and not args.output:
        raise _CliError("--with-partition/--with-labels require -o")
    if args.with_labels and labeled is None:
        raise _CliError(f"{args.family} has no subset labels")

    text = serialize_graph(g, args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        if partition is not None:
            Path(args.output + ".partition").write_text(
                serialize_partition(g, partition), encoding="utf-8"
            )
        if args.with_labels:
            Path(args.output + ".labels").write_text(
                serialize_labels(labeled.labels), encoding="utf-8"
            )
    else:
        out.write(text)
    return EXIT_OK


def _cmd_dim(args: argparse.Namespace, out: TextIO) -> int:
    g = _read_graph(args.graphfile, args.format)
    if args.action == "find":
        found = find_dim(g, args.budget)
        if found is None:
            out.write("no DIM\n")
            return EXIT_NO
        out.write(serialize_certificate(g, found))
        return EXIT_OK
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
    out.write(f"{len(found)}\n")
    return EXIT_OK


def _cmd_partition(args: argparse.Namespace, out: TextIO) -> int:
    g = _read_graph(args.graphfile, args.format)
    if args.action == "find":
        p = find_dim_partition(g, args.budget)
        if p is None:
            out.write("no partition\n")
            return EXIT_NO
        out.write(serialize_partition(g, p))
        return EXIT_OK
    if not args.partition:
        raise _CliError("partition verify requires --partition")
    try:
        text = Path(args.partition).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {args.partition}: {exc}") from exc
    try:
        p = parse_partition(text, g)
    except FormatError as exc:
        raise _CliError(f"{args.partition}: {exc}") from exc
    report = verify_dim_partition(g, p)
    out.write(f"valid = {'true' if report.valid else 'false'}\n")
    out.write(f"class-count-ok = {'true' if report.class_count_ok else 'false'}\n")
    out.write(f"regularity = {report.regularity}\n")
    return EXIT_OK if report.valid else EXIT_NO


def _has_budget_error(report: VerificationReport) -> bool:
    return report.dim_search_error is not None or any(e.error for e in report.entries)


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    g = _read_graph(args.graphfile, args.format)
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
    check_pass: dict = field(default_factory=dict)
    check_fail: dict = field(default_factory=dict)
    check_na: dict = field(default_factory=dict)
    check_error: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)

    def add(self, g: Graph, report: VerificationReport) -> None:
        self.graphs += 1
        if report.dim_exists:
            self.with_dim += 1
        elif report.dim_search_error is None:
            self.without_dim += 1
        self.budget_errors |= _has_budget_error(report)
        bad = False
        for e in report.entries:
            for bucket in (self.check_pass, self.check_fail, self.check_na, self.check_error):
                bucket.setdefault(e.name, 0)
            if e.error is not None:
                self.check_error[e.name] += 1
            elif not e.applicable:
                self.check_na[e.name] += 1
            elif e.passed:
                self.check_pass[e.name] += 1
            else:
                self.check_fail[e.name] += 1
                bad = True
        if bad:
            self.counterexamples.append(g)


def _cmd_sweep(args: argparse.Namespace, out: TextIO) -> int:
    budgets = Budgets(max_cycle_len=args.max_cycle, search_nodes=args.budget)
    if args.sample:
        if args.n is None:
            raise _CliError("sample mode requires --n")
        if args.count < 1:
            raise _CliError("--count must be at least 1")
        graphs = sample_connected_graphs(args.n, args.count, args.seed)
        header = f"sweep mode=sample n={args.n} seed={args.seed} count={args.count}"
    else:
        if args.max_n is None:
            raise _CliError("exhaustive mode requires --max-n")
        if args.max_n > 7:
            raise _CliError("exhaustive sweeps are limited to --max-n 7")
        if args.max_n < 1:
            raise _CliError("--max-n must be at least 1")
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
    for name in sorted(tally.check_pass):
        out.write(
            f"check {name} pass={tally.check_pass[name]} "
            f"fail={tally.check_fail[name]} na={tally.check_na[name]} "
            f"error={tally.check_error[name]}\n"
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
        if args.command == "gen":
            return _cmd_gen(args, out)
        if args.command == "dim":
            return _cmd_dim(args, out)
        if args.command == "partition":
            return _cmd_partition(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        return _cmd_sweep(args, out)
    except _CliError as exc:
        err.write(f"error: {exc}\n")
        return exc.code
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
