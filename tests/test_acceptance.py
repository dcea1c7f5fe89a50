"""Acceptance suite: one test per acceptance criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``
or in the captured output of a failing run).  The small-graph corpus is
every connected labeled graph on up to 6 vertices; the larger sample is
1000 seeded random connected graphs split across 7 and 8 vertices.
"""

import io
import time
from dataclasses import dataclass
from math import comb
from typing import Optional

import pytest

from dimtools.checks import (
    check_cycle_intersections,
    check_dim_bounds,
    check_edge_bound,
    regular_dim_formula,
    three_coloring_from_dim,
)
from dimtools.cli import run
from dimtools.corpus import connected_graphs, sample_connected_graphs
from dimtools.families import bg_dim_partition, cycle, kneser_dim_partition, petersen
from dimtools.graph import Graph, degree_profile
from dimtools.io import parse_graph, parse_partition
from dimtools.partition import (
    DimPartition,
    brute_force_dim_partitions,
    check_kneser_isomorphism,
    find_dim_partition,
    list_assignment,
    verify_dim_partition,
    verify_list_properties,
)
from dimtools.solver import brute_force_dims, classify_dim, enumerate_dims, find_dim

SAMPLE_SEED = 42
MAX_CORPUS_N = 6


def conclude(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@dataclass
class CorpusRecord:
    graph: Graph
    dims: list
    brute: list
    partition: Optional[DimPartition]


@pytest.fixture(scope="module")
def corpus():
    records = []
    for n in range(1, MAX_CORPUS_N + 1):
        for g in connected_graphs(n):
            records.append(
                CorpusRecord(
                    graph=g,
                    dims=enumerate_dims(g),
                    brute=brute_force_dims(g),
                    partition=find_dim_partition(g),
                )
            )
    return records


@pytest.fixture(scope="module")
def sampled():
    graphs = sample_connected_graphs(7, 500, seed=SAMPLE_SEED)
    graphs += sample_connected_graphs(8, 500, seed=SAMPLE_SEED + 1)
    return graphs


def cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_petersen_reproduction(tmp_path):
    t0 = time.perf_counter()
    graph_path = tmp_path / "petersen.g"
    code, _, _ = cli(["gen", "petersen", "-o", str(graph_path)])
    assert code == 0
    code, out, _ = cli(["dim", "size", str(graph_path)])
    size_ok = code == 0 and out == "3\n"
    formula_ok = regular_dim_formula(10, 3) == 3  # 30 / 10

    base = tmp_path / "kg.g"
    code, _, _ = cli(
        ["gen", "kneser-family", "--r", "3", "--with-partition", "-o", str(base)]
    )
    assert code == 0
    g = parse_graph(base.read_text())
    p = parse_partition((tmp_path / "kg.g.partition").read_text(), g)
    partition_ok = (
        p.num_classes == 5
        and all(len(c) == 3 for c in p.classes)
        and all(classify_dim(g, c).is_valid for c in p.classes)
    )
    elapsed = time.perf_counter() - t0
    conclude(
        1,
        size_ok and formula_ok and partition_ok and elapsed < 1.0,
        f"petersen dim size 3 and 5x3 partition reproduced in {elapsed:.2f}s",
    )


def test_criterion_2_cycle_law():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 31):
        found = find_dim(cycle(n))
        if n % 3 == 0:
            ok = ok and found is not None and len(found) == n // 3
        else:
            ok = ok and found is None
    elapsed = time.perf_counter() - t0
    conclude(
        2,
        ok and elapsed < 1.0,
        f"cycles 3..30 have a DIM iff 3 | n, of size n/3, in {elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    mismatches = sum(
        1 for rec in corpus if set(rec.dims) != set(rec.brute)
    )
    elapsed = time.perf_counter() - t0
    conclude(
        3,
        mismatches == 0 and elapsed < 300.0,
        f"solver vs subset-scan oracle on {len(corpus)} graphs: "
        f"{mismatches} discrepancies ({elapsed:.1f}s)",
    )


def _sweep_violations(g: Graph, dims: list) -> list[str]:
    """All law violations for one graph given its full DIM list."""
    if not dims:
        return []
    bad = []
    dim = dims[0]
    coloring = three_coloring_from_dim(g, dim)  # raises if improper
    if any(coloring.color_of[u] == coloring.color_of[v] for u, v in g.edges):
        bad.append("coloring")
    if not check_edge_bound(g, dim).holds:
        bad.append("edge-bound")
    if len({len(d) for d in dims}) > 1:
        bad.append("size-invariance")
    profile = degree_profile(g)
    if profile.min_degree >= 2:
        bounds = check_dim_bounds(g, dim)
        if not (bounds.lower_ok and bounds.upper_ok):
            bad.append("degree-bounds")
    if profile.is_regular and profile.max_degree >= 1:
        k = profile.max_degree
        if (g.n * k) % (4 * k - 2) != 0:
            bad.append("divisibility")
        if regular_dim_formula(g.n, k) != len(dim):
            bad.append("regular-formula")
    for d in dims:
        cyc = check_cycle_intersections(g, d, 8)
        if not (cyc.all_bound_ok and cyc.all_parity_ok and cyc.short_cycle_ok):
            bad.append("cycle-intersections")
            break
    return bad


def test_criterion_4_theorem_sweep(corpus, sampled):
    t0 = time.perf_counter()
    violations = []
    with_dim = 0
    for rec in corpus:
        if rec.dims:
            with_dim += 1
            violations.extend(
                (rec.graph.edges, v) for v in _sweep_violations(rec.graph, rec.dims)
            )
    sampled_with_dim = 0
    for g in sampled:
        dims = enumerate_dims(g)
        if dims:
            sampled_with_dim += 1
            violations.extend((g.edges, v) for v in _sweep_violations(g, dims))
    elapsed = time.perf_counter() - t0
    conclude(
        4,
        not violations,
        f"law sweep over {len(corpus)} corpus graphs ({with_dim} with a DIM)"
        f" plus {len(sampled)} sampled graphs ({sampled_with_dim} with a DIM):"
        f" {len(violations)} violations ({elapsed:.1f}s)",
    )


@pytest.fixture(scope="module")
def family_partitions():
    out = []
    for r in range(2, 7):
        lg, p = kneser_dim_partition(r)
        out.append(("kneser", r, None, lg, p))
    for r in range(2, 6):
        for s in range(2, 6):
            lg, p = bg_dim_partition(r, s)
            out.append(("bg", r, s, lg, p))
    return out


def test_criterion_5_construction_validity(family_partitions):
    t0 = time.perf_counter()
    ok = True
    for kind, r, s, lg, p in family_partitions:
        g = lg.graph
        report = verify_dim_partition(g, p)
        classes_valid = all(classify_dim(g, c).is_valid for c in p.classes)
        if kind == "kneser":
            ok = ok and p.num_classes == 2 * r - 1
            ok = ok and report.regularity == "regular"
        else:
            ok = ok and p.num_classes == r + s - 1
            left = comb(r + s - 1, r - 1)
            degrees_ok = all(
                g.degrees[v] == (s if v < left else r) for v in range(g.n)
            )
            ok = ok and degrees_ok
            ok = ok and report.regularity in ("regular", "biregular")
        ok = ok and report.valid and report.class_count_ok and classes_valid
    elapsed = time.perf_counter() - t0
    conclude(
        5,
        ok and elapsed < 30.0,
        f"{len(family_partitions)} closed-form partitions all valid "
        f"with expected class counts and degrees ({elapsed:.1f}s)",
    )


def test_criterion_6_list_assignments(corpus, family_partitions):
    t0 = time.perf_counter()
    ok = True
    for kind, r, s, lg, p in family_partitions:
        a = list_assignment(lg.graph, p)
        res = verify_list_properties(lg.graph, a)
        ok = ok and res.disjointness and res.surjective and res.equal_fibers
        if kind == "kneser":
            ok = ok and len(set(a.lists)) == lg.graph.n  # all fibers have size 1
            ok = ok and check_kneser_isomorphism(lg.graph, a)

    corpus_partitions = 0
    for rec in corpus:
        if rec.partition is None or rec.graph.m == 0:
            continue
        corpus_partitions += 1
        g = rec.graph
        a = list_assignment(g, rec.partition)
        res = verify_list_properties(g, a)
        ok = ok and res.disjointness and res.surjective and res.equal_fibers
        profile = degree_profile(g)
        if profile.is_regular:
            rr = profile.max_degree
            ok = ok and g.n % comb(2 * rr - 1, rr - 1) == 0
    elapsed = time.perf_counter() - t0
    conclude(
        6,
        ok,
        f"list assignments verified for {len(family_partitions)} family and "
        f"{corpus_partitions} corpus partitions; extremal case and "
        f"divisibility hold ({elapsed:.1f}s)",
    )


def test_criterion_7_partition_regularity(corpus):
    t0 = time.perf_counter()
    violations = 0
    agreement_checked = 0
    for rec in corpus:
        g = rec.graph
        if rec.partition is not None and g.m > 0:
            profile = degree_profile(g)
            if not (profile.is_regular or profile.biregular is not None):
                violations += 1
            if any(
                rec.partition.num_classes != g.degrees[u] + g.degrees[v] - 1
                for u, v in g.edges
            ):
                violations += 1
        # independence: the assumption-free cover search agrees on existence
        if g.m <= 9:
            agreement_checked += 1
            brute = brute_force_dim_partitions(g)
            if (rec.partition is None) != (len(brute) == 0):
                violations += 1
    elapsed = time.perf_counter() - t0
    conclude(
        7,
        violations == 0,
        f"partitioned corpus graphs all regular/biregular with forced class "
        f"count; existence agrees with the assumption-free search on "
        f"{agreement_checked} graphs with <= 9 edges: {violations} violations "
        f"({elapsed:.1f}s)",
    )


def test_criterion_8_determinism(tmp_path):
    graph_path = tmp_path / "petersen.g"
    cli(["gen", "petersen", "-o", str(graph_path)])

    outputs = set()
    for _ in range(2):
        code, out, _ = cli(["verify", "all", str(graph_path)])
        assert code == 0
        outputs.add(out)
    verify_ok = len(outputs) == 1

    sweep_args = [
        "sweep", "--sample", "--n", "7", "--seed", str(SAMPLE_SEED),
        "--count", "60", "--dump-dir", str(tmp_path),
    ]
    first = cli(sweep_args)
    second = cli(sweep_args)
    sweep_ok = first == second and first[0] == 0

    exhaustive = [
        cli(["sweep", "--max-n", "4", "--dump-dir", str(tmp_path)]) for _ in range(2)
    ]
    exhaustive_ok = exhaustive[0] == exhaustive[1] and exhaustive[0][0] == 0

    conclude(
        8,
        verify_ok and sweep_ok and exhaustive_ok,
        "verify-all and seeded sweeps are byte-identical across runs",
    )
