"""Executable checks for the structural laws of dominating induced matchings.

Each check verifies one law on a concrete graph and reports
applicability separately from success, so a hypothesis that fails
(say, no DIM exists or the minimum degree is too small) shows up as
not-applicable rather than as a vacuous pass.  All numeric comparisons
are exact; no check uses floating point.

The laws covered:

* a graph with a DIM is properly 3-colorable, with the coloring read
  off the matching;
* a graph of order n with a DIM has at most (n^2 + n)/4 edges;
* all DIMs of a graph have the same size;
* with minimum degree >= 2, delta/(Delta-1) <= 2*dim/(n-2*dim)
  <= Delta/(delta-1), and for k-regular graphs dim = nk/(4k-2),
  forcing (4k-2) | nk;
* a cycle of length r meets any DIM in at most floor(r/3) edges, with
  the same parity as r; cycles of length 3, 5, 7 meet it exactly once
  and 4-cycles not at all;
* a connected graph whose edges partition into DIMs is regular or
  biregular with d(u)+d(v)-1 classes for every edge;
* the partition's list assignment is edge-disjoint, surjective, and
  has equal fibers; for r-regular graphs the vertex count is divisible
  by C(2r-1, r-1), with equality exactly for the subset-disjointness
  graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional

from .graph import Cycle, Graph, degree_profile, enumerate_cycles, is_connected
from .partition import (
    DimPartition,
    check_kneser_isomorphism,
    find_dim_partition,
    list_assignment,
    verify_dim_partition,
    verify_list_properties,
)
from .solver import (
    EdgeSet,
    SearchBudgetExceeded,
    classify_dim,
    enumerate_dims,
    find_dim,
)


@dataclass(frozen=True)
class Coloring:
    """A proper vertex coloring with colors drawn from {1, 2, 3}."""

    color_of: tuple[int, ...]


def three_coloring_from_dim(g: Graph, dim: EdgeSet) -> Coloring:
    """Proper 3-coloring derived from a DIM.

    The lower endpoint of each matched edge gets color 1, the upper
    color 2, and every unmatched vertex color 3.  Properness is
    checked before returning.
    """
    witness = classify_dim(g, dim)
    if not witness.is_valid:
        raise ValueError(f"not a valid DIM ({witness.classification.value})")
    colors = [3] * g.n
    for e in dim:
        u, v = g.edges[e]
        colors[u] = 1
        colors[v] = 2
    for u, v in g.edges:
        if colors[u] == colors[v]:
            raise RuntimeError(f"derived coloring is not proper at edge {u}-{v}")
    return Coloring(tuple(colors))


@dataclass(frozen=True)
class EdgeBoundCheck:
    applicable: bool
    bound: Fraction
    holds: bool


def check_edge_bound(g: Graph, budget: Optional[int] = None) -> EdgeBoundCheck:
    """Edge count at most (n^2 + n)/4, applicable when a DIM exists."""
    bound = Fraction(g.n * g.n + g.n, 4)
    has_dim = find_dim(g, budget) is not None
    return EdgeBoundCheck(
        applicable=has_dim, bound=bound, holds=has_dim and Fraction(g.m) <= bound
    )


def check_dim_size_invariance(g: Graph, budget: int = 10_000_000) -> bool:
    """All DIMs share one cardinality (vacuously true below two DIMs)."""
    sizes = {len(d) for d in enumerate_dims(g, budget)}
    return len(sizes) <= 1


def regular_dim_formula(n: int, k: int) -> Optional[int]:
    """DIM size nk/(4k-2) of a k-regular graph of order n with a DIM.

    None certifies that no k-regular n-vertex graph has a DIM, since
    the size must be an integer.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    product = n * k
    denom = 4 * k - 2
    return product // denom if product % denom == 0 else None


@dataclass(frozen=True)
class DimBoundsCheck:
    applicable: bool
    lower_ok: bool
    upper_ok: bool


def check_dim_bounds(g: Graph, budget: Optional[int] = None) -> DimBoundsCheck:
    """Degree-ratio bounds on the DIM size, for minimum degree >= 2.

    Checks delta*(n - 2*dim) <= 2*dim*(Delta - 1) and
    Delta*(n - 2*dim) >= 2*dim*(delta - 1), the cross-multiplied exact
    forms of delta/(Delta-1) <= 2*dim/(n-2*dim) <= Delta/(delta-1).
    """
    profile = degree_profile(g)
    if profile.min_degree < 2:
        return DimBoundsCheck(False, False, False)
    dim = find_dim(g, budget)
    if dim is None:
        return DimBoundsCheck(False, False, False)
    size = len(dim)
    outside = g.n - 2 * size
    lower = profile.min_degree * outside <= 2 * size * (profile.max_degree - 1)
    upper = profile.max_degree * outside >= 2 * size * (profile.min_degree - 1)
    return DimBoundsCheck(True, lower, upper)


@dataclass(frozen=True)
class CycleIntersectionCheck:
    all_bound_ok: bool
    all_parity_ok: bool
    short_cycle_ok: bool
    cycles_checked: int


def check_cycle_intersections(
    g: Graph, dim: EdgeSet, max_len: int
) -> CycleIntersectionCheck:
    """Intersection laws between a DIM and every cycle up to max_len.

    For a cycle of length r the DIM contributes at most floor(r/3)
    edges with parity r mod 2; lengths 3, 5, 7 force exactly one edge
    and length 4 forces zero.
    """
    witness = classify_dim(g, dim)
    if not witness.is_valid:
        raise ValueError(f"not a valid DIM ({witness.classification.value})")
    bound_ok = parity_ok = short_ok = True
    cycles = enumerate_cycles(g, max_len)
    for cyc in cycles:
        r = cyc.length
        hits = len(cyc.edge_ids & dim)
        if hits > r // 3:
            bound_ok = False
        if hits % 2 != r % 2:
            parity_ok = False
        if r in (3, 5, 7) and hits != 1:
            short_ok = False
        if r == 4 and hits != 0:
            short_ok = False
    return CycleIntersectionCheck(bound_ok, parity_ok, short_ok, len(cycles))


def check_partition_regularity(g: Graph, p: DimPartition) -> bool:
    """Regular-or-biregular plus exact class count, for connected graphs."""
    if not is_connected(g):
        raise ValueError("regularity law applies to connected graphs")
    report = verify_dim_partition(g, p)
    if not report.valid:
        raise ValueError("partition classes are not all DIMs")
    return report.regularity in ("regular", "biregular") and report.class_count_ok


@dataclass(frozen=True)
class Budgets:
    """Resource limits threaded through a full verification report."""

    max_cycle_len: int = 8
    search_nodes: int = 10_000_000


@dataclass(frozen=True)
class CheckEntry:
    name: str
    applicable: bool
    passed: bool
    details: str
    error: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "passed": self.passed,
            "details": self.details,
            "error": self.error,
        }


@dataclass(frozen=True)
class VerificationReport:
    vertices: int
    edges: int
    min_degree: int
    max_degree: int
    regularity: str
    dim_exists: bool
    dim_size: Optional[int]
    dim_search_error: Optional[str]
    budgets: Budgets
    entries: tuple[CheckEntry, ...] = field(default_factory=tuple)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(e.passed or not e.applicable for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "graph": {
                "vertices": self.vertices,
                "edges": self.edges,
                "min_degree": self.min_degree,
                "max_degree": self.max_degree,
                "regularity": self.regularity,
            },
            "budgets": {
                "max_cycle_len": self.budgets.max_cycle_len,
                "search_nodes": self.budgets.search_nodes,
            },
            "dim": {
                "exists": self.dim_exists,
                "size": self.dim_size,
                "search_error": self.dim_search_error,
            },
            "checks": [e.as_dict() for e in self.entries],
        }

    def to_text(self) -> str:
        def flag(b: bool) -> str:
            return "true" if b else "false"

        lines = [
            "dim verification report",
            "[graph]",
            f"vertices = {self.vertices}",
            f"edges = {self.edges}",
            f"min-degree = {self.min_degree}",
            f"max-degree = {self.max_degree}",
            f"regularity = {self.regularity}",
            "[budgets]",
            f"max-cycle-length = {self.budgets.max_cycle_len}",
            f"search-nodes = {self.budgets.search_nodes}",
            "[dim]",
            f"exists = {flag(self.dim_exists)}",
            f"size = {self.dim_size if self.dim_size is not None else 'none'}",
        ]
        if self.dim_search_error:
            lines.append(f"search-error = {self.dim_search_error}")
        for e in self.entries:
            lines.append(f"[check {e.name}]")
            lines.append(f"applicable = {flag(e.applicable)}")
            lines.append(f"passed = {flag(e.passed)}")
            if e.error:
                lines.append(f"error = {e.error}")
            lines.append(f"details = {e.details}")
        return "\n".join(lines) + "\n"


def _not_applicable(name: str, reason: str) -> CheckEntry:
    return CheckEntry(name, applicable=False, passed=False, details=reason)


def full_report(g: Graph, budgets: Budgets = Budgets()) -> VerificationReport:
    """Run every applicable check on one graph and aggregate the results.

    Budget exhaustion inside a check is recorded on that entry and
    never aborts the rest of the report.  Output is deterministic for
    fixed inputs and budgets.
    """
    profile = degree_profile(g)
    if profile.is_regular:
        regularity = "regular"
    elif profile.biregular is not None:
        regularity = "biregular"
    else:
        regularity = "neither"

    dim: Optional[EdgeSet] = None
    dim_error: Optional[str] = None
    try:
        dim = find_dim(g, budgets.search_nodes)
    except SearchBudgetExceeded as exc:
        dim_error = str(exc)
    has_dim = dim is not None

    entries: list[CheckEntry] = []

    def budget_error(name: str, exc: SearchBudgetExceeded) -> CheckEntry:
        return CheckEntry(name, True, False, "budget exhausted", error=str(exc))

    def guarded(name: str, applicable: bool, na_reason: str, run) -> None:
        if not applicable:
            entries.append(_not_applicable(name, na_reason))
            return
        try:
            passed, details = run()
            entries.append(CheckEntry(name, True, passed, details))
        except SearchBudgetExceeded as exc:
            entries.append(budget_error(name, exc))

    def run_coloring():
        coloring = three_coloring_from_dim(g, dim)
        used = sorted(set(coloring.color_of))
        return True, "proper coloring with colors " + ",".join(map(str, used))

    guarded("three-coloring", has_dim, "no dim", run_coloring)

    def run_edge_bound():
        res = check_edge_bound(g, budgets.search_nodes)
        return res.holds, f"edges {g.m} vs bound {res.bound}"

    guarded("edge-count-bound", has_dim, "no dim", run_edge_bound)

    def run_invariance():
        dims = enumerate_dims(g, budgets.search_nodes)
        sizes = {len(d) for d in dims}
        return len(sizes) <= 1, f"dim count {len(dims)}"

    guarded("dim-size-invariance", has_dim, "no dim", run_invariance)

    def run_bounds():
        res = check_dim_bounds(g, budgets.search_nodes)
        return res.lower_ok and res.upper_ok, (
            f"lower {res.lower_ok} upper {res.upper_ok}"
        )

    guarded(
        "degree-ratio-bounds",
        has_dim and profile.min_degree >= 2,
        "no dim or min degree below 2",
        run_bounds,
    )

    k = profile.max_degree

    def run_formula():
        expected = regular_dim_formula(g.n, k) if k >= 1 else 0
        ok = expected == len(dim)
        return ok, f"formula {expected} actual {len(dim)}"

    guarded(
        "regular-size-formula",
        has_dim and profile.is_regular and k >= 1,
        "not regular or no dim",
        run_formula,
    )

    def run_divisibility():
        ok = (g.n * k) % (4 * k - 2) == 0
        return ok, f"{4 * k - 2} divides {g.n * k}: {ok}"

    guarded(
        "regular-divisibility",
        has_dim and profile.is_regular and k >= 1,
        "not regular or no dim",
        run_divisibility,
    )

    cycle_result: list[CycleIntersectionCheck] = []

    def run_cycles():
        res = check_cycle_intersections(g, dim, budgets.max_cycle_len)
        cycle_result.append(res)
        return res.all_bound_ok, f"cycles checked {res.cycles_checked}"

    guarded("cycle-intersection-bound", has_dim, "no dim", run_cycles)

    def run_parity():
        res = cycle_result[0] if cycle_result else check_cycle_intersections(
            g, dim, budgets.max_cycle_len
        )
        return res.all_parity_ok, f"cycles checked {res.cycles_checked}"

    guarded("cycle-intersection-parity", has_dim, "no dim", run_parity)

    def run_short():
        res = cycle_result[0] if cycle_result else check_cycle_intersections(
            g, dim, budgets.max_cycle_len
        )
        return res.short_cycle_ok, f"cycles checked {res.cycles_checked}"

    guarded("short-cycle-intersections", has_dim, "no dim", run_short)

    # A partition search that runs out of budget makes every check that
    # would apply to a partition an error entry: a budget hit must not
    # read as "no partition".
    p: Optional[DimPartition] = None
    partition_error: Optional[SearchBudgetExceeded] = None
    if has_dim:
        try:
            p = find_dim_partition(g, budgets.search_nodes)
        except SearchBudgetExceeded as exc:
            partition_error = exc
    has_partition = (p is not None or partition_error is not None) and g.m > 0

    def partition_guarded(name: str, applicable: bool, na_reason: str, run) -> None:
        if applicable and partition_error is not None:
            entries.append(budget_error(name, partition_error))
        else:
            guarded(name, applicable, na_reason, run)

    connected = is_connected(g)

    def run_partition_regularity():
        ok = check_partition_regularity(g, p)
        return ok, f"classes {p.num_classes}"

    partition_guarded(
        "partition-regularity",
        has_partition and connected,
        "no partition or graph disconnected",
        run_partition_regularity,
    )

    structured = has_partition and regularity in ("regular", "biregular")
    assignment = None
    if structured and partition_error is None:
        assignment = list_assignment(g, p)

    def run_lists():
        res = verify_list_properties(g, assignment)
        ok = res.disjointness and res.surjective and res.equal_fibers
        return ok, (
            f"disjoint {res.disjointness} surjective {res.surjective} "
            f"equal-fibers {res.equal_fibers}"
        )

    partition_guarded(
        "list-properties",
        structured,
        "no partition or irregular degree profile",
        run_lists,
    )

    r = profile.max_degree

    def run_vertex_divisibility():
        binom = comb(2 * r - 1, r - 1)
        ok = g.n % binom == 0
        return ok, f"{binom} divides {g.n}: {ok}"

    partition_guarded(
        "vertex-count-divisibility",
        has_partition and profile.is_regular and r >= 1,
        "no partition or not regular",
        run_vertex_divisibility,
    )

    def run_extremal():
        ok = check_kneser_isomorphism(g, assignment)
        return ok, f"vertices {g.n} = C({2 * r - 1},{r - 1})"

    partition_guarded(
        "kneser-extremal-case",
        has_partition
        and profile.is_regular
        and connected
        and r >= 1
        and g.n == comb(2 * r - 1, r - 1),
        "vertex count differs from the extremal value",
        run_extremal,
    )

    return VerificationReport(
        vertices=g.n,
        edges=g.m,
        min_degree=profile.min_degree,
        max_degree=profile.max_degree,
        regularity=regularity,
        dim_exists=has_dim,
        dim_size=len(dim) if dim is not None else None,
        dim_search_error=dim_error,
        budgets=budgets,
        entries=tuple(entries),
    )
