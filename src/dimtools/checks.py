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

:func:`full_report` runs all of them on one graph.  It computes each
fact the checks share once, up front, and passes it down: the extreme
degrees and the regularity, read off the degrees with no 2-coloring,
the DIMs, the components, the cycle-law result for one DIM, the DIM
partition with its incident-color sets and the list assignment built
from them.  The components are found only when some check can
apply, that is when a DIM exists or the DIM search ran out of budget.
One run of the exact-cover engine gives the DIMs: its first solution is
the DIM :func:`~dimtools.solver.find_dim` returns and all of them are
the DIM list.  The partition search of a connected graph draws on that
run's node counter and covers the edges by that list.  Every entry then
follows one rule.  A check whose hypothesis fails is not applicable.  A
check that applies while a search it reads (the DIM search or the
partition search) ran out of budget is an error entry; where the DIM
search ran out, whether a DIM exists is unknown, so every check that
needs one applies as far as the rest of its hypothesis goes.  Otherwise
the check runs; no check searches.  A budget hit never reads as "no DIM"
or "no partition".
Not-applicable entries depend only on the check's name and reason, so
each is built once per process and shared, immutable, by every report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache
from math import comb
from typing import Callable, Collection, Optional, Sequence

from .graph import EdgeId, Graph, _regularity, components, enumerate_cycles
from .partition import (
    DimPartition,
    _class_count,
    _list_properties,
    _lists,
    _search_partition,
    check_kneser_isomorphism,
)
from .solver import (
    DEFAULT_BUDGET,
    EdgeSet,
    SearchBudgetExceeded,
    _dim_search,
    _Nodes,
    classify_dim,
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


def check_edge_bound(g: Graph, dim: Optional[EdgeSet]) -> EdgeBoundCheck:
    """Edge count at most (n^2 + n)/4, applicable when g has a DIM.

    ``dim`` is a DIM of g, or None when g has none.
    """
    bound = Fraction(g.n * g.n + g.n, 4)
    has_dim = dim is not None
    return EdgeBoundCheck(
        applicable=has_dim, bound=bound, holds=has_dim and Fraction(g.m) <= bound
    )


def check_dim_size_invariance(dims: Sequence[Collection[EdgeId]]) -> bool:
    """All DIMs of a graph, listed in any order, share one cardinality
    (vacuously true below two DIMs)."""
    return len({len(d) for d in dims}) <= 1


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


def check_dim_bounds(g: Graph, dim: Optional[EdgeSet]) -> DimBoundsCheck:
    """Degree-ratio bounds on the DIM size, for minimum degree >= 2.

    ``dim`` is a DIM of g, or None when g has none.  Checks
    delta*(n - 2*dim) <= 2*dim*(Delta - 1) and
    Delta*(n - 2*dim) >= 2*dim*(delta - 1), the cross-multiplied exact
    forms of delta/(Delta-1) <= 2*dim/(n-2*dim) <= Delta/(delta-1).
    """
    lo = min(g.degrees, default=0)
    hi = max(g.degrees, default=0)
    if dim is None or lo < 2:
        return DimBoundsCheck(False, False, False)
    size = len(dim)
    outside = g.n - 2 * size
    lower = lo * outside <= 2 * size * (hi - 1)
    upper = hi * outside >= 2 * size * (lo - 1)
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


@dataclass(frozen=True)
class Budgets:
    """Resource limits threaded through a full verification report.

    Both are checked on construction, so a bad limit is rejected before
    any search, whatever the graph.
    """

    max_cycle_len: int = 8
    search_nodes: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.max_cycle_len < 3 or self.search_nodes < 0:
            raise ValueError(f"need max_cycle_len >= 3 and search_nodes >= 0, got {self}")


@dataclass(frozen=True)
class CheckEntry:
    name: str
    applicable: bool
    passed: bool
    details: str
    error: Optional[str] = None

    def as_dict(self) -> dict:
        return asdict(self)


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
            "budgets": asdict(self.budgets),
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


@cache
def _not_applicable(name: str, reason: str) -> CheckEntry:
    """The one entry, shared by every report, for check ``name`` not
    applying for ``reason``; a CheckEntry is frozen, so sharing is safe."""
    return CheckEntry(name, applicable=False, passed=False, details=reason)


def _entry(
    name: str,
    applies: bool,
    na_reason: str,
    search_error: Optional[str],
    run: Callable[[], tuple[bool, str]],
) -> CheckEntry:
    """One report entry: not applicable, a budget error, or the result
    ``(passed, details)`` of ``run``."""
    if not applies:
        return _not_applicable(name, na_reason)
    if search_error is not None:
        return CheckEntry(name, True, False, "budget exhausted", error=search_error)
    return CheckEntry(name, True, *run())


def full_report(g: Graph, budgets: Budgets = Budgets()) -> VerificationReport:
    """Run every applicable check on one graph and aggregate the results.

    The shared facts are computed once and every entry follows the
    rule in the module docstring, so budget exhaustion is recorded on
    the entries it affects and never aborts the rest of the report.
    Output is deterministic for fixed inputs and budgets.
    """
    lo, k, regularity = _regularity(g)
    regular = lo == k >= 1

    # One engine run gives the DIM and the DIM list.
    nodes = _Nodes(budgets.search_nodes)
    dims: list[list[int]] = []
    search_error: Optional[str] = None
    try:
        for sol in _dim_search(g, nodes).solutions():
            dims.append(sorted(sol))
    except SearchBudgetExceeded as exc:
        search_error = str(exc)
    dim = frozenset(dims[0]) if dims else None
    # A budget hit before the first solution leaves it unknown whether a
    # DIM exists; a hit after it leaves the DIM list incomplete.
    dim_error = None if dims else search_error
    maybe_dim = dim is not None or dim_error is not None
    # Only a check that can apply reads the components, and none can
    # without a DIM.
    comps = components(g) if maybe_dim else []
    connected = maybe_dim and len(comps) <= 1

    cycles: Optional[CycleIntersectionCheck] = None
    p: Optional[DimPartition] = None
    partition_error = dim_error
    assignment = None
    if dim is not None:
        cycles = check_cycle_intersections(g, dim, budgets.max_cycle_len)
        classes = _class_count(g)
        # A connected g is the partition search's only component, so it
        # would enumerate these same DIMs in as many nodes: it goes on
        # drawing on their counter.  After a budget hit the counter is past
        # its limit, so the search enumerates again and runs out at its
        # first node, as it would have.
        if not connected:
            nodes = _Nodes(budgets.search_nodes)
        known = dims if connected and search_error is None else None
        try:
            # No partition exists without one class count on every edge.
            found = classes and _search_partition(g, classes, nodes, comps, known)
        except SearchBudgetExceeded as exc:
            partition_error = str(exc)
        else:
            if found:
                p, colors_at = found
                assignment = _lists(classes, colors_at)
    maybe_partition = (p is not None or partition_error is not None) and g.m > 0

    def coloring():
        used = sorted(set(three_coloring_from_dim(g, dim).color_of))
        return True, "proper coloring with colors " + ",".join(map(str, used))

    def edge_bound():
        res = check_edge_bound(g, dim)
        return res.holds, f"edges {g.m} vs bound {res.bound}"

    def invariance():
        return check_dim_size_invariance(dims), f"dim count {len(dims)}"

    def bounds():
        res = check_dim_bounds(g, dim)
        ok = res.lower_ok and res.upper_ok
        return ok, f"lower {res.lower_ok} upper {res.upper_ok}"

    def formula():
        expected = regular_dim_formula(g.n, k)
        return expected == len(dim), f"formula {expected} actual {len(dim)}"

    def divisibility():
        ok = (g.n * k) % (4 * k - 2) == 0
        return ok, f"{4 * k - 2} divides {g.n * k}: {ok}"

    def cycle_law(law: str):
        return lambda: (getattr(cycles, law), f"cycles checked {cycles.cycles_checked}")

    def partition_regularity():
        # The law itself, on the partition found and the regularity.
        ok = regularity != "neither" and p.num_classes == classes
        return ok, f"classes {p.num_classes}"

    def lists():
        res = _list_properties(g, assignment, lo, k)
        ok = res.disjointness and res.surjective and res.equal_fibers
        return ok, (
            f"disjoint {res.disjointness} surjective {res.surjective} "
            f"equal-fibers {res.equal_fibers}"
        )

    def vertex_divisibility():
        binom = comb(2 * k - 1, k - 1)
        ok = g.n % binom == 0
        return ok, f"{binom} divides {g.n}: {ok}"

    def extremal():
        ok = check_kneser_isomorphism(g, assignment)
        return ok, f"vertices {g.n} = C({2 * k - 1},{k - 1})"

    extremal_order = regular and connected and g.n == comb(2 * k - 1, k - 1)
    # (name, hypothesis beyond the search result, not-applicable reason, run)
    dim_checks = (
        ("three-coloring", True, "no dim", coloring),
        ("edge-count-bound", True, "no dim", edge_bound),
        ("dim-size-invariance", True, "no dim", invariance),
        ("degree-ratio-bounds", lo >= 2,
         "no dim or min degree below 2", bounds),
        ("regular-size-formula", regular, "not regular or no dim", formula),
        ("regular-divisibility", regular, "not regular or no dim", divisibility),
        ("cycle-intersection-bound", True, "no dim", cycle_law("all_bound_ok")),
        ("cycle-intersection-parity", True, "no dim", cycle_law("all_parity_ok")),
        ("short-cycle-intersections", True, "no dim", cycle_law("short_cycle_ok")),
    )
    partition_checks = (
        ("partition-regularity", connected,
         "no partition or graph disconnected", partition_regularity),
        ("list-properties", regularity != "neither",
         "no partition or irregular degree profile", lists),
        ("vertex-count-divisibility", regular,
         "no partition or not regular", vertex_divisibility),
        ("kneser-extremal-case", extremal_order,
         "vertex count differs from the extremal value", extremal),
    )
    # A budget hit after the first DIM leaves only the DIM list unknown.
    entries = [
        _entry(name, maybe_dim and holds, na_reason,
               search_error if run is invariance else dim_error, run)
        for name, holds, na_reason, run in dim_checks
    ] + [
        _entry(name, maybe_partition and holds, na_reason, partition_error, run)
        for name, holds, na_reason, run in partition_checks
    ]

    return VerificationReport(
        vertices=g.n,
        edges=g.m,
        min_degree=lo,
        max_degree=k,
        regularity=regularity,
        dim_exists=dim is not None,
        dim_size=len(dim) if dim is not None else None,
        dim_search_error=dim_error,
        budgets=budgets,
        entries=tuple(entries),
    )
