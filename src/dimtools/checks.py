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
each is built once per process and shared, immutable, by every report;
a graph with no DIM, found by a search that did not run out, gets one
shared tuple of them and nothing else is computed.  The engine's DIM is
checked with :func:`~dimtools.solver.classify_dim` once per report, and
the coloring and cycle entries read it through private cores that do
not check it again.  The cycle laws are counted on the cycle walk of
:func:`~dimtools.graph.enumerate_cycles`, with no ``Cycle`` built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import comb, gcd
from typing import Callable, Collection, Optional, Sequence

from .graph import EdgeId, Graph, _cycle_walk, _regularity, components
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


def _valid_dim(g: Graph, dim: EdgeSet) -> EdgeSet:
    """``dim`` as a frozenset, after checking that it is a DIM of g."""
    witness = classify_dim(g, dim)
    if not witness.is_valid:
        raise ValueError(f"not a valid DIM ({witness.classification.value})")
    return witness.edges


def three_coloring_from_dim(g: Graph, dim: EdgeSet) -> Coloring:
    """Proper 3-coloring derived from a DIM.

    The lower endpoint of each matched edge gets color 1, the upper
    color 2, and every unmatched vertex color 3.  Properness is
    checked before returning.
    """
    return _coloring(g, _valid_dim(g, dim))


def _coloring(g: Graph, dim: EdgeSet) -> Coloring:
    """:func:`three_coloring_from_dim` for a ``dim`` already known to be
    a DIM of g."""
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
    has_dim = dim is not None
    return EdgeBoundCheck(
        applicable=has_dim,
        bound=Fraction(g.n * g.n + g.n, 4),
        holds=has_dim and 4 * g.m <= g.n * g.n + g.n,
    )


def _quarter(x: int) -> str:
    """``str(Fraction(x, 4))`` for x >= 0, without building the Fraction."""
    d = gcd(x, 4)
    return str(x // d) if d == 4 else f"{x // d}/{4 // d}"


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
    return _cycle_laws(g, _valid_dim(g, dim), max_len)


def _cycle_laws(g: Graph, dim: EdgeSet, max_len: int) -> CycleIntersectionCheck:
    """:func:`check_cycle_intersections` for a ``dim`` already known to be
    a DIM of g: the DIM edges of each cycle are counted as the walk finds
    it, with no :class:`~dimtools.graph.Cycle` built."""
    bound_ok = parity_ok = short_ok = True
    checked = 0
    in_dim = dim.__contains__
    for path, ids in _cycle_walk(g, max_len):
        checked += 1
        r = len(path)
        hits = sum(map(in_dim, ids))
        if hits > r // 3:
            bound_ok = False
        if hits % 2 != r % 2:
            parity_ok = False
        if r in (3, 5, 7) and hits != 1:
            short_ok = False
        if r == 4 and hits != 0:
            short_ok = False
    return CycleIntersectionCheck(bound_ok, parity_ok, short_ok, checked)


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


def _not_applicable(*checks: tuple[str, str]) -> tuple[CheckEntry, ...]:
    """The not-applicable entry of each ``(name, reason)`` check."""
    return tuple(
        CheckEntry(name, applicable=False, passed=False, details=reason)
        for name, reason in checks
    )


# Every check of a report, in report order, as its not-applicable entry.
# That entry depends only on the check's name and reason, so it is built
# once per process and shared, immutable, by every report.
_DIM_CHECKS = _not_applicable(
    ("three-coloring", "no dim"),
    ("edge-count-bound", "no dim"),
    ("dim-size-invariance", "no dim"),
    ("degree-ratio-bounds", "no dim or min degree below 2"),
    ("regular-size-formula", "not regular or no dim"),
    ("regular-divisibility", "not regular or no dim"),
    ("cycle-intersection-bound", "no dim"),
    ("cycle-intersection-parity", "no dim"),
    ("short-cycle-intersections", "no dim"),
)
_PARTITION_CHECKS = _not_applicable(
    ("partition-regularity", "no partition or graph disconnected"),
    ("list-properties", "no partition or irregular degree profile"),
    ("vertex-count-divisibility", "no partition or not regular"),
    ("kneser-extremal-case", "vertex count differs from the extremal value"),
)
# The entries of every report on a graph with no DIM and no budget hit.
_NO_DIM = _DIM_CHECKS + _PARTITION_CHECKS


def _entry(
    na: CheckEntry,
    applies: bool,
    search_error: Optional[str],
    run: Callable[[], tuple[bool, str]],
) -> CheckEntry:
    """One report entry: ``na``, the check's not-applicable entry, a budget
    error, or the result ``(passed, details)`` of ``run``."""
    if not applies:
        return na
    if search_error is not None:
        return CheckEntry(na.name, True, False, "budget exhausted", error=search_error)
    return CheckEntry(na.name, True, *run())


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
            dims.append(sol)
    except SearchBudgetExceeded as exc:
        search_error = str(exc)
    # The one check that the engine's DIM is a DIM; the checks below that
    # read it call cores that take it as given.
    dim = _valid_dim(g, dims[0]) if dims else None
    # A budget hit before the first solution leaves it unknown whether a
    # DIM exists; a hit after it leaves the DIM list incomplete.
    dim_error = None if dims else search_error
    if dim is None and dim_error is None:
        # No check applies, so nothing else is computed, the components
        # included.
        return VerificationReport(
            g.n, g.m, lo, k, regularity, False, None, None, budgets, _NO_DIM
        )
    comps = components(g)
    connected = len(comps) <= 1

    cycles: Optional[CycleIntersectionCheck] = None
    p: Optional[DimPartition] = None
    partition_error = dim_error
    assignment = None
    if dim is not None:
        cycles = _cycle_laws(g, dim, budgets.max_cycle_len)
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
        used = sorted(set(_coloring(g, dim).color_of))
        return True, "proper coloring with colors " + ",".join(map(str, used))

    def edge_bound():
        four_bound = g.n * g.n + g.n
        return 4 * g.m <= four_bound, f"edges {g.m} vs bound {_quarter(four_bound)}"

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
    # (hypothesis beyond the search result, run) of each check, in the
    # order of _DIM_CHECKS and _PARTITION_CHECKS.
    dim_runs = (
        (True, coloring),
        (True, edge_bound),
        (True, invariance),
        (lo >= 2, bounds),
        (regular, formula),
        (regular, divisibility),
        (True, cycle_law("all_bound_ok")),
        (True, cycle_law("all_parity_ok")),
        (True, cycle_law("short_cycle_ok")),
    )
    partition_runs = (
        (connected, partition_regularity),
        (regularity != "neither", lists),
        (regular, vertex_divisibility),
        (extremal_order, extremal),
    )
    # A budget hit after the first DIM leaves only the DIM list unknown.
    entries = [
        _entry(na, holds, search_error if run is invariance else dim_error, run)
        for na, (holds, run) in zip(_DIM_CHECKS, dim_runs, strict=True)
    ] + [
        _entry(na, maybe_partition and holds, partition_error, run)
        for na, (holds, run) in zip(_PARTITION_CHECKS, partition_runs, strict=True)
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
