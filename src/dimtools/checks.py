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

:func:`full_report` runs all of them on one graph from one table,
``_CHECKS``, with a row per report entry in report order.  A row declares
its check once: the name, the not-applicable reason, the search whose
budget error it reads (the DIM search up to its first DIM, the whole DIM
list, or the partition search), its hypothesis and its run.  The
hypothesis and the run read one per-report :class:`_Facts`, which holds
each fact the checks share, computed once: the extreme degrees and the
regularity, the DIMs, the connectivity, the cycle-law result for one
DIM, and the DIM partition with its list assignment.  One walk of the
solver's searches of the components (:class:`~dimtools.solver._Parts`)
gives the DIM that :func:`~dimtools.solver.find_dim` returns, each
component's DIM list and the partition that
:func:`~dimtools.partition.find_dim_partition` finds, on one node
counter; the DIM count is the product of the lists' lengths, refused
past the budget as :func:`~dimtools.solver.enumerate_dims` refuses it.

Every row follows one rule.  A check whose hypothesis fails is not
applicable ("na").  A check that applies while its search ran out of
budget is an "error" entry; where the DIM search ran out before a DIM,
whether one exists is unknown, so every check that needs one applies as
far as the rest of its hypothesis goes.  Otherwise the run says "pass"
or "fail"; no run searches.  A budget hit never reads as "no DIM" or "no
partition".  A row's not-applicable entry is built once per process and
shared, immutable, by every report.  A graph with no DIM, found by a
search that did not run out, gets the tuple of them all, ``_NO_DIM``,
and nothing else is computed beyond the split into components that the
search needs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import comb, gcd, prod
from typing import Callable, Literal, Optional

from .graph import Graph, _cycle_walk, _regularity
from .partition import (
    DimPartition,
    ListAssignment,
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
    _Nodes,
    _Parts,
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


Outcome = Literal["pass", "fail", "na", "error"]


@dataclass(frozen=True)
class CheckEntry:
    """One report entry.  ``outcome`` is "pass" or "fail" when the check
    ran, "na" when its hypothesis fails, and "error" when a search it
    reads ran out of budget; ``error`` then says how."""

    name: str
    outcome: Outcome
    details: str
    error: Optional[str] = None

    @property
    def applicable(self) -> bool:
        return self.outcome != "na"

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def as_dict(self) -> dict:
        return {"name": self.name, "applicable": self.applicable, "passed": self.passed,
                "details": self.details, "error": self.error}


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
        return all(e.outcome in ("pass", "na") for e in self.entries)

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


@dataclass
class _Facts:
    """What one report knows of its graph.  Every row of ``_CHECKS``
    reads its hypothesis and its run off it; a run reads only the facts
    that its hypothesis and a search without budget error guarantee."""

    g: Graph
    lo: int
    k: int  # the largest degree
    regularity: str
    regular: bool
    connected: bool
    # The budget error, or None, of each search a row can read: "dim" up
    # to the first DIM, "dims" the whole DIM list, "partition".
    errors: dict[str, Optional[str]]
    # Each part's DIMs, as the searches list them.
    dims: list[list[list[int]]]
    dim: Optional[EdgeSet]
    cycles: Optional[CycleIntersectionCheck]
    # The partition search found a partition or ran out of budget.
    maybe_partition: bool
    classes: Optional[int]
    p: Optional[DimPartition]
    assignment: Optional[ListAssignment]


class _Check:
    """One row of the report table, declaring one check: its name and its
    not-applicable reason (kept as its shared not-applicable entry
    ``na``), the search whose budget error it reads (a key of
    ``_Facts.errors``), its hypothesis beyond that search's result, and
    its run, which maps the facts to ``(passed, details)``."""

    def __init__(
        self, name: str, reason: str, search: str,
        applies: Callable[[_Facts], bool], run: Callable[[_Facts], tuple[bool, str]],
    ) -> None:
        self.na = CheckEntry(name, "na", reason)
        self.search, self.applies, self.run = search, applies, run

    def entry(self, f: _Facts) -> CheckEntry:
        if not self.applies(f):
            return self.na
        error = f.errors[self.search]
        if error is not None:
            return CheckEntry(self.na.name, "error", "budget exhausted", error)
        passed, details = self.run(f)
        return CheckEntry(self.na.name, "pass" if passed else "fail", details)


def _always(f: _Facts) -> bool:
    return True


def _run_coloring(f: _Facts) -> tuple[bool, str]:
    used = sorted(set(_coloring(f.g, f.dim).color_of))
    return True, "proper coloring with colors " + ",".join(map(str, used))


def _run_edge_bound(f: _Facts) -> tuple[bool, str]:
    four_bound = f.g.n * f.g.n + f.g.n
    return 4 * f.g.m <= four_bound, f"edges {f.g.m} vs bound {_quarter(four_bound)}"


def _run_bounds(f: _Facts) -> tuple[bool, str]:
    res = check_dim_bounds(f.g, f.dim)
    return res.lower_ok and res.upper_ok, f"lower {res.lower_ok} upper {res.upper_ok}"


def _run_formula(f: _Facts) -> tuple[bool, str]:
    expected = regular_dim_formula(f.g.n, f.k)
    return expected == len(f.dim), f"formula {expected} actual {len(f.dim)}"


def _run_divisibility(f: _Facts) -> tuple[bool, str]:
    ok = regular_dim_formula(f.g.n, f.k) is not None
    return ok, f"{4 * f.k - 2} divides {f.g.n * f.k}: {ok}"


def _run_lists(f: _Facts) -> tuple[bool, str]:
    res = _list_properties(f.g, f.assignment, f.lo, f.k)
    return res.disjointness and res.surjective and res.equal_fibers, (
        f"disjoint {res.disjointness} surjective {res.surjective} "
        f"equal-fibers {res.equal_fibers}"
    )


def _run_vertex_divisibility(f: _Facts) -> tuple[bool, str]:
    binom = comb(2 * f.k - 1, f.k - 1)
    ok = f.g.n % binom == 0
    return ok, f"{binom} divides {f.g.n}: {ok}"


# Every check of a report, in report order: name, not-applicable reason,
# search, hypothesis and run.
_CHECKS = (
    _Check("three-coloring", "no dim", "dim", _always, _run_coloring),
    _Check("edge-count-bound", "no dim", "dim", _always, _run_edge_bound),
    # g's DIMs are the product of its parts', so they have one size
    # exactly when each part's do.
    _Check("dim-size-invariance", "no dim", "dims", _always,
           lambda f: (all(len({len(d) for d in found}) <= 1 for found in f.dims),
                      f"dim count {prod(map(len, f.dims))}")),
    _Check("degree-ratio-bounds", "no dim or min degree below 2", "dim",
           lambda f: f.lo >= 2, _run_bounds),
    _Check("regular-size-formula", "not regular or no dim", "dim",
           lambda f: f.regular, _run_formula),
    _Check("regular-divisibility", "not regular or no dim", "dim",
           lambda f: f.regular, _run_divisibility),
    _Check("cycle-intersection-bound", "no dim", "dim", _always,
           lambda f: (f.cycles.all_bound_ok, f"cycles checked {f.cycles.cycles_checked}")),
    _Check("cycle-intersection-parity", "no dim", "dim", _always,
           lambda f: (f.cycles.all_parity_ok, f"cycles checked {f.cycles.cycles_checked}")),
    _Check("short-cycle-intersections", "no dim", "dim", _always,
           lambda f: (f.cycles.short_cycle_ok, f"cycles checked {f.cycles.cycles_checked}")),
    # The law itself, on the partition found and the regularity.
    _Check("partition-regularity", "no partition or graph disconnected", "partition",
           lambda f: f.maybe_partition and f.connected,
           lambda f: (f.regularity != "neither" and f.p.num_classes == f.classes,
                      f"classes {f.p.num_classes}")),
    _Check("list-properties", "no partition or irregular degree profile", "partition",
           lambda f: f.maybe_partition and f.regularity != "neither", _run_lists),
    _Check("vertex-count-divisibility", "no partition or not regular", "partition",
           lambda f: f.maybe_partition and f.regular, _run_vertex_divisibility),
    _Check("kneser-extremal-case", "vertex count differs from the extremal value", "partition",
           lambda f: (f.maybe_partition and f.regular and f.connected
                      and f.g.n == comb(2 * f.k - 1, f.k - 1)),
           lambda f: (check_kneser_isomorphism(f.g, f.assignment),
                      f"vertices {f.g.n} = C({2 * f.k - 1},{f.k - 1})")),
)
# The entries of every report on a graph with no DIM and no budget hit.
_NO_DIM = tuple(row.na for row in _CHECKS)


def full_report(g: Graph, budgets: Budgets = Budgets()) -> VerificationReport:
    """Run every applicable check on one graph and aggregate the results.

    The shared facts are computed once and every entry follows the
    rule in the module docstring, so budget exhaustion is recorded on
    the entries it affects and never aborts the rest of the report.
    Output is deterministic for fixed inputs and budgets.
    """
    lo, k, regularity = _regularity(g)

    # One walk of the parts' searches gives the DIM, the DIM lists and the
    # partition, on one counter, each step as the public search takes it.
    parts = _Parts(g, _Nodes(budgets.search_nodes))
    dim = dims = refused = classes = p = assignment = error = None
    try:
        first = parts.first()
        if first is None:
            return VerificationReport(
                g.n, g.m, lo, k, regularity, False, None, None, budgets, _NO_DIM
            )
        # The one check that the engine's DIM is a DIM; the runs that read
        # it call cores that take it as given.
        dim = _valid_dim(g, first)
        classes = _class_count(g)
        dims = parts.all_dims()
        refused = parts.refusal()
        # No partition exists without one class count on every edge.
        found = classes and _search_partition(g, classes, parts)
    except SearchBudgetExceeded as exc:
        error = str(exc)
    else:
        if found:
            p, colors_at = found
            assignment = _lists(classes, colors_at)
    # A budget hit before the first DIM leaves it unknown whether a DIM
    # exists, and so whether a partition does; a hit after it leaves the
    # DIM lists incomplete, or the partition search unfinished.
    dim_error = None if dim is not None else error
    dims_error = error if dims is None else refused and str(refused)
    partition_error = error if dim is None or classes else None
    cycles = _cycle_laws(g, dim, budgets.max_cycle_len) if dim is not None else None

    facts = _Facts(
        g, lo, k, regularity, lo == k >= 1, parts.connected,
        {"dim": dim_error, "dims": dims_error, "partition": partition_error},
        dims, dim, cycles,
        (p is not None or partition_error is not None) and g.m > 0,
        classes, p, assignment,
    )
    return VerificationReport(
        g.n, g.m, lo, k, regularity, dim_exists=dim is not None,
        dim_size=len(dim) if dim is not None else None, dim_search_error=dim_error,
        budgets=budgets, entries=tuple(row.entry(facts) for row in _CHECKS),
    )
