"""Partitioning edge sets into dominating induced matchings.

For a connected graph whose edges split into DIM color classes, the
number of classes is forced: every class holds exactly one edge of
E(u) union E(v) for any fixed edge uv, so there are d(u) + d(v) - 1
classes, and the graph must be regular or biregular.  The second fact
follows from the first, so the search checks only the first, up front
and over all edges at once.  Then it enumerates each component's DIMs
with the solver's exact-cover engine and runs the same engine once
more to cover the component's edges exactly by those DIMs; every class
of such a cover is a DIM, so the cover is the partition.
:func:`brute_force_dim_partitions` is the assumption-free oracle that
covers the edge set by DIMs from the subset-scan oracle with a search
of its own.

The list assignment sends each vertex to the set of class colors
missing from its incident edges.  A DIM class meets every vertex in
at most one edge, so with k classes vertex v misses exactly k - d(v)
colors.  For an r-regular graph with k = 2r - 1 each list is an
(r-1)-subset of the color set; lists of adjacent vertices are
disjoint, every (r-1)-subset occurs, and all fibers have equal size.
In the biregular case with side degrees (x, y) and k = x + y - 1,
degree-x vertices carry (y-1)-subsets and degree-y vertices carry
(x-1)-subsets, with the same three properties split across the two
target families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Optional

from .graph import Graph, components, degree_profile, induced_subgraph, is_connected
from .solver import (
    EdgeSet,
    _dim_search,
    _ExactCover,
    brute_force_dims,
    classify_dim,
)


@dataclass(frozen=True)
class DimPartition:
    """A total coloring of the edge set whose classes are DIMs.

    Colors are 1-based.  The constructor checks totality, color range,
    and nonempty classes; DIM validity of each class is the producer's
    obligation and is what :func:`verify_dim_partition` re-checks.
    """

    num_classes: int
    color_of: tuple[int, ...]
    classes: tuple[EdgeSet, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_classes < 0:
            raise ValueError("class count must be nonnegative")
        # Checked before the buckets are allocated, so a hostile class
        # count costs no memory.
        if self.num_classes > len(self.color_of):
            raise ValueError("every color class must be nonempty")
        buckets: list[set[int]] = [set() for _ in range(self.num_classes)]
        for eid, c in enumerate(self.color_of):
            if not (1 <= c <= self.num_classes):
                raise ValueError(f"color {c} out of range 1..{self.num_classes}")
            buckets[c - 1].add(eid)
        if any(not b for b in buckets):
            raise ValueError("every color class must be nonempty")
        object.__setattr__(self, "classes", tuple(frozenset(b) for b in buckets))


@dataclass(frozen=True)
class PartitionCheck:
    valid: bool
    class_count_ok: bool
    regularity: str  # "regular" | "biregular" | "neither"


@dataclass(frozen=True)
class ListAssignment:
    """Map from vertices to subsets of the color universe {1..num_labels}."""

    num_labels: int
    lists: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ListCheck:
    disjointness: bool
    surjective: bool
    equal_fibers: bool


def _class_count(g: Graph) -> Optional[int]:
    """The forced class count d(u)+d(v)-1, or None if it varies by edge."""
    counts = {g.degrees[u] + g.degrees[v] - 1 for u, v in g.edges}
    if len(counts) != 1:
        return None
    return counts.pop()


def _search_dims(g: Graph, budget: int, spent: int = 0) -> tuple[list[list[int]], int]:
    """Every DIM of g as a sorted edge list, in the order the exact-cover
    engine finds them, and the node total after the search."""
    search = _dim_search(g, budget, spent)
    return [sorted(sol) for sol in search.solutions()], search.nodes


def _cover_by_dims(
    g: Graph, k: int, budget: int, spent: int, dims: Optional[list[list[int]]]
) -> tuple[Optional[list[int]], int]:
    """Colors of a connected graph's edges in k DIM classes (None if
    there is no such partition), and the nodes spent so far.

    Enumerates the DIMs with the exact-cover engine, unless ``dims``
    already lists them as :func:`_search_dims` does, then runs the same
    engine on the instance whose rows are those DIMs and whose columns
    are the edges.  The first cover found is returned, its classes
    numbered 1..k in order of their smallest edge.  Both searches draw
    on one node budget, of which ``spent`` nodes are already used.
    """
    if dims is None:
        dims, spent = _search_dims(g, budget, spent)
    cols = [0] * g.m
    for i, dim in enumerate(dims):
        for e in dim:
            cols[e] |= 1 << i
    rows = [sum(1 << e for e in dim) for dim in dims]
    cover_search = _ExactCover(rows, cols, budget, spent)
    cover = next(cover_search.solutions(), None)
    if cover is None:
        return None, cover_search.nodes
    # Each DIM holds exactly one edge of E(u) | E(v) for a fixed edge uv,
    # so every exact cover has d(u) + d(v) - 1 classes.
    if len(cover) != k:
        raise RuntimeError(f"cover has {len(cover)} classes, forced count is {k}")
    colors = [0] * g.m
    for color, i in enumerate(sorted(cover, key=lambda i: dims[i][0]), 1):
        for e in dims[i]:
            colors[e] = color
    return colors, cover_search.nodes


def find_dim_partition(
    g: Graph,
    budget: int = 10_000_000,
    dims: Optional[list[list[int]]] = None,
    spent: int = 0,
) -> Optional[DimPartition]:
    """Partition E(g) into DIM classes, or None when impossible.

    Every edge uv must give the same class count d(u)+d(v)-1; this one
    precondition is checked over all of g's edges before any search.
    It also makes every connected component regular or biregular: a
    constant d(u)+d(v) = s makes the degrees alternate between a and
    s-a along every walk, so either a = s-a and the component is
    regular, or the two degree classes are the two sides of a
    bipartition and it is biregular.  Each edge-bearing component is
    then partitioned independently, its classes numbered in order of
    their smallest edge.  The edgeless graph gets the empty partition.
    Raises SearchBudgetExceeded once the searches of all components
    together expand more than ``budget`` nodes, of which ``spent`` are
    already used on entry.

    A caller that has enumerated the DIMs of a connected g with the
    exact-cover engine under the same budget passes them as ``dims``,
    each a sorted edge list in engine order as :func:`_search_dims`
    returns them, and that search's node total as ``spent``; the search
    then covers E(g) by them instead of enumerating again, and builds
    the same partition with the same node count.
    """
    comp_vertex_sets = [c for c in components(g) if any(g.incident[v] for v in c)]
    if not comp_vertex_sets:
        return DimPartition(0, ())
    if dims is not None and len(comp_vertex_sets) > 1:
        raise ValueError("dims can stand in only for a connected graph's DIMs")
    k = _class_count(g)
    if k is None:
        return None

    color_of = [0] * g.m
    for comp in comp_vertex_sets:
        sub, old_vertices = induced_subgraph(g, comp)
        sub_colors, spent = _cover_by_dims(sub, k, budget, spent, dims)
        if sub_colors is None:
            return None
        for local_eid, (a, b) in enumerate(sub.edges):
            eid = g.edge_id(old_vertices[a], old_vertices[b])
            color_of[eid] = sub_colors[local_eid]

    partition = DimPartition(k, tuple(color_of))
    for cls in partition.classes:
        witness = classify_dim(g, cls)
        if not witness.is_valid:
            raise RuntimeError(
                f"partition search produced a non-DIM class "
                f"({witness.classification.value})"
            )
    return partition


def verify_dim_partition(g: Graph, p: DimPartition) -> PartitionCheck:
    """Re-check a partition from scratch against its graph.

    ``valid`` holds when every class is a DIM; ``class_count_ok`` when
    the class count equals d(u)+d(v)-1 for every edge uv.  Regularity
    is read off the degree profile and reported rather than assumed.
    """
    if len(p.color_of) != g.m:
        raise ValueError(
            f"partition colors {len(p.color_of)} edges, graph has {g.m}"
        )
    valid = all(classify_dim(g, cls).is_valid for cls in p.classes)
    count_ok = all(
        p.num_classes == g.degrees[u] + g.degrees[v] - 1 for u, v in g.edges
    )
    return PartitionCheck(
        valid=valid, class_count_ok=count_ok, regularity=degree_profile(g).regularity
    )


def list_assignment(g: Graph, p: DimPartition) -> ListAssignment:
    """Assign each vertex the set of class colors absent at that vertex."""
    for cls in p.classes:
        witness = classify_dim(g, cls)
        if not witness.is_valid:
            raise ValueError(
                f"partition class is not a DIM ({witness.classification.value})"
            )
    if len(p.color_of) != g.m:
        raise ValueError("partition does not color this graph")
    universe = frozenset(range(1, p.num_classes + 1))
    lists = []
    for v in range(g.n):
        incident_colors = {p.color_of[e] for e in g.incident[v]}
        lists.append(universe - incident_colors)
    return ListAssignment(p.num_classes, tuple(lists))


def verify_list_properties(g: Graph, assignment: ListAssignment) -> ListCheck:
    """Check disjointness along edges, surjectivity, and equal fibers.

    The graph must be regular or biregular, with smallest degree lo and
    largest hi.  The color universe then has k = lo + hi - 1 colors (0
    for the edgeless graph), and vertex v misses exactly k - d(v) of
    them, so its list must have k - d(v) colors.  The target family is
    every subset of the universe of size k - lo or k - hi (one size in
    the regular case, two in the biregular case).  Fiber sizes are
    compared across the whole combined family, not only disjoint pairs.
    """
    profile = degree_profile(g)
    if profile.regularity == "neither":
        raise ValueError("degree profile is neither regular nor biregular")
    lo, hi = profile.min_degree, profile.max_degree
    k = max(lo + hi - 1, 0)
    if assignment.num_labels != k:
        raise ValueError(
            f"label universe has {assignment.num_labels} colors, expected {k}"
        )
    if len(assignment.lists) != g.n:
        raise ValueError("assignment does not cover every vertex")
    for v in range(g.n):
        if len(assignment.lists[v]) != k - g.degrees[v]:
            raise ValueError(
                f"vertex {v} has a list of size {len(assignment.lists[v])}, "
                f"expected {k - g.degrees[v]}"
            )

    disjoint = all(
        not (assignment.lists[u] & assignment.lists[v]) for u, v in g.edges
    )

    fibers: dict[frozenset[int], int] = {}
    for size in sorted({k - lo, k - hi}):
        for combo in itertools.combinations(range(1, assignment.num_labels + 1), size):
            fibers[frozenset(combo)] = 0
    for v in range(g.n):
        lst = assignment.lists[v]
        if lst in fibers:
            fibers[lst] += 1
    surjective = all(count > 0 for count in fibers.values())
    equal_fibers = len(set(fibers.values())) <= 1
    return ListCheck(
        disjointness=disjoint, surjective=surjective, equal_fibers=equal_fibers
    )


def check_kneser_isomorphism(g: Graph, assignment: ListAssignment) -> bool:
    """Does the list assignment exhibit g as the disjointness graph on
    (r-1)-subsets of 2r-1 colors?

    True exactly when the vertex count equals C(2r-1, r-1), the lists
    hit every (r-1)-subset of {1..2r-1} once, and two vertices are
    adjacent iff their lists are disjoint.  Requires a connected
    regular graph.

    Only the edges need checking.  Once the lists are C(2r-1, r-1)
    distinct (r-1)-subsets of {1..2r-1}, they are all of them, and each
    is disjoint from exactly C(r, r-1) = r others.  A vertex of the
    r-regular graph g whose r neighbors all carry lists disjoint from
    its own is therefore adjacent to exactly the vertices whose lists
    are disjoint from its own.  So "every edge joins disjoint lists"
    already gives "adjacent iff disjoint", in time linear in the edges.
    """
    profile = degree_profile(g)
    if not profile.is_regular:
        raise ValueError("graph is not regular")
    if not is_connected(g):
        raise ValueError("graph is not connected")
    r = profile.max_degree
    if assignment.num_labels != 2 * r - 1 or len(assignment.lists) != g.n:
        raise ValueError("assignment shape does not match an r-regular partition")

    lists = assignment.lists
    if g.n != comb(2 * r - 1, r - 1):
        return False
    if len(set(lists)) != g.n:
        return False
    universe = frozenset(range(1, 2 * r))
    if any(len(lst) != r - 1 or not universe.issuperset(lst) for lst in lists):
        return False
    return all(lists[u].isdisjoint(lists[v]) for u, v in g.edges)


def brute_force_dim_partitions(g: Graph) -> list[tuple[EdgeSet, ...]]:
    """Oracle: all partitions of E(g) into DIMs, with no structural shortcuts.

    Enumerates every DIM via the subset-scan oracle and searches for
    exact covers of the edge set among them, so no degree or class
    count law is assumed.  Each partition is a tuple of classes sorted
    by smallest edge id.  Intended for graphs with few edges.
    """
    if g.m == 0:
        return [()]
    dims = [d for d in brute_force_dims(g) if d]
    masks = [sum(1 << e for e in d) for d in dims]
    full = (1 << g.m) - 1
    results: list[tuple[EdgeSet, ...]] = []

    def cover(remaining: int, chosen: list[int]) -> None:
        if remaining == 0:
            results.append(tuple(sorted((dims[i] for i in chosen), key=min)))
            return
        lowest = (remaining & -remaining).bit_length() - 1
        for i in range(len(dims)):
            if masks[i] >> lowest & 1 and not (masks[i] & ~remaining):
                chosen.append(i)
                cover(remaining & ~masks[i], chosen)
                chosen.pop()

    cover(full, [])
    results.sort(key=lambda p: tuple(sorted(tuple(sorted(c)) for c in p)))
    return results
