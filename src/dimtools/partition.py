"""Partitioning edge sets into dominating induced matchings.

For a connected graph whose edges split into DIM color classes, the
number of classes is forced: every class holds exactly one edge of
E(u) union E(v) for any fixed edge uv, so there are d(u) + d(v) - 1
classes, and the graph must be regular or biregular.  The second fact
follows from the first, so the search checks only the first, up front
and over all edges at once.  Then it enumerates each component's DIMs
with the solver's exact-cover engine and runs the same engine once
more to cover the component's edges exactly by those DIMs; every class
of such a cover is a DIM, so the cover is the partition.  The solver
builds both instances: this module hands it the DIMs as edge lists and
reads back which of them cover.
:func:`brute_force_dim_partitions` is the assumption-free oracle that
covers the edge set by DIMs from the subset-scan oracle with a search
of its own.

Whether every class of a given coloring is a DIM is decided from the
vertices' sets of incident colors, held as bitmasks
(:func:`_incident_colors`), for :func:`verify_dim_partition`, for
:func:`list_assignment` and for the search's postcondition;
:func:`~dimtools.solver.classify_dim` runs per class only to name the
failure.  A graph below ``_ARRAY_MIN_EDGES`` edges, or a coloring of
more than 62 classes, takes one Python pass over the vertices and one
over the edges.  Larger ones take an array pass: the edge ends and
colors are read into int arrays once, each vertex's mask is an OR over
its edges, and the per-edge tests are whole-array compares; the lists
are then read off the masks' missing bits.  Both give the same answers,
lists and errors.  The search returns those sets, so
:func:`~dimtools.checks.full_report` builds its list assignment from
them; the report passes its class count, components, DIM list and node
counter down.

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

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import Optional, Union

import numpy as np

from .graph import Graph, _regularity, components, induced_subgraph
from .solver import (
    DEFAULT_BUDGET,
    DimClass,
    EdgeSet,
    _cover_search,
    _dim_search,
    _Nodes,
    brute_force_dims,
    classify_dim,
)

# _incident_colors takes its array pass on graphs of this many edges or
# more.  Loops over array pass, as time ratios: each call timed alone
# between unrelated calls, as the benchmark runs its ops, medians of
# 40-60 rounds (CPython 3.11, numpy 2.4, 2-vCPU VM; the closed-form
# partitions, and the 3-class partition of the cycle C_3j).  The second
# session ran at about half the first one's speed, and there numpy's
# fixed cost per call weighed more:
#
#   graph     edges   k    _incident_colors     list_assignment
#                          first    second      first    second
#   KG(7,3)      70   7    0.26x    0.27x       0.46x    0.45x
#   BG(3,3)     140   7    0.66x    0.50x       0.74x    0.69x
#   C192        192   3    0.97x    0.69x       0.86x    0.80x
#   C255        255   3    1.08x    0.83x       0.93x    0.89x
#   BG(3,4)     280   8    1.00x    0.81x       1.04x    0.98x
#   KG(9,4)     315   9    1.08x    0.84x       1.11x    1.04x
#   C384        384   3    1.20x    0.97x       1.01x    0.96x
#   BG(3,5)     504   9    1.22x    1.00x       1.27x    1.25x
#   C510        510   3    1.29x    1.08x       1.03x    1.04x
#   BG(4,4)     630   9    1.30x    1.08x       1.29x    1.28x
#   C768        768   3    1.34x    1.23x       1.05x    1.08x
#   BG(4,5)    1260  10    1.39x    1.26x       1.44x    1.45x
#   KG(11,5)   1386  11    1.45x    1.30x       1.48x    1.50x
#   BG(5,5)    2772  11    1.47x    1.44x       1.45x    1.48x
#   KG(13,6)   6006  13    1.52x    1.54x       1.55x    1.58x
#
# From 500 edges on the array pass was no slower in either session.
# Sweep graphs on at most 8 vertices have at most 28 edges, so they
# never take it.
_ARRAY_MIN_EDGES = 500
# Colors 1..62 set bits 1..62, so every mask, the full one 2**63 - 2
# included, is a nonnegative int64.
_ARRAY_MAX_CLASSES = 62

# Each vertex's incident colors as bitmasks: a list of ints from the
# loops of _incident_colors, an int64 array from its array pass.
_Masks = Union[list[int], np.ndarray]


@dataclass(frozen=True)
class DimPartition:
    """A total coloring of the edge set whose classes are DIMs.

    Colors are 1-based.  The constructor checks totality, color range,
    and nonempty classes; DIM validity of each class is the producer's
    obligation and is what :func:`verify_dim_partition` re-checks.
    The classes are not stored: :attr:`classes` rebuilds them from
    ``color_of`` on each read.
    """

    num_classes: int
    color_of: tuple[int, ...]

    def __post_init__(self) -> None:
        k = self.num_classes
        if k < 0:
            raise ValueError("class count must be nonnegative")
        # More classes than edges leaves one empty whatever the colors,
        # and is reported before any color is read.
        if k > len(self.color_of):
            raise ValueError("every color class must be nonempty")
        used = set(self.color_of)
        if used and not (1 <= min(used) and max(used) <= k):
            bad = next(c for c in self.color_of if not 1 <= c <= k)
            raise ValueError(f"color {bad} out of range 1..{k}")
        if len(used) != k:
            raise ValueError("every color class must be nonempty")

    @property
    def classes(self) -> tuple[EdgeSet, ...]:
        """The edge ids of each color, color 1 first."""
        buckets: list[list[int]] = [[] for _ in range(self.num_classes)]
        for eid, c in enumerate(self.color_of):
            buckets[c - 1].append(eid)
        return tuple(map(frozenset, buckets))


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


def _cover_by_dims(
    g: Graph, k: int, budget: _Nodes, dims: Optional[list[list[int]]]
) -> Optional[list[int]]:
    """Colors of a connected graph's edges in k DIM classes, or None if
    there is no such partition.

    Enumerates the DIMs with the solver's DIM search, each as a sorted
    edge list in the order found, unless ``dims`` already lists them so,
    then hands those lists to the solver as the rows of a cover instance
    whose columns are the edges.  The first cover found is returned, its
    classes numbered 1..k in order of their smallest edge.  Both
    searches draw on ``budget``.
    """
    if dims is None:
        dims = list(_dim_search(g, budget).solutions())
    cover = next(_cover_search(dims, g.m, budget).solutions(), None)
    if cover is None:
        return None
    # Each DIM holds exactly one edge of E(u) | E(v) for a fixed edge uv,
    # so every exact cover has d(u) + d(v) - 1 classes.
    if len(cover) != k:
        raise RuntimeError(f"cover has {len(cover)} classes, forced count is {k}")
    colors = [0] * g.m
    for color, i in enumerate(sorted(cover, key=lambda i: dims[i][0]), 1):
        for e in dims[i]:
            colors[e] = color
    return colors


def find_dim_partition(g: Graph, budget: int = DEFAULT_BUDGET) -> Optional[DimPartition]:
    """Partition E(g) into DIM classes, or None when impossible.

    Every edge uv must give the same class count d(u)+d(v)-1; this one
    precondition is checked over all of g's edges before any search, and
    before the components are found, so a graph that fails it costs no
    BFS.  It also makes every connected component regular or biregular:
    a constant d(u)+d(v) = s makes the degrees alternate between a and
    s-a along every walk, so either a = s-a and the component is
    regular, or the two degree classes are the two sides of a
    bipartition and it is biregular.  Each edge-bearing component is
    then partitioned independently, its classes numbered in order of
    their smallest edge.  The edgeless graph gets the empty partition.
    Raises SearchBudgetExceeded once the searches of all components
    together expand more than ``budget`` nodes.
    """
    if not g.edges:
        return DimPartition(0, ())
    k = _class_count(g)
    if k is None:
        return None
    found = _search_partition(g, k, _Nodes(budget), components(g))
    return found[0] if found else None


def _search_partition(
    g: Graph, k: int, budget: _Nodes, comps: list[list[int]],
    dims: Optional[list[list[int]]] = None,
) -> Optional[tuple[DimPartition, _Masks]]:
    """:func:`find_dim_partition` on a g with edges, forced class count
    k and components ``comps``, drawing on ``budget``: the partition and
    each vertex's incident colors, or None.

    A caller that has enumerated the DIMs of a connected g on the same
    counter passes them as ``dims``, as :func:`_cover_by_dims` lists
    them; the search covers E(g) by them instead of enumerating again,
    with the same partition and node count.
    """
    color_of = [0] * g.m
    for comp in (c for c in comps if any(g.incident[v] for v in c)):
        sub, old_vertices = induced_subgraph(g, comp)
        sub_colors = _cover_by_dims(sub, k, budget, dims)
        if sub_colors is None:
            return None
        if sub is g:
            color_of = sub_colors
            continue
        for local_eid, (a, b) in enumerate(sub.edges):
            eid = g.edge_id(old_vertices[a], old_vertices[b])
            color_of[eid] = sub_colors[local_eid]

    partition = DimPartition(k, tuple(color_of))
    colors_at = _incident_colors(g, partition)
    if colors_at is None:
        raise RuntimeError(
            f"partition search produced a non-DIM class "
            f"({_first_non_dim(g, partition).value})"
        )
    return partition, colors_at


def _incident_colors(g: Graph, p: DimPartition) -> Optional[_Masks]:
    """Each vertex's set C(v) of incident edge colors, as a bitmask with
    bit c set for color c, or None unless every class of p is a DIM of
    g; p must color g's edges.

    One pass over the vertices and one over the edges decide all classes
    at once.  A color repeated at a vertex means its class is not a
    matching; then C(v) has fewer colors than v has edges.  Given
    matchings, an edge uv whose endpoints share a color other than uv's
    own lies outside that class with both ends covered by it, so every
    class is induced exactly when C(u) & C(v) is uv's color alone on
    every edge; and color c dominates uv exactly when c is in
    C(u) | C(v), so every class is dominating exactly when C(u) | C(v)
    holds all k colors on every edge.

    Graphs of at least ``_ARRAY_MIN_EDGES`` edges colored in at most
    ``_ARRAY_MAX_CLASSES`` classes take :func:`_incident_colors_array`,
    which returns the masks as an int64 array; the rest take this
    function's loops, which return a list.
    """
    if g.m >= _ARRAY_MIN_EDGES and p.num_classes <= _ARRAY_MAX_CLASSES:
        return _incident_colors_array(g, p)
    bit = [1 << c for c in p.color_of]
    colors_at = []
    for inc in g.incident:
        colors = 0
        for e in inc:
            colors |= bit[e]
        if colors.bit_count() != len(inc):
            return None
        colors_at.append(colors)
    full = (1 << (p.num_classes + 1)) - 2
    for (u, v), b in zip(g.edges, bit):
        cu, cv = colors_at[u], colors_at[v]
        if cu & cv != b or cu | cv != full:
            return None
    return colors_at


def _incident_colors_array(g: Graph, p: DimPartition) -> Optional[np.ndarray]:
    """:func:`_incident_colors` by whole-array operations, for a p of at
    most ``_ARRAY_MAX_CLASSES`` classes: the masks as an int64 array, or
    None.

    The edge ends and colors are read once; each vertex's mask is the OR
    of its edges' color bits.  No mask has more colors than its vertex
    has edges, so the masks' colors, counted bit by bit, add up to the
    2m edge ends exactly when no color repeats at a vertex.  The count
    is exact for every k, where comparing each mask with the sum of its
    bits would not be: in int64 five copies of 2**62 sum to 2**62.
    """
    k = p.num_classes
    ends = np.fromiter(chain.from_iterable(g.edges), np.intp, 2 * g.m)
    bit = np.left_shift(1, np.fromiter(p.color_of, np.int64, g.m))
    colors_at = np.zeros(g.n, np.int64)
    np.bitwise_or.at(colors_at, ends, np.repeat(bit, 2))
    if np.count_nonzero(_color_table(k, colors_at)) != 2 * g.m:
        return None
    cu, cv = colors_at[ends[0::2]], colors_at[ends[1::2]]
    full = (1 << (k + 1)) - 2
    if (cu & cv != bit).any() or (cu | cv != full).any():
        return None
    return colors_at


def _color_table(k: int, colors_at: np.ndarray) -> np.ndarray:
    """The (n, k) table whose entry (v, c - 1) is True when color c is
    in the mask ``colors_at[v]``."""
    return (colors_at[:, None] & (2 << np.arange(k, dtype=np.int64))) != 0


def _first_non_dim(g: Graph, p: DimPartition) -> DimClass:
    """How the first class of p that is not a DIM of g fails, by
    :func:`~dimtools.solver.classify_dim`; p must color g's edges and
    fail :func:`_incident_colors`."""
    for cls in p.classes:
        witness = classify_dim(g, cls)
        if not witness.is_valid:
            return witness.classification
    raise RuntimeError("one-pass partition check disagrees with classify_dim")


def verify_dim_partition(g: Graph, p: DimPartition) -> PartitionCheck:
    """Re-check a partition from scratch against its graph.

    ``valid`` holds when every class is a DIM; ``class_count_ok`` when
    the class count equals d(u)+d(v)-1 for every edge uv.  Regularity
    is read off the degree profile and reported rather than assumed.

    A valid p already settles the count, so only an invalid one walks
    the edges for it.  When :func:`_incident_colors` accepts p, on every
    edge uv the set C(u) of colors at u has d(u) colors, C(u) & C(v) is
    uv's color alone and C(u) | C(v) holds all k colors, so
    d(u) + d(v) - 1 = |C(u) | C(v)| = k.
    """
    if len(p.color_of) != g.m:
        raise ValueError(
            f"partition colors {len(p.color_of)} edges, graph has {g.m}"
        )
    valid = _incident_colors(g, p) is not None
    count_ok = valid or not g.edges or _class_count(g) == p.num_classes
    return PartitionCheck(valid=valid, class_count_ok=count_ok, regularity=_regularity(g)[2])


def list_assignment(g: Graph, p: DimPartition) -> ListAssignment:
    """Assign each vertex the set of class colors absent at that vertex."""
    if len(p.color_of) != g.m:
        raise ValueError("partition does not color this graph")
    colors_at = _incident_colors(g, p)
    if colors_at is None:
        raise ValueError(f"partition class is not a DIM ({_first_non_dim(g, p).value})")
    return _lists(p.num_classes, colors_at)


def _lists(k: int, colors_at: _Masks) -> ListAssignment:
    """The lists of a k-class DIM partition with these incident colors,
    given as :func:`_incident_colors` returns them."""
    if isinstance(colors_at, np.ndarray):
        return ListAssignment(k, _missing_colors(k, colors_at))
    full = (1 << (k + 1)) - 2
    lists = []
    for colors in colors_at:
        missing = full & ~colors
        lst = []
        while missing:
            low = missing & -missing
            lst.append(low.bit_length() - 1)
            missing ^= low
        lists.append(frozenset(lst))
    return ListAssignment(k, tuple(lists))


def _missing_colors(k: int, colors_at: np.ndarray) -> tuple[frozenset[int], ...]:
    """Each vertex's missing colors, from the int64 masks of
    :func:`_incident_colors_array`: the missing colors of all vertices,
    vertex by vertex, cut into one list per vertex."""
    missing = ~_color_table(k, colors_at)
    colors = (np.flatnonzero(missing) % k + 1).tolist()
    ends = np.cumsum(missing.sum(axis=1)).tolist()
    return tuple([frozenset(colors[a:b]) for a, b in zip([0, *ends], ends)])


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
    lo, hi, regularity = _regularity(g)
    if regularity == "neither":
        raise ValueError("degree profile is neither regular nor biregular")
    return _list_properties(g, assignment, lo, hi)


def _list_properties(g: Graph, assignment: ListAssignment, lo: int, hi: int) -> ListCheck:
    """:func:`verify_list_properties` given g's extreme degrees lo, hi.

    The fibers are counted from the lists.  Once every list is checked
    to be a (k - d(v))-subset of 1..k, with d(v) lo or hi, each list is
    a target subset, so the distinct lists are the nonempty fibers: the
    lists are onto when there are as many as target subsets, and the
    fibers are equal when they are onto with one count, or all empty.
    """
    k = max(lo + hi - 1, 0)
    lists = assignment.lists
    if assignment.num_labels != k:
        raise ValueError(
            f"label universe has {assignment.num_labels} colors, expected {k}"
        )
    if len(lists) != g.n:
        raise ValueError("assignment does not cover every vertex")
    labels = frozenset(range(1, k + 1))
    for v, lst in enumerate(lists):
        if len(lst) != k - g.degrees[v]:
            raise ValueError(
                f"vertex {v} has a list of size {len(lst)}, "
                f"expected {k - g.degrees[v]}"
            )
        if not lst <= labels:
            raise ValueError(f"vertex {v} has a label outside 1..{k}")

    disjoint = all(lists[u].isdisjoint(lists[v]) for u, v in g.edges)
    fibers = Counter(lists)
    surjective = len(fibers) == sum(comb(k, size) for size in {k - lo, k - hi})
    equal_fibers = not fibers or (surjective and len(set(fibers.values())) == 1)
    return ListCheck(
        disjointness=disjoint, surjective=surjective, equal_fibers=equal_fibers
    )


def check_kneser_isomorphism(g: Graph, assignment: ListAssignment) -> bool:
    """Does the list assignment exhibit g as the disjointness graph on
    (r-1)-subsets of 2r-1 colors?

    True exactly when the vertex count equals C(2r-1, r-1), the lists
    hit every (r-1)-subset of {1..2r-1} once, and two vertices are
    adjacent iff their lists are disjoint.  Requires a regular graph.
    A disconnected one gets False: when every condition holds, the lists
    are all the (r-1)-subsets of {1..2r-1} and g is KG(2r-1, r-1),
    which is connected.

    Only the edges need checking.  Once the lists are C(2r-1, r-1)
    distinct (r-1)-subsets of {1..2r-1}, they are all of them, and each
    is disjoint from exactly C(r, r-1) = r others.  A vertex of the
    r-regular graph g whose r neighbors all carry lists disjoint from
    its own is therefore adjacent to exactly the vertices whose lists
    are disjoint from its own.  So "every edge joins disjoint lists"
    already gives "adjacent iff disjoint", in time linear in the edges.
    """
    r = max(g.degrees, default=0)
    if min(g.degrees, default=0) != r:
        raise ValueError("graph is not regular")
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
