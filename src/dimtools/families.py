"""Generators for disjointness-graph families and standard small graphs.

The Kneser graph KG(n, k) has the k-subsets of {1..n} as vertices and
joins disjoint subsets.  The bipartite disjointness graph BG(m, n) has
the m-subsets of a ground set on one side, the n-subsets on the other,
and again joins disjoint cross pairs; its ground set here has
m + n + 1 elements, so a disjoint pair leaves exactly one element
uncovered.  That leftover element is what drives the closed-form DIM
partitions: coloring each edge XY by the single element outside
X union Y splits KG(2r-1, r-1) into 2r-1 DIM classes and
BG(r-1, s-1) into r+s-1 classes.

Subsets are enumerated in colexicographic order, which fixes vertex
ids reproducibly.

Construction is output-sensitive: a label's neighbors are the subsets
of its complement of the other side's size, found by lookup in a label
index, so building the graph costs at most one lookup per edge end
rather than one disjointness test per vertex pair.  Each edge is kept
once, from its smaller end, with each vertex's partners sorted, so the
pairs come out in canonical order and go to the Graph constructor as
they are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import Graph, build_graph
from .partition import DimPartition

SubsetLabel = frozenset[int]


@dataclass(frozen=True)
class LabeledGraph:
    """A graph whose vertices carry subset labels over {1..ground_size}."""

    graph: Graph
    labels: tuple[SubsetLabel, ...]
    ground_size: int


def _colex_subsets(ground_size: int, k: int) -> list[tuple[int, ...]]:
    combos = itertools.combinations(range(1, ground_size + 1), k)
    return sorted(combos, key=lambda s: s[::-1])


def _disjoint_pairs(
    left: list[tuple[int, ...]],
    right: list[tuple[int, ...]],
    k: int,
    ground_size: int,
    offset: int,
) -> list[tuple[int, int]]:
    """Vertex pairs (i, offset + j) with i < offset + j and left[i] and
    right[j] disjoint, each once and in canonical order.

    ``right`` holds k-subsets of {1..ground_size}; the partners of
    left[i] are the k-subsets of its complement, looked up by index.
    Subsets are sorted tuples, as ``itertools.combinations`` yields them.
    With ``offset`` 0 and ``right`` the same list as ``left`` these are
    the edges of a Kneser graph, each found from its smaller end.
    """
    index = {s: offset + j for j, s in enumerate(right)}
    ground = range(1, ground_size + 1)
    pairs = []
    for i, s in enumerate(left):
        rest = [x for x in ground if x not in s]
        partners = sorted(index[c] for c in itertools.combinations(rest, k))
        pairs.extend((i, j) for j in partners if j > i)
    return pairs


def kneser(n: int, k: int) -> LabeledGraph:
    """Disjointness graph on the k-subsets of {1..n}.

    n < 2k is allowed and yields an edgeless graph.
    """
    if k < 1:
        raise ValueError("subset size k must be positive")
    if n < 1:
        raise ValueError("ground set size n must be positive")
    subsets = _colex_subsets(n, k)
    edges = tuple(_disjoint_pairs(subsets, subsets, k, n, 0))
    labels = tuple(frozenset(s) for s in subsets)
    return LabeledGraph(Graph(len(labels), edges), labels, n)


def bipartite_kneser(m: int, n: int) -> LabeledGraph:
    """Bipartite disjointness graph: m-subsets vs n-subsets of {1..m+n+1}.

    The m-subset part comes first in vertex order.  Every m-subset has
    n + 1 neighbors and every n-subset has m + 1.
    """
    if m < 1 or n < 1:
        raise ValueError("subset sizes must be positive")
    ground = m + n + 1
    left = _colex_subsets(ground, m)
    right = _colex_subsets(ground, n)
    edges = tuple(_disjoint_pairs(left, right, n, ground, len(left)))
    labels = tuple(frozenset(s) for s in left + right)
    return LabeledGraph(Graph(len(labels), edges), labels, ground)


def _leftover_coloring(lg: LabeledGraph) -> DimPartition:
    """Color each edge by the unique ground element missing from both labels.

    Labels are held as bitmasks with bit x set for element x, so an
    edge's leftover is one mask operation and a single-bit test.
    """
    mask = [sum(1 << x for x in label) for label in lg.labels]
    ground = (1 << (lg.ground_size + 1)) - 2
    colors = []
    for u, v in lg.graph.edges:
        leftover = ground & ~(mask[u] | mask[v])
        if not leftover or leftover & (leftover - 1):
            raise ValueError("edge labels do not leave exactly one element uncovered")
        colors.append(leftover.bit_length() - 1)
    return DimPartition(lg.ground_size, tuple(colors))


def kneser_dim_partition(r: int) -> tuple[LabeledGraph, DimPartition]:
    """KG(2r-1, r-1) with its closed-form partition into 2r-1 DIM classes."""
    if r < 2:
        raise ValueError("r must be at least 2")
    lg = kneser(2 * r - 1, r - 1)
    return lg, _leftover_coloring(lg)


def bg_dim_partition(r: int, s: int) -> tuple[LabeledGraph, DimPartition]:
    """BG(r-1, s-1) with its closed-form partition into r+s-1 DIM classes."""
    if r < 2 or s < 2:
        raise ValueError("r and s must be at least 2")
    lg = bipartite_kneser(r - 1, s - 1)
    return lg, _leftover_coloring(lg)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return build_graph(n, itertools.combinations(range(n), 2))


def star(k: int) -> Graph:
    """K(1, k): center 0 joined to leaves 1..k."""
    if k < 1:
        raise ValueError("star needs at least 1 leaf")
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])


def petersen() -> Graph:
    """The Petersen graph, as the disjointness graph of 2-subsets of {1..5}."""
    return kneser(5, 2).graph
