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

Subsets are enumerated in colexicographic (colex) order, which fixes
vertex ids reproducibly: a subset's id is its colex rank, a sum of
binomial coefficients over its elements (the combinatorial number
system).

Construction is output-sensitive and done in numpy: a label's
neighbors are the subsets of its complement of the other side's size,
and their ids are their colex ranks, computed for all labels at once,
so building the graph costs a few array operations per edge end rather
than one disjointness test per vertex pair.  Each edge is kept once,
from its smaller end, and each label's partners come out in ascending
order, so the pairs are in canonical order and go to the Graph
constructor as they are.

The labels stay the colex arrays they were enumerated as: a
LabeledGraph's ``labels`` is a SubsetLabels view that builds a label's
frozenset only when that label is read, so a caller that reads none
(``gen`` without ``--with-labels``, say) builds none, and the leftover
coloring reads the arrays themselves.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from math import comb

import numpy as np

from .graph import Graph, VertexPair, build_graph
from .partition import DimPartition

SubsetLabel = frozenset[int]


class SubsetLabels(Sequence):
    """Vertex labels as a read-only sequence over integer arrays.

    ``parts`` holds one (N_i, k_i) array per block of consecutive
    vertices, each row a label's elements in strictly ascending order;
    each is a read-only view of the array given, not a copy.  Reading a
    label builds its frozenset then, and nothing is cached: an index
    costs one row's frozenset (about two microseconds for nine
    elements), a slice returns a tuple, and iteration builds each label
    in turn.  A view equals another view with the same labels, compared
    as arrays when the blocks have the same shapes, and the tuple of its
    frozensets.
    """

    __slots__ = ("parts", "_len")

    def __init__(self, parts: Iterable[np.ndarray]) -> None:
        views = []
        for part in parts:
            view = np.asarray(part).view()
            if view.ndim != 2 or not np.issubdtype(view.dtype, np.integer):
                raise ValueError("label rows must form a 2-D integer array")
            # Ascending rows make equal labels equal rows, so views compare
            # as arrays.
            if (view[:, 1:] <= view[:, :-1]).any():
                raise ValueError("label rows must be strictly ascending")
            view.flags.writeable = False
            views.append(view)
        self.parts: tuple[np.ndarray, ...] = tuple(views)
        self._len = sum(map(len, views))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index) -> SubsetLabel | tuple[SubsetLabel, ...]:
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(self._len)[index]))
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("label index out of range")
        for part in self.parts:
            if i < len(part):
                return frozenset(part[i].tolist())
            i -= len(part)

    def __iter__(self) -> Iterator[SubsetLabel]:
        for part in self.parts:
            yield from map(frozenset, part.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, SubsetLabels):
            if [p.shape for p in self.parts] == [p.shape for p in other.parts]:
                return all(map(np.array_equal, self.parts, other.parts))
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        # Equal to a tuple of frozensets, so hashed as one.
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"SubsetLabels({tuple(p.tolist() for p in self.parts)!r})"


@dataclass(frozen=True)
class LabeledGraph:
    """A graph whose vertices carry subset labels over {1..ground_size}."""

    graph: Graph
    labels: SubsetLabels
    ground_size: int


def _colex_subsets(ground_size: int, k: int) -> np.ndarray:
    """The k-subsets of {1..ground_size} in colex order, one ascending row
    each.

    Colex order compares two sets at the largest element in which they
    differ.  Under a -> ground_size + 1 - a that becomes the smallest
    such element with the order reversed, so the subsets are the
    combinations of the ground set taken downwards, read from the last
    combination back and each one backwards.
    """
    combos = itertools.combinations(range(ground_size, 0, -1), k)
    flat = np.fromiter(
        itertools.chain.from_iterable(combos), np.intp, comb(ground_size, k) * k
    )
    return flat.reshape(-1, k)[::-1, ::-1]


def _disjoint_pairs(
    left: np.ndarray, k: int, ground_size: int, offset: int
) -> tuple[VertexPair, ...]:
    """Vertex pairs (i, offset + j) with i < offset + j and left[i]
    disjoint from the j-th k-subset of {1..ground_size} in colex order,
    each once and in canonical order.

    The partners of left[i] are the k-subsets of its complement, and the
    colex rank of {c_1 < ... < c_k} is the sum of C(c_t - 1, t).  The
    complement is ascending, so taking its positions in colex order
    keeps that order: each row's partner ranks come out ascending, and
    the rows, kept to partners above the row, list the pairs sorted.
    With ``offset`` 0 and ``left`` the k-subsets themselves these are the
    edges of a Kneser graph, each kept at its smaller end.
    """
    rows, size = left.shape
    member = np.zeros((rows, ground_size + 1), dtype=bool)
    member[np.arange(rows)[:, None], left] = True
    member[:, 0] = True  # column 0 is no element
    # No rows at all when size > ground_size.
    free = max(ground_size - size, 0)
    complement = np.nonzero(~member)[1].reshape(rows, free)
    positions = _colex_subsets(free, k) - 1
    # Element c_t is at most ground_size - k + t, so every term, and the
    # rank, is below C(ground_size, k), the partner count: exact in int64
    # once the binomials out of that range are left out.
    partners = np.full((rows, len(positions)), offset, dtype=np.int64)
    for t in range(1, k + 1):
        term = [comb(c - 1, t) if t <= c <= ground_size - k + t else 0
                for c in range(ground_size + 1)]
        partners += np.array(term, dtype=np.int64)[complement[:, positions[:, t - 1]]]
    keep = partners > np.arange(rows)[:, None]
    # Every occurrence of a vertex is one shared int: the ints that
    # tolist() makes would be two more objects per edge, kept by the graph.
    ids = list(range(offset + comb(ground_size, k)))
    ends = itertools.chain.from_iterable(
        map(itertools.repeat, ids, keep.sum(axis=1).tolist())
    )
    return tuple(zip(ends, map(ids.__getitem__, partners[keep].tolist())))


def _labeled_graph(
    parts: tuple[np.ndarray, ...], edges: tuple[VertexPair, ...], ground_size: int
) -> LabeledGraph:
    labels = SubsetLabels(parts)
    return LabeledGraph(Graph(len(labels), edges), labels, ground_size)


def kneser(n: int, k: int) -> LabeledGraph:
    """Disjointness graph on the k-subsets of {1..n}.

    n < 2k is allowed and yields an edgeless graph, k > n an empty one.
    """
    if k < 1:
        raise ValueError("subset size k must be positive")
    if n < 1:
        raise ValueError("ground set size n must be positive")
    subsets = _colex_subsets(n, k)
    return _labeled_graph((subsets,), _disjoint_pairs(subsets, k, n, 0), n)


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
    edges = _disjoint_pairs(left, n, ground, len(left))
    return _labeled_graph((left, right), edges, ground)


def _leftover_coloring(lg: LabeledGraph) -> DimPartition:
    """Color each edge by the unique ground element missing from both labels.

    Labels are rows of a vertex-by-element table, marked straight from
    the label arrays, so each edge's uncovered elements are one row
    operation, exact at any ground size.
    """
    g, ground = lg.graph, lg.ground_size
    member = np.zeros((g.n, ground + 1), dtype=bool)
    first = 0
    for part in lg.labels.parts:
        member[np.arange(first, first + len(part))[:, None], part] = True
        first += len(part)
    member[:, 0] = True  # column 0 is no element
    ends = np.fromiter(itertools.chain.from_iterable(g.edges), np.intp, 2 * g.m)
    # Row-major, so exactly one element per edge reads 0, 1, ... m - 1.
    edge, leftover = np.nonzero(~(member[ends[0::2]] | member[ends[1::2]]))
    if len(edge) != g.m or (edge != np.arange(g.m)).any():
        raise ValueError("edge labels do not leave exactly one element uncovered")
    return DimPartition(ground, tuple(leftover.tolist()))


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
