"""Immutable simple graphs with canonical edge indexing.

Vertices are dense 0-based integers.  Edges are stored as a
lexicographically sorted tuple of pairs (u, v) with u < v, so two equal
graphs always have identical edge lists, edge ids, and serializations.
All functions in this package treat Graph values as immutable; sharing
them across threads is safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

EdgeId = int
VertexPair = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph in canonical form.

    Construct through :func:`build_graph`, which normalizes arbitrary
    pair lists; the constructor itself assumes edges are already
    canonical (validated in ``__post_init__``).
    """

    n: int
    edges: tuple[VertexPair, ...]
    neighbors: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False
    )
    incident: tuple[tuple[EdgeId, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    degrees: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        prev = None
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of canonical range for n={self.n}")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edge list is not strictly increasing")
            prev = (u, v)
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        inc: list[list[EdgeId]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            nbrs[u].add(v)
            nbrs[v].add(u)
            inc[u].append(eid)
            inc[v].append(eid)
        object.__setattr__(self, "neighbors", tuple(frozenset(s) for s in nbrs))
        object.__setattr__(self, "incident", tuple(tuple(ids) for ids in inc))
        object.__setattr__(self, "degrees", tuple(len(s) for s in nbrs))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_id(self, u: int, v: int) -> EdgeId:
        """Id of the edge between u and v (order-insensitive)."""
        if u > v:
            u, v = v, u
        eid = self._edge_index().get((u, v))
        if eid is None:
            raise KeyError(f"({u}, {v}) is not an edge")
        return eid

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u] if 0 <= u < self.n else False

    def _edge_index(self) -> dict[VertexPair, EdgeId]:
        idx = getattr(self, "_edge_index_cache", None)
        if idx is None:
            idx = {e: i for i, e in enumerate(self.edges)}
            object.__setattr__(self, "_edge_index_cache", idx)
        return idx


def build_graph(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a canonical Graph from arbitrary vertex pairs.

    Pairs are sorted within themselves, deduplicated, and sorted
    overall.  Raises ValueError on self-loops or endpoints outside
    0..n-1.
    """
    canon: set[VertexPair] = set()
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        canon.add((u, v) if u < v else (v, u))
    return Graph(n, tuple(sorted(canon)))


@dataclass(frozen=True)
class BiregularClasses:
    """A bipartition with uniform degrees on each side.

    ``x_side`` is the side containing vertex 0 (for n >= 1); every
    vertex there has degree ``x_degree``, every ``y_side`` vertex has
    degree ``y_degree``.  An empty side reports degree 0.  When the two
    degrees differ the sides are the two degree classes; when they are
    equal, the smallest vertex of every component lies in ``x_side``.
    """

    x_degree: int
    y_degree: int
    x_side: frozenset[int]
    y_side: frozenset[int]


@dataclass(frozen=True)
class DegreeProfile:
    degrees: tuple[int, ...]
    min_degree: int
    max_degree: int
    is_regular: bool
    biregular: Optional[BiregularClasses]

    @property
    def regularity(self) -> str:
        """One of "regular", "biregular" and "neither"."""
        if self.is_regular:
            return "regular"
        return "neither" if self.biregular is None else "biregular"


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest vertex."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.neighbors[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced by ``vertices``; returns (subgraph, old-id-per-new-id)."""
    order = sorted(vertices)
    remap = {v: i for i, v in enumerate(order)}
    pairs = [
        (remap[u], remap[v])
        for u, v in g.edges
        if u in remap and v in remap
    ]
    return build_graph(len(order), pairs), order


def degree_profile(g: Graph) -> DegreeProfile:
    """Degrees together with regularity and biregularity structure.

    The graph is biregular when its vertices split into two sides X and
    Y such that every edge crosses, all X-degrees agree and all
    Y-degrees agree.  Let lo and hi be the smallest and largest degree.
    If lo < hi, every vertex of one side has one degree, so the sides
    can only be the two degree classes, and g is biregular exactly when
    every edge joins a degree-lo vertex to a degree-hi vertex; X is the
    class of vertex 0.  The degrees are compared as a set, not summed:
    K(1,5) + K(2,4) has d(u) + d(v) = 6 on every edge and is not
    biregular.  If lo == hi, any 2-coloring has uniform sides, so g is
    biregular exactly when it is bipartite; one BFS 2-coloring decides
    it, with roots taken in ascending order, so the smallest vertex of
    every component lies on X.  Edgeless graphs are regular and
    trivially biregular with classes (0, 0).
    """
    degs = g.degrees
    lo = min(degs, default=0)
    hi = max(degs, default=0)
    if lo == hi:
        x_side = _even_side(g)
    elif all({degs[u], degs[v]} == {lo, hi} for u, v in g.edges):
        x_side = frozenset(v for v in range(g.n) if degs[v] == degs[0])
    else:
        x_side = None
    biregular = None
    if x_side is not None:
        x = degs[0] if degs else 0
        y_side = frozenset(range(g.n)) - x_side
        biregular = BiregularClasses(x, lo + hi - x, x_side, y_side)
    return DegreeProfile(
        degrees=degs,
        min_degree=lo,
        max_degree=hi,
        is_regular=lo == hi,
        biregular=biregular,
    )


def _even_side(g: Graph) -> Optional[frozenset[int]]:
    """Color 0 of a BFS 2-coloring rooted at each component's smallest
    vertex, or None if g is not bipartite."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.neighbors[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return frozenset(v for v in range(g.n) if color[v] == 0)


@dataclass(frozen=True)
class Cycle:
    """A simple cycle in canonical rotation/reflection.

    ``vertices`` starts at the smallest vertex on the cycle and its
    second entry is smaller than its last, which makes the tuple the
    lexicographic minimum over all rotations and reflections.
    """

    vertices: tuple[int, ...]
    edge_ids: frozenset[EdgeId]

    @property
    def length(self) -> int:
        return len(self.vertices)


def enumerate_cycles(g: Graph, max_len: int) -> list[Cycle]:
    """All simple cycles of length <= max_len, each exactly once.

    Rooted depth-first search: a cycle is discovered from its smallest
    vertex, extending paths through strictly larger vertices only, and
    reflections are suppressed by requiring second < last vertex.  A
    cycle leaves its root through two neighbors larger than the root, so
    roots with fewer than two such neighbors are skipped: on a long
    cycle each of them would otherwise walk the whole path of larger
    vertices above it.  The search keeps one neighbor iterator per path
    vertex on an explicit stack, so cycles longer than the recursion
    limit are found too.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    out: list[Cycle] = []

    def edge_set(cycle: tuple[int, ...]) -> frozenset[EdgeId]:
        ids = [
            g.edge_id(cycle[i], cycle[(i + 1) % len(cycle)])
            for i in range(len(cycle))
        ]
        return frozenset(ids)

    for root in range(g.n):
        nbrs = sorted(g.neighbors[root])
        if len(nbrs) < 2 or nbrs[-2] < root:
            continue
        path = [root]
        on_path = {root}
        stack = [iter(nbrs)]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                on_path.remove(path.pop())
            elif nxt == root and len(path) >= 3 and path[1] < path[-1]:
                cyc = tuple(path)
                out.append(Cycle(cyc, edge_set(cyc)))
            elif nxt > root and nxt not in on_path and len(path) < max_len:
                path.append(nxt)
                on_path.add(nxt)
                stack.append(iter(sorted(g.neighbors[nxt])))
    return out
