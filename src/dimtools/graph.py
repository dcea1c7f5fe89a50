"""Immutable simple graphs with canonical edge indexing.

Vertices are dense 0-based integers.  Edges are stored as a
lexicographically sorted tuple of pairs (u, v) with u < v, so two equal
graphs always have identical edge lists, edge ids, and serializations.
A Graph is complete once constructed: no lookup writes to it, and all
functions in this package treat Graph values as immutable, so sharing
them across threads is safe.
"""

from __future__ import annotations

from bisect import bisect_left
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

    ``neighbors[v]`` lists v's neighbors in strictly ascending order and
    lines up index for index with ``incident[v]``: ``neighbors[v][j]`` is
    the other end of ``edges[incident[v][j]]``.  Both follow from the
    edges being sorted canonical pairs: v first meets its smaller
    neighbors u in pairs (u, v), by ascending u, then its larger ones in
    pairs (v, w), by ascending w.
    """

    n: int
    edges: tuple[VertexPair, ...]
    neighbors: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    incident: tuple[tuple[EdgeId, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    degrees: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        # One pass checks canonical form and builds the adjacency: a
        # failing edge raises before any later edge is looked at.
        nbrs: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[EdgeId]] = [[] for _ in range(n)]
        pu = pv = -1
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) out of canonical range for n={n}")
            if u <= pu and (u < pu or v <= pv):
                raise ValueError("edge list is not strictly increasing")
            pu, pv = u, v
            nbrs[u].append(v)
            nbrs[v].append(u)
            inc[u].append(eid)
            inc[v].append(eid)
        object.__setattr__(self, "neighbors", tuple(map(tuple, nbrs)))
        object.__setattr__(self, "incident", tuple(map(tuple, inc)))
        object.__setattr__(self, "degrees", tuple(map(len, inc)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_id(self, u: int, v: int) -> EdgeId:
        """Id of the edge between u and v (order-insensitive), found by
        bisecting u's sorted neighbors, which line up with its edge ids."""
        if u > v:
            u, v = v, u
        # A negative u would index from the end.
        if 0 <= u < self.n:
            nbrs = self.neighbors[u]
            j = bisect_left(nbrs, v)
            if j < len(nbrs) and nbrs[j] == v:
                return self.incident[u][j]
        raise KeyError(f"({u}, {v}) is not an edge")

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge; False if u is not a vertex."""
        return 0 <= u < self.n and v in self.neighbors[u]


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
        pair = (u, v) if u < v else (v, u)
        if pair[0] < 0 or pair[1] >= n:
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        canon.add(pair)
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
    return [sorted(_walk(g, root, seen, g.n)) for root in range(g.n) if not seen[root]]


def _walk(g: Graph, root: int, seen: list[bool], most: int) -> list[int]:
    """The vertices of root's component, unsorted, marked in ``seen``:
    one list walk, the list its own queue, read while it grows.  It
    stops once the list holds ``most`` vertices, as many as the caller
    knows it can reach."""
    nbrs = g.neighbors
    seen[root] = True
    comp = [root]
    for v in comp:
        if len(comp) == most:
            break
        for w in nbrs[v]:
            if not seen[w]:
                seen[w] = True
                comp.append(w)
    return comp


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced by ``vertices``; returns (subgraph, old-id-per-new-id).

    When ``vertices`` is all of g's vertices the subgraph is g itself,
    returned as is: a Graph is frozen and canonical, so a rebuilt copy
    would equal it.  Otherwise the remap keeps the order of the
    vertices (:func:`_induced`).  Raises ValueError naming a vertex
    listed twice or outside 0..n-1.
    """
    order = sorted(vertices)
    if order == list(range(g.n)):
        return g, order
    remap: dict[int, int] = {}
    for v in order:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} is outside 0..{g.n - 1}")
        if v in remap:
            raise ValueError(f"vertex {v} listed twice")
        remap[v] = len(remap)
    return _induced(g, remap)[0], order


def _induced(g: Graph, remap: dict[int, int]) -> tuple[Graph, list[EdgeId]]:
    """The subgraph induced by the vertices ``remap`` maps, ascending, to
    0, 1, ..., with the ascending ids in g of its edges.

    Listed by ascending vertex, a vertex's edges to larger neighbors come
    in ascending id, so the kept edges, renumbered in that order, are
    canonical and sorted, and go straight to :class:`Graph`.
    """
    ids: list[EdgeId] = []
    pairs = []
    for v, i in remap.items():
        for w, e in zip(g.neighbors[v], g.incident[v]):
            if w > v and w in remap:
                ids.append(e)
                pairs.append((i, remap[w]))
    return Graph(len(remap), tuple(pairs)), ids


def _split(g: Graph) -> tuple[list[tuple[Graph, Sequence[EdgeId]]], bool]:
    """g's parts and whether g is connected.

    A part is an edge-bearing component, in order of smallest vertex, as
    its induced subgraph with the ascending ids in g of its edges: local
    edge i is g's edge ``ids[i]``.  When g has at most one edge-bearing
    component, its one part is g itself with ids ``range(g.m)``, and no
    subgraph is built.  Each edge-bearing component is one list walk
    (:func:`_walk`) from its smallest vertex, and isolated vertices are
    not walked, so the split ends once the first walk reaches every
    vertex with an edge.
    """
    n, degs = g.n, g.degrees
    bearing = n - degs.count(0)
    seen = [False] * n
    comps = []
    for root in range(n):
        if degs[root] and not seen[root]:
            comp = _walk(g, root, seen, bearing)
            if len(comp) == bearing:
                return [(g, range(len(g.edges)))], bearing == n
            comps.append(sorted(comp))
    if comps:
        return [_induced(g, {v: i for i, v in enumerate(comp)}) for comp in comps], False
    return [(g, range(0))], n <= 1


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
    lo, hi, regularity = _regularity(g)
    if lo == hi:
        x_side = _even_side(g)
    elif regularity == "biregular":
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


def _regularity(g: Graph) -> tuple[int, int, str]:
    """g's smallest degree, largest degree and regularity, as
    :class:`DegreeProfile` reports them, read off the degrees alone.

    A regular graph is "regular" whether or not it is bipartite, so no
    2-coloring runs; an irregular one is "biregular" exactly when every
    edge joins a smallest-degree vertex to a largest-degree one, as
    :func:`degree_profile` explains.  That holds exactly when lo and hi
    are the only degrees and no edge joins two equal ones: a vertex of
    any other degree has an edge, since its degree is above lo.
    """
    degs = g.degrees
    lo = min(degs, default=0)
    hi = max(degs, default=0)
    if lo == hi:
        return lo, hi, "regular"
    if len(set(degs)) == 2 and all(degs[u] != degs[v] for u, v in g.edges):
        return lo, hi, "biregular"
    return lo, hi, "neither"


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
    reflections are suppressed by requiring second < last vertex.  Roots
    are taken in ascending order, and once a root is done it leaves
    every adjacency list, where it was the first entry: no step ever
    looks below the root, roots with fewer than two neighbors left are
    skipped, and a new path end closes a cycle exactly when its first
    entry is the root.  The last vertex of a cycle is a root neighbor
    above the second, so the second ranges below the root's largest
    neighbor, and a path stops growing once every root neighbor above
    its second is on it, or once it has max_len vertices.  The search
    keeps one neighbor iterator per path vertex on an explicit stack, so
    cycles longer than the recursion limit are found too.

    Each vertex's ``(neighbor, edge id)`` pairs, in ascending neighbor
    order, are listed once per call, and the search carries the id of
    each path edge along with the path: a cycle's ``edge_ids`` are the
    path's ids plus the id of the edge that closes it, with no lookup.
    """
    return [Cycle(tuple(path), frozenset(ids)) for path, ids in _cycle_walk(g, max_len)]


def _cycle_walk(g: Graph, max_len: int) -> Iterator[tuple[list[int], list[EdgeId]]]:
    """The search of :func:`enumerate_cycles`, yielding each cycle, in the
    same order, as its vertex path and the ids of its edges.

    Both lists belong to the walk and change once it resumes, so a caller
    that keeps a cycle copies them.  ``ids[0]`` is the edge that closes the
    cycle, ``ids[i]`` the edge into ``path[i]``.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    # Edges are sorted pairs (u, v) with u < v, so the pairs of a vertex x
    # arrive in ascending neighbor order: first (u, x) by u < x, then (x, v)
    # by v > x.  The walk builds these pairs once rather than zipping
    # g.neighbors[x] with g.incident[x] at every step, which was 1.2-1.5x
    # slower (Python 3.11, 2 vCPUs: cycles up to 8 on all connected graphs
    # of at most 6 vertices 1.36 -> 1.60-1.99 s, up to 7 on KG(9,4)
    # 0.09-0.11 -> 0.13-0.16 s).
    adj: list[list[tuple[int, EdgeId]]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    on_path = [False] * g.n
    # closes[x]: x is a root neighbor above the second vertex.
    closes = [False] * g.n
    for root, nbrs in enumerate(adj):
        if len(nbrs) >= 2:
            on_path[root] = True
            for w, _ in nbrs:
                closes[w] = True
            path = [root]
            # ids[i] is the id of the edge into path[i]; the root's slot
            # holds the closing edge while a cycle is yielded.
            ids = [-1]
            for i in range(len(nbrs) - 1):
                second, eid = nbrs[i]
                closes[second] = False
                # Root neighbors above the second that are not on the path.
                open_ends = len(nbrs) - 1 - i
                path.append(second)
                ids.append(eid)
                on_path[second] = True
                stack = [iter(adj[second])]
                while stack:
                    step = next(stack[-1], None)
                    if step is None:
                        stack.pop()
                        x = path.pop()
                        ids.pop()
                        on_path[x] = False
                        open_ends += closes[x]
                        continue
                    x, eid = step
                    if on_path[x]:
                        continue
                    path.append(x)
                    ids.append(eid)
                    if closes[x]:
                        ids[0] = adj[x][0][1]
                        yield path, ids
                        open_ends -= 1
                    if open_ends and len(path) < max_len:
                        on_path[x] = True
                        stack.append(iter(adj[x]))
                    else:
                        path.pop()
                        ids.pop()
                        open_ends += closes[x]
            closes[nbrs[-1][0]] = False
            on_path[root] = False
        for w, _ in nbrs:
            del adj[w][0]
