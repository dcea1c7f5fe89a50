"""Graph construction, degree profiles, and cycle enumeration."""

import itertools
import random
import time
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimtools.corpus import connected_graphs, sample_connected_graphs
from dimtools.families import bipartite_kneser, cycle, complete, kneser, petersen, star
from dimtools.graph import (
    BiregularClasses,
    DegreeProfile,
    Graph,
    build_graph,
    components,
    degree_profile,
    enumerate_cycles,
    induced_subgraph,
    is_connected,
)


def graphs_strategy(max_n=8):
    """Random graphs: pick n and an arbitrary subset of vertex pairs."""

    def build(draw_result):
        n, mask = draw_result
        slots = list(itertools.combinations(range(n), 2))
        return build_graph(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])

    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1)
        )
    ).map(build)


class TestBuildGraph:
    def test_triangle_canonicalization(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_dedup_and_within_pair_sort(self):
        g = build_graph(2, [(1, 0), (0, 1)])
        assert g.edges == ((0, 1),)
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(1, [(0, 0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(2, [(0, 2)])
        with pytest.raises(ValueError):
            build_graph(2, [(-1, 0)])

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert g.n == 0 and g.m == 0

    @given(graphs_strategy())
    def test_degree_sum_is_twice_edge_count(self, g):
        assert sum(g.degrees) == 2 * g.m

    @given(graphs_strategy())
    def test_adjacency_matches_edges(self, g):
        for u, v in g.edges:
            assert v in g.neighbors[u] and u in g.neighbors[v]
            assert g.edge_id(u, v) == g.edge_id(v, u)


def brute_force_biregular(g):
    """Feasible (x, y) degree pairs over all vertex 2-colorings with
    vertex 0 on the X side; empty when the graph is not biregular."""
    if g.n == 0:
        return {(0, 0)}
    feasible = set()
    for mask in range(1 << g.n):
        if mask & 1:  # vertex 0 must stay on the X side
            continue
        if any((mask >> u & 1) == (mask >> v & 1) for u, v in g.edges):
            continue
        x_deg = {g.degrees[v] for v in range(g.n) if not mask >> v & 1}
        y_deg = {g.degrees[v] for v in range(g.n) if mask >> v & 1}
        if len(x_deg) <= 1 and len(y_deg) <= 1:
            x = x_deg.pop() if x_deg else 0
            y = y_deg.pop() if y_deg else 0
            feasible.add((x, y))
    return feasible


def labelled_graphs(n):
    """Every labelled graph on vertices 0..n-1, connected or not."""
    slots = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield build_graph(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])


def disjoint_union(parts, seed):
    """Union of (vertex count, edges) parts, relabelled by a seeded shuffle."""
    n = sum(size for size, _ in parts)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    pairs, offset = [], 0
    for size, edges in parts:
        pairs.extend((perm[offset + u], perm[offset + v]) for u, v in edges)
        offset += size
    return build_graph(n, pairs)


def random_union(rng):
    """Up to four stars, complete bipartite graphs, cycles, paths, K2 or K1."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["star", "kab", "cycle", "path", "k2", "k1"])
        if kind == "star":
            k = rng.randint(1, 5)
            parts.append((k + 1, [(0, i) for i in range(1, k + 1)]))
        elif kind == "kab":
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            parts.append((a + b, [(i, a + j) for i in range(a) for j in range(b)]))
        elif kind == "cycle":
            n = rng.randint(3, 7)
            parts.append((n, [(i, (i + 1) % n) for i in range(n)]))
        elif kind == "path":
            n = rng.randint(2, 6)
            parts.append((n, [(i, i + 1) for i in range(n - 1)]))
        elif kind == "k2":
            parts.append((2, [(0, 1)]))
        else:
            parts.append((1, []))
    return parts


# Reference: biregularity decided component by component, with no use
# of the degree classes.  Each component is 2-colored from its smallest
# vertex, each side must have one degree, and the components' sides are
# then oriented into one (x, y) split with vertex 0 on X.
def _two_color(g, comp):
    root = comp[0]
    color = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.neighbors[v]:
            if w not in color:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                return None
    side0 = sorted(v for v in comp if color[v] == 0)
    side1 = sorted(v for v in comp if color[v] == 1)
    return side0, side1


def _uniform_degree(g, side):
    if not side:
        return 0
    degs = {g.degrees[v] for v in side}
    return degs.pop() if len(degs) == 1 else None


def _assemble_biregular(sides):
    if not sides:
        return BiregularClasses(0, 0, frozenset(), frozenset())
    x = sides[0][2]
    y = sides[0][3] if sides[0][1] else None
    xs, ys = [], []
    for s0, s1, d0, d1 in sides:
        if d0 == x and (y is None or d1 == y or not s1):
            sx, sy, dy = s0, s1, d1 if s1 else None
        elif d1 == x and (y is None or d0 == y) and s1:
            sx, sy, dy = s1, s0, d0
        else:
            return None
        xs.extend(sx)
        ys.extend(sy)
        if y is None and dy is not None:
            y = dy
    return BiregularClasses(x, y if y is not None else 0, frozenset(xs), frozenset(ys))


def per_component_degree_profile(g):
    degs = g.degrees
    sides = []
    for comp in components(g):
        split = _two_color(g, comp)
        if split is None:
            biregular = None
            break
        d0 = _uniform_degree(g, split[0])
        d1 = _uniform_degree(g, split[1])
        if d0 is None or d1 is None:
            biregular = None
            break
        sides.append((split[0], split[1], d0, d1))
    else:
        biregular = _assemble_biregular(sides)
    lo = min(degs) if degs else 0
    hi = max(degs) if degs else 0
    return DegreeProfile(degs, lo, hi, lo == hi, biregular)


class TestDegreeProfile:
    def test_star(self):
        p = degree_profile(star(3))
        assert p.min_degree == 1 and p.max_degree == 3
        assert not p.is_regular
        assert (p.biregular.x_degree, p.biregular.y_degree) == (3, 1)

    def test_petersen_regular(self):
        p = degree_profile(petersen())
        assert p.is_regular and p.min_degree == p.max_degree == 3

    def test_path_three_vertices(self):
        p = degree_profile(build_graph(3, [(0, 1), (1, 2)]))
        assert (p.biregular.x_degree, p.biregular.y_degree) == (1, 2)
        assert p.biregular.x_side == frozenset({0, 2})

    def test_empty_graph_is_regular(self):
        p = degree_profile(build_graph(0, []))
        assert p.is_regular and p.min_degree == p.max_degree == 0

    def test_odd_cycle_not_biregular(self):
        assert degree_profile(cycle(5)).biregular is None

    def test_even_cycle_biregular_and_regular(self):
        p = degree_profile(cycle(6))
        assert p.is_regular
        assert (p.biregular.x_degree, p.biregular.y_degree) == (2, 2)

    def test_isolated_vertex_blocks_biregularity(self):
        g = build_graph(5, [(1, 2), (1, 3), (1, 4)])
        assert degree_profile(g).biregular is None

    def test_components_colored_from_their_smallest_vertex(self):
        # C6 on 0..5 plus C4 on 6..9: both regular, so the sides come
        # from the 2-coloring, not from the degrees.
        g = build_graph(10, [(i, (i + 1) % 6) for i in range(6)]
                        + [(6 + i, 6 + (i + 1) % 4) for i in range(4)])
        p = degree_profile(g)
        assert p.biregular.x_side == frozenset({0, 2, 4, 6, 8})
        assert (p.biregular.x_degree, p.biregular.y_degree) == (2, 2)

    def test_star_with_leaves_first_puts_leaves_on_x(self):
        g = build_graph(6, [(v, 5) for v in range(5)])
        p = degree_profile(g)
        assert p.biregular.x_side == frozenset(range(5))
        assert p.biregular.y_side == frozenset({5})
        assert (p.biregular.x_degree, p.biregular.y_degree) == (1, 5)

    def test_equal_degree_sums_are_not_biregular(self):
        # K(1,5) + K(2,4): d(u) + d(v) = 6 on every edge, but the edges
        # of K(2,4) join degrees 4 and 2, not the extremes 1 and 5.
        g = disjoint_union([
            (6, [(0, i) for i in range(1, 6)]),
            (6, [(i, j) for i in range(2) for j in range(2, 6)]),
        ], seed=0)
        assert {g.degrees[u] + g.degrees[v] for u, v in g.edges} == {6}
        p = degree_profile(g)
        assert p.biregular is None and p.regularity == "neither"

    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_brute_force_exhaustive(self, n):
        for g in labelled_graphs(n):
            feasible = brute_force_biregular(g)
            p = degree_profile(g)
            if p.biregular is None:
                assert not feasible
            else:
                assert (p.biregular.x_degree, p.biregular.y_degree) in feasible
                for u, v in g.edges:
                    assert (u in p.biregular.x_side) != (v in p.biregular.x_side)
            assert p == per_component_degree_profile(g), g.edges

    def test_equals_per_component_reference_on_unions(self):
        rng = random.Random(2024)
        kinds = set()
        for seed in range(2000):
            g = disjoint_union(random_union(rng), seed)
            p = degree_profile(g)
            assert p == per_component_degree_profile(g), g.edges
            kinds.add(p.regularity)
        assert kinds == {"regular", "biregular", "neither"}

    @given(graphs_strategy(max_n=10))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_random(self, g):
        feasible = brute_force_biregular(g)
        p = degree_profile(g)
        if p.biregular is None:
            assert not feasible
        else:
            assert (p.biregular.x_degree, p.biregular.y_degree) in feasible
            for u, v in g.edges:
                in_x = u in p.biregular.x_side
                assert in_x != (v in p.biregular.x_side)


class TestComponents:
    def test_connected_cycle(self):
        assert is_connected(cycle(5))
        assert components(cycle(5)) == [[0, 1, 2, 3, 4]]

    def test_two_components(self):
        g = build_graph(5, [(0, 1), (2, 3)])
        assert components(g) == [[0, 1], [2, 3], [4]]

    def test_induced_subgraph_keeps_degrees(self):
        g = build_graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
        sub, old = induced_subgraph(g, [2, 3, 4])
        assert old == [2, 3, 4]
        assert sub.edges == ((0, 1), (0, 2), (1, 2))


def closed_walk_cycle_counts(g, max_len):
    """Oracle: count cycles as closed walks with all-distinct vertices.

    A length-r cycle corresponds to exactly 2r such walks (r starting
    points, 2 directions), independently of the search in
    enumerate_cycles.
    """
    counts = {}
    for r in range(3, max_len + 1):
        walks = 0

        def count_from(start, current, depth, visited):
            nonlocal walks
            if depth == r:
                if start in g.neighbors[current]:
                    walks += 1
                return
            for nxt in g.neighbors[current]:
                if nxt not in visited and nxt != start:
                    visited.add(nxt)
                    count_from(start, nxt, depth + 1, visited)
                    visited.remove(nxt)

        for v in range(g.n):
            count_from(v, v, 1, {v})
        counts[r] = walks // (2 * r)
    return counts


class TestEnumerateCycles:
    def test_cycle_graph_has_one_cycle(self):
        out = enumerate_cycles(cycle(6), 6)
        assert len(out) == 1 and out[0].length == 6

    def test_triangle(self):
        out = enumerate_cycles(complete(3), 3)
        assert len(out) == 1
        assert out[0].vertices == (0, 1, 2)

    def test_petersen_five_cycles(self):
        out = enumerate_cycles(petersen(), 5)
        assert len(out) == 12
        assert all(c.length == 5 for c in out)
        oracle = closed_walk_cycle_counts(petersen(), 5)
        assert oracle[5] == 12 and oracle[3] == 0 and oracle[4] == 0

    def test_max_len_cap(self):
        assert enumerate_cycles(cycle(7), 6) == []
        with pytest.raises(ValueError):
            enumerate_cycles(cycle(7), 2)

    def test_canonical_form_and_uniqueness(self):
        out = enumerate_cycles(complete(5), 5)
        seen = set()
        for c in out:
            assert c.vertices[0] == min(c.vertices)
            assert c.vertices[1] < c.vertices[-1]
            key = frozenset(c.vertices), c.vertices
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("n", range(3, 6))
    def test_counts_match_walk_oracle_exhaustive(self, n):
        for g in connected_graphs(n):
            oracle = closed_walk_cycle_counts(g, min(n, 8))
            found = {}
            for c in enumerate_cycles(g, min(n, 8)):
                found[c.length] = found.get(c.length, 0) + 1
            for r, expected in oracle.items():
                assert found.get(r, 0) == expected

    def test_counts_match_walk_oracle_sampled(self):
        for g in sample_connected_graphs(8, 25, seed=7):
            oracle = closed_walk_cycle_counts(g, 8)
            found = {}
            for c in enumerate_cycles(g, 8):
                found[c.length] = found.get(c.length, 0) + 1
            for r, expected in oracle.items():
                assert found.get(r, 0) == expected

    def test_long_cycle_needs_no_recursion(self):
        # Each path vertex used to cost one stack frame; 1500 is past the
        # default recursion limit.
        out = enumerate_cycles(cycle(1500), 2000)
        assert [c.length for c in out] == [1500]

    def test_long_cycle_is_searched_from_one_root(self):
        # Only vertex 0 has two larger neighbors.  Searching from every
        # root walked about n^2 / 2 path steps: some 25 s at n = 6000.
        start = time.perf_counter()
        out = enumerate_cycles(cycle(6000), 7000)
        elapsed = time.perf_counter() - start
        assert [c.length for c in out] == [6000]
        assert elapsed < 3.0


def canonical_cycle(vertices):
    """Rotate to the smallest vertex first and orient second < last."""
    i = vertices.index(min(vertices))
    rotated = list(vertices[i:]) + list(vertices[:i])
    if rotated[1] > rotated[-1]:
        rotated = rotated[:1] + rotated[:0:-1]
    return tuple(rotated)


@pytest.mark.parametrize("max_len", [3, 5, 8])
def test_cycles_match_networkx_simple_cycles(max_len):
    graphs = [
        petersen(),
        kneser(7, 3).graph,
        bipartite_kneser(2, 3).graph,
        complete(6),
        cycle(8),
        star(4),
        *sample_connected_graphs(8, 60, seed=42),
    ]
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        expected = sorted(
            canonical_cycle(c) for c in nx.simple_cycles(G, length_bound=max_len)
        )
        found = sorted(c.vertices for c in enumerate_cycles(g, max_len))
        assert found == expected, g.edges
