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
    _cycle_walk,
    _split,
    build_graph,
    components,
    degree_profile,
    enumerate_cycles,
    induced_subgraph,
    is_connected,
)
from dimtools.io import FormatError, parse_graph


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


class TestEdgeId:
    def test_id_is_the_position_in_the_edge_list(self):
        graphs = [g for n in range(1, 6) for g in connected_graphs(n)]
        graphs += [kneser(9, 4).graph, bipartite_kneser(3, 4).graph]
        for g in graphs:
            for eid, (u, v) in enumerate(g.edges):
                assert g.edge_id(u, v) == g.edge_id(v, u) == eid

    @pytest.mark.parametrize(
        "u,v,pair",
        [
            (0, 2, "(0, 2)"),
            (2, 0, "(0, 2)"),
            (1, 1, "(1, 1)"),
            # Vertex 3 of the 4-cycle is adjacent to 2: a negative end must
            # not be read as counting from the end.
            (-1, 2, "(-1, 2)"),
            (2, -1, "(-1, 2)"),
            (2, 4, "(2, 4)"),
            (4, 4, "(4, 4)"),
            (5, 0, "(0, 5)"),
        ],
    )
    def test_a_non_edge_raises_key_error(self, u, v, pair):
        g = cycle(4)
        with pytest.raises(KeyError) as info:
            g.edge_id(u, v)
        assert info.value.args == (f"{pair} is not an edge",)


def _pair_lines(draw_result):
    """An n and its pairs, each in a random orientation, in random order."""
    n, mask, seed = draw_result
    rng = random.Random(seed)
    slots = list(itertools.combinations(range(n), 2))
    pairs = [
        (v, u) if rng.random() < 0.5 else (u, v)
        for i, (u, v) in enumerate(slots)
        if mask >> i & 1
    ]
    rng.shuffle(pairs)
    return n, pairs


def _parsed_edgelist(draw_result):
    n, pairs = _pair_lines(draw_result)
    return parse_graph(
        f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs), "edgelist"
    )


def _parsed_dimacs(draw_result):
    # DIMACS files may repeat an edge; the parser keeps it once.
    n, pairs = _pair_lines(draw_result)
    pairs += pairs[: len(pairs) // 2]
    return parse_graph(
        f"p edge {n} {len(pairs)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs),
        "dimacs",
    )


@given(graphs_strategy(), st.randoms(use_true_random=False))
def test_repeated_edge_is_merged_in_dimacs_and_refused_in_edge_list(g, rng):
    pairs = list(g.edges)
    rng.shuffle(pairs)
    twice = pairs + [(v, u) for u, v in pairs]
    dimacs = "".join(f"e {u + 1} {v + 1}\n" for u, v in twice)
    assert parse_graph(f"p edge {g.n} {len(twice)}\n" + dimacs, "dimacs") == g
    if not pairs:
        return
    # One edge again, in either orientation, on a later line.
    i = rng.randrange(len(pairs))
    u, v = pairs[i] if rng.random() < 0.5 else pairs[i][::-1]
    lines = [f"{a} {b}\n" for a, b in pairs]
    lines.insert(rng.randrange(i + 1, len(pairs) + 1), f"{u} {v}\n")
    with pytest.raises(FormatError) as info:
        parse_graph(f"{g.n} {len(lines)}\n" + "".join(lines), "edgelist")
    assert str(info.value) == f"repeated edge in line '{u} {v}'"


def _pair_draws(max_n):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1),
            st.integers(min_value=0, max_value=2**32),
        )
    )


def _family_graph(choice):
    kind, a, b = choice
    if kind == "kneser":
        return kneser(a + b, b).graph
    if kind == "bg":
        return bipartite_kneser(a, b).graph
    if kind == "cycle":
        return cycle(a + 2)
    if kind == "complete":
        return complete(a)
    if kind == "star":
        return star(a)
    return petersen()


def any_source_graphs(max_n=8):
    """Graphs from build_graph, from both parsers and from the families."""
    families = st.tuples(
        st.sampled_from(["kneser", "bg", "cycle", "complete", "star", "petersen"]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
    ).map(_family_graph)
    return st.one_of(
        graphs_strategy(max_n),
        _pair_draws(max_n).map(_parsed_edgelist),
        _pair_draws(max_n).map(_parsed_dimacs),
        families,
    )


class TestAdjacency:
    @given(any_source_graphs())
    def test_neighbors_ascend_and_align_with_incident(self, g):
        assert len(g.neighbors) == len(g.incident) == g.n
        for v in range(g.n):
            nbrs = g.neighbors[v]
            assert isinstance(nbrs, tuple)
            assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
            assert len(nbrs) == len(g.incident[v]) == g.degrees[v]
            for j, w in enumerate(nbrs):
                a, b = g.edges[g.incident[v][j]]
                assert v in (a, b) and w == a + b - v

    def test_has_edge_on_a_big_star(self):
        g = star(5000)
        assert g.neighbors[0] == tuple(range(1, 5001))
        for leaf in (1, 2, 2500, 4999, 5000):
            assert g.has_edge(0, leaf) and g.has_edge(leaf, 0)
        assert not g.has_edge(1, 2) and not g.has_edge(4999, 5000)
        assert not g.has_edge(0, 0) and not g.has_edge(5000, 5000)
        for u, v in [(0, 5001), (5001, 0), (0, -1), (-1, 0), (-1, -1), (10**9, 1)]:
            assert not g.has_edge(u, v)
        assert not g.has_edge(1, -1) and not g.has_edge(1, 5001)

    @given(graphs_strategy(max_n=6))
    def test_has_edge_matches_edges(self, g):
        edges = set(g.edges)
        for u in range(-1, g.n + 1):
            for v in range(-1, g.n + 1):
                expected = (min(u, v), max(u, v)) in edges
                assert g.has_edge(u, v) == expected


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

    def test_induced_subgraph_on_every_vertex_is_the_graph(self):
        g = build_graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
        sub, old = induced_subgraph(g, [4, 2, 0, 3, 1])
        assert sub is g and old == [0, 1, 2, 3, 4]
        # One vertex short, it is rebuilt.
        sub, old = induced_subgraph(g, [0, 1, 2, 3])
        assert sub.edges == ((0, 1), (2, 3)) and old == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "vertices,message",
        [([1, 1, 2], "vertex 1 listed twice"), ([0, 99, -5], "vertex -5 is outside 0..2")],
    )
    def test_induced_subgraph_refuses_phantom_vertices(self, vertices, message):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=message):
            induced_subgraph(g, vertices)

    def test_connected_corpus_is_one_component(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                assert components(g) == [list(range(n))]

    def test_matches_networkx(self):
        # The families and seeded relabelled disjoint unions.
        rng = random.Random(7)
        graphs = [petersen(), cycle(9), complete(5), star(4), bipartite_kneser(2, 3).graph,
                  kneser(7, 3).graph, build_graph(6, [])]
        graphs += [disjoint_union(random_union(rng), seed) for seed in range(200)]
        for g in graphs:
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges)
            expected = sorted(sorted(c) for c in nx.connected_components(nxg))
            assert components(g) == expected
            assert is_connected(g) == (g.n == 0 or nx.is_connected(nxg))


class TestSplit:
    """The one split of a graph into the parts its searches walk."""

    @pytest.mark.parametrize(
        "g,connected",
        [(petersen(), True), (build_graph(0, []), True), (build_graph(4, []), False),
         (build_graph(5, [(1, 3), (3, 4)]), False)],
        ids=["Petersen", "no vertex", "edgeless", "one edge-bearing component"],
    )
    def test_one_part_is_the_graph(self, g, connected):
        parts, is_conn = _split(g)
        assert is_conn == connected
        assert len(parts) == 1 and parts[0][0] is g and parts[0][1] == range(g.m)

    def test_parts_are_the_induced_components(self):
        rng = random.Random(3)
        seen = 0
        for seed in range(300):
            g = disjoint_union(random_union(rng), seed)
            comps = [c for c in components(g) if len(c) > 1]
            if len(comps) < 2:
                continue
            seen += 1
            parts, connected = _split(g)
            assert not connected
            assert len(parts) == len(comps)
            for (sub, ids), comp in zip(parts, comps):
                assert sub == induced_subgraph(g, comp)[0]
                assert ids == sorted(ids)
                assert [g.edges[e] for e in ids] == [(comp[u], comp[v]) for u, v in sub.edges]
            assert sorted(e for _, ids in parts for e in ids) == list(range(g.m))
        assert seen > 100


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
        *(g for n in range(1, 6) for g in connected_graphs(n)),
    ]
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        expected = sorted(
            canonical_cycle(c) for c in nx.simple_cycles(G, length_bound=max_len)
        )
        cycles = enumerate_cycles(g, max_len)
        assert sorted(c.vertices for c in cycles) == expected, g.edges
        for c in cycles:
            closed = zip(c.vertices, c.vertices[1:] + c.vertices[:1])
            assert c.edge_ids == {g.edge_id(a, b) for a, b in closed}, c


def reference_cycle_walk(g, max_len):
    """An earlier form of graph._cycle_walk, kept to pin the order.

    From each root it steps through every neighbor of every path vertex,
    those below the root included, and tests the close at each step.
    """
    adj = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    for root in range(g.n):
        nbrs = adj[root]
        if len(nbrs) < 2 or nbrs[-2][0] < root:
            continue
        path = [root]
        ids = [-1]
        on_path = {root}
        stack = [iter(nbrs)]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                on_path.remove(path.pop())
                ids.pop()
                continue
            nxt, eid = step
            if nxt == root and len(path) >= 3 and path[1] < path[-1]:
                ids[0] = eid
                yield path, ids
            elif nxt > root and nxt not in on_path and len(path) < max_len:
                path.append(nxt)
                ids.append(eid)
                on_path.add(nxt)
                stack.append(iter(adj[nxt]))


def walk_sequence(walk, g, max_len):
    return [(tuple(path), tuple(ids)) for path, ids in walk(g, max_len)]


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_order_matches_reference_on_small_corpus(n):
    max_len = max(n, 3)
    for g in connected_graphs(n):
        assert walk_sequence(_cycle_walk, g, max_len) == walk_sequence(
            reference_cycle_walk, g, max_len
        ), g.edges


@pytest.mark.parametrize("max_len", range(3, 9))
def test_walk_order_matches_reference_below_the_longest_cycle(max_len):
    graphs = [
        kneser(7, 3).graph,
        bipartite_kneser(2, 3).graph,
        petersen(),
        *sample_connected_graphs(8, 60, seed=42),
    ]
    for g in graphs:
        assert walk_sequence(_cycle_walk, g, max_len) == walk_sequence(
            reference_cycle_walk, g, max_len
        ), g.edges


# enumerate_cycles(petersen(), 8) in the order the search finds them: by
# root, then by path, neighbors taken in ascending order.
PETERSEN_CYCLES_UP_TO_8 = [
    (0, 5, 6, 2, 3, 7, 1, 9), (0, 5, 6, 2, 3, 8), (0, 5, 6, 2, 9),
    (0, 5, 6, 2, 9, 1, 4, 8), (0, 5, 6, 4, 1, 7, 3, 8), (0, 5, 6, 4, 1, 9),
    (0, 5, 6, 4, 8), (0, 5, 6, 4, 8, 3, 2, 9), (0, 5, 7, 1, 4, 6, 2, 9),
    (0, 5, 7, 1, 4, 8), (0, 5, 7, 1, 9), (0, 5, 7, 1, 9, 2, 3, 8),
    (0, 5, 7, 3, 2, 6, 4, 8), (0, 5, 7, 3, 2, 9), (0, 5, 7, 3, 8),
    (0, 5, 7, 3, 8, 4, 1, 9), (0, 8, 3, 2, 6, 4, 1, 9), (0, 8, 3, 2, 9),
    (0, 8, 3, 7, 1, 9), (0, 8, 3, 7, 5, 6, 2, 9), (0, 8, 4, 1, 7, 3, 2, 9),
    (0, 8, 4, 1, 9), (0, 8, 4, 6, 2, 9), (0, 8, 4, 6, 5, 7, 1, 9), (1, 4, 6, 2, 3, 7),
    (1, 4, 6, 2, 9), (1, 4, 6, 5, 7), (1, 4, 6, 5, 7, 3, 2, 9),
    (1, 4, 8, 3, 2, 6, 5, 7), (1, 4, 8, 3, 2, 9), (1, 4, 8, 3, 7), (1, 7, 3, 2, 9),
    (1, 7, 3, 8, 4, 6, 2, 9), (1, 7, 5, 6, 2, 9), (2, 3, 7, 5, 6), (2, 3, 8, 4, 6),
    (3, 7, 5, 6, 4, 8),
]


def test_cycle_order_is_pinned():
    found = [c.vertices for c in enumerate_cycles(petersen(), 8)]
    assert found == PETERSEN_CYCLES_UP_TO_8
