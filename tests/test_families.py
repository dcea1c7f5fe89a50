"""Disjointness-graph families and their closed-form DIM partitions."""

import itertools
from math import comb

import networkx as nx
import numpy as np
import pytest

from dimtools import families
from dimtools.families import (
    LabeledGraph,
    SubsetLabels,
    bg_dim_partition,
    bipartite_kneser,
    complete,
    cycle,
    kneser,
    kneser_dim_partition,
    petersen,
    star,
)
from dimtools.graph import build_graph, degree_profile, is_connected
from dimtools.partition import verify_dim_partition
from dimtools.solver import classify_dim, find_dim


def colex_labels(ground_size, k):
    combos = itertools.combinations(range(1, ground_size + 1), k)
    return [frozenset(s) for s in sorted(combos, key=lambda s: s[::-1])]


def pairwise_kneser(n, k):
    """Reference: test every label pair for disjointness."""
    labels = colex_labels(n, k)
    pairs = [
        (i, j)
        for (i, a), (j, b) in itertools.combinations(enumerate(labels), 2)
        if a.isdisjoint(b)
    ]
    return build_graph(len(labels), pairs), tuple(labels)


def pairwise_bipartite_kneser(m, n):
    """Reference: test every cross pair for disjointness."""
    ground = m + n + 1
    left, right = colex_labels(ground, m), colex_labels(ground, n)
    pairs = [
        (i, j)
        for i, a in enumerate(left)
        for j, b in enumerate(right, len(left))
        if a.isdisjoint(b)
    ]
    labels = tuple(left) + tuple(right)
    return build_graph(len(labels), pairs), labels


class TestKneser:
    def test_petersen_shape(self):
        lg = kneser(5, 2)
        assert lg.graph.n == 10 and lg.graph.m == 15
        assert degree_profile(lg.graph).is_regular
        assert lg.graph.degrees[0] == 3

    def test_triangle(self):
        lg = kneser(3, 1)
        assert lg.graph == complete(3)

    def test_kg_7_3(self):
        lg = kneser(7, 3)
        assert lg.graph.n == comb(7, 3) == 35
        assert lg.graph.m == 70
        assert set(lg.graph.degrees) == {4}

    def test_kg_11_5_isomorphic_to_networkx(self):
        # The colex map x -> x - 1 on labels is the isomorphism.
        lg = kneser(11, 5)
        node_of = [tuple(sorted(x - 1 for x in label)) for label in lg.labels]
        G = nx.kneser_graph(11, 5)
        assert sorted(G.nodes) == sorted(node_of)
        ours = {frozenset((node_of[u], node_of[v])) for u, v in lg.graph.edges}
        assert ours == {frozenset(e) for e in G.edges}
        assert lg.graph.m == G.number_of_edges()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_pairwise_construction(self, n):
        # Up to k = n + 2: no edges from n < 2k on, no vertices past k = n.
        for k in range(1, n + 3):
            lg = kneser(n, k)
            assert (lg.graph, lg.labels, lg.ground_size) == (*pairwise_kneser(n, k), n)
            assert lg.graph.n == comb(n, k)
            assert lg.graph.m == (comb(n, k) * comb(n - k, k) // 2 if k <= n else 0)

    @pytest.mark.parametrize("n,k", [(64, 1), (70, 1), (70, 69), (66, 64)])
    def test_equals_pairwise_construction_past_63_elements(self, n, k):
        # A 64-bit label bitmask or binomial table would overflow here
        # (C(65, 32) > 2**63 for KG(66, 64)).
        lg = kneser(n, k)
        assert (lg.graph, lg.labels, lg.ground_size) == (*pairwise_kneser(n, k), n)

    def test_first_rows_of_kg_70_2_match_the_disjointness_rule(self):
        # All of KG(70, 2) has 2.75 million edges; its first rows carry
        # the ranks of 2-subsets of a 70-element ground set.
        labels = colex_labels(70, 2)
        left = families._colex_subsets(70, 2)[:6]
        pairs = families._disjoint_pairs(left, 2, 70, 0)
        assert pairs == tuple(
            (i, j)
            for i in range(len(left))
            for j in range(i + 1, len(labels))
            if labels[i].isdisjoint(labels[j])
        )

    @pytest.mark.parametrize("n", range(1, 11))
    def test_edges_match_networkx_under_colex_map(self, n):
        for k in range(1, n + 1):
            lg = kneser(n, k)
            node_of = [tuple(sorted(x - 1 for x in label)) for label in lg.labels]
            G = nx.kneser_graph(n, k)
            assert sorted(G.nodes) == sorted(node_of)
            ours = {frozenset((node_of[u], node_of[v])) for u, v in lg.graph.edges}
            assert ours == {frozenset(e) for e in G.edges}
            assert lg.graph.m == G.number_of_edges()

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 2)])
    def test_counts_and_degrees(self, n, k):
        lg = kneser(n, k)
        assert lg.graph.n == comb(n, k)
        assert set(lg.graph.degrees) == {comb(n - k, k)}
        for u, v in lg.graph.edges:
            assert lg.labels[u].isdisjoint(lg.labels[v])

    def test_adjacency_is_disjointness(self):
        lg = kneser(5, 2)
        for u in range(lg.graph.n):
            for v in range(u + 1, lg.graph.n):
                assert lg.graph.has_edge(u, v) == lg.labels[u].isdisjoint(lg.labels[v])

    def test_small_ground_set_is_edgeless(self):
        assert kneser(3, 2).graph.m == 0

    def test_colex_vertex_order(self):
        lg = kneser(5, 2)
        expected_first = [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})]
        assert list(lg.labels[:3]) == expected_first

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            kneser(5, 0)
        with pytest.raises(ValueError):
            kneser(0, 1)


class TestBipartiteKneser:
    def test_1_1_is_a_six_cycle(self):
        lg = bipartite_kneser(1, 1)
        g = lg.graph
        assert g.n == 6 and g.m == 6
        assert set(g.degrees) == {2}
        assert is_connected(g)

    def test_2_1_shape(self):
        lg = bipartite_kneser(2, 1)
        g = lg.graph
        assert g.n == 10 and g.m == 12
        profile = degree_profile(g)
        assert (profile.biregular.x_degree, profile.biregular.y_degree) == (2, 3)

    def test_1_2_is_the_mirror(self):
        a = bipartite_kneser(2, 1)
        b = bipartite_kneser(1, 2)
        assert a.graph.n == b.graph.n and a.graph.m == b.graph.m
        assert sorted(a.graph.degrees) == sorted(b.graph.degrees)

    def test_degrees(self):
        for m, n in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)]:
            lg = bipartite_kneser(m, n)
            left = comb(m + n + 1, m)
            for v in range(left):
                assert lg.graph.degrees[v] == n + 1
            for v in range(left, lg.graph.n):
                assert lg.graph.degrees[v] == m + 1

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_equals_pairwise_construction(self, m, n):
        lg = bipartite_kneser(m, n)
        assert (lg.graph, lg.labels) == pairwise_bipartite_kneser(m, n)
        assert lg.ground_size == m + n + 1

    def test_cross_edges_only(self):
        lg = bipartite_kneser(2, 2)
        left = comb(5, 2)
        for u, v in lg.graph.edges:
            assert (u < left) != (v < left)
            assert lg.labels[u].isdisjoint(lg.labels[v])

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            bipartite_kneser(0, 1)


def read_one_by_one(labels):
    """Every way the view hands out labels, checked against each other."""
    n = len(labels)
    by_index = tuple(labels[i] for i in range(n))
    assert tuple(labels[i - n] for i in range(n)) == by_index
    assert tuple(labels) == by_index
    assert labels[:] == by_index
    assert labels[n // 3: n - 1: 2] == by_index[n // 3: n - 1: 2]
    assert labels[::-1] == by_index[::-1]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            labels[i]
    return by_index


class TestSubsetLabels:
    @pytest.mark.parametrize("r", range(2, 8))
    def test_kneser_family_labels_are_colex(self, r):
        want = tuple(colex_labels(2 * r - 1, r - 1))
        labels = kneser(2 * r - 1, r - 1).labels
        assert len(labels) == len(want)
        assert read_one_by_one(labels) == want
        assert labels == want and want == labels

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(1, 6)])
    def test_bg_labels_are_both_sides_in_colex(self, m, n):
        ground = m + n + 1
        want = tuple(colex_labels(ground, m)) + tuple(colex_labels(ground, n))
        labels = bipartite_kneser(m, n).labels
        assert [len(p) for p in labels.parts] == [comb(ground, m), comb(ground, n)]
        assert read_one_by_one(labels) == want
        assert labels == want

    @pytest.mark.parametrize("n,k", [(3, 2), (7, 4), (9, 5), (3, 4), (1, 5)])
    def test_edgeless_and_empty_kneser(self, n, k):
        want = tuple(colex_labels(n, k))
        labels = kneser(n, k).labels
        assert len(labels) == comb(n, k)
        assert read_one_by_one(labels) == want
        assert labels == want

    def test_equality_and_hash(self):
        a, b = kneser(7, 3).labels, kneser(7, 3).labels
        assert a is not b and a == b and hash(a) == hash(b) == hash(tuple(a))
        # The same labels in other blocks are still the same labels.
        rows = a.parts[0]
        assert a == SubsetLabels((rows[:10], rows[10:]))
        assert a != tuple(a)[:-1] and a != list(a) and a != kneser(7, 2).labels

    def test_labeled_graphs_differing_in_one_label_row_are_unequal(self):
        lg = kneser(5, 2)
        rows = lg.labels.parts[0].copy()
        rows[4] = [1, 5]  # {2, 4} -> {1, 5}
        other = LabeledGraph(lg.graph, SubsetLabels((rows,)), lg.ground_size)
        assert other != lg and lg == kneser(5, 2)
        assert other.labels[4] == frozenset({1, 5}) and lg.labels[4] == frozenset({2, 4})

    def test_view_is_read_only(self):
        labels = SubsetLabels((np.array([[1, 2], [2, 3]]),))
        with pytest.raises(ValueError):
            labels.parts[0][0, 0] = 3
        assert labels == (frozenset({1, 2}), frozenset({2, 3}))

    @pytest.mark.parametrize("rows", [[[2, 1]], [[1, 1]], [1, 2], [[0.5, 1.5]]])
    def test_rows_must_be_ascending_integers(self, rows):
        with pytest.raises(ValueError):
            SubsetLabels((rows,))


def leftover_reference(lg):
    """Reference: each edge's color is the one ground element outside
    both labels, found set by set."""
    ground = set(range(1, lg.ground_size + 1))
    colors = []
    for u, v in lg.graph.edges:
        (leftover,) = ground - lg.labels[u] - lg.labels[v]
        colors.append(leftover)
    return tuple(colors)


class TestLeftoverColoring:
    @pytest.mark.parametrize("r", range(2, 8))
    def test_kneser_family_matches_reference(self, r):
        lg, p = kneser_dim_partition(r)
        assert (p.num_classes, p.color_of) == (2 * r - 1, leftover_reference(lg))

    @pytest.mark.parametrize("r,s", [(r, s) for r in range(2, 7) for s in range(2, 7)])
    def test_bg_family_matches_reference(self, r, s):
        lg, p = bg_dim_partition(r, s)
        assert (p.num_classes, p.color_of) == (r + s - 1, leftover_reference(lg))

    @pytest.mark.parametrize("s", range(60, 71))
    def test_bg_family_past_63_elements(self, s):
        # BG(1, s - 1) has a ground set of s + 1 elements.
        lg, p = bg_dim_partition(2, s)
        assert (lg.graph, lg.labels) == pairwise_bipartite_kneser(1, s - 1)
        assert p.color_of == leftover_reference(lg)


class TestKneserPartition:
    def test_r2_is_triangle_with_singletons(self):
        lg, p = kneser_dim_partition(2)
        assert lg.graph == complete(3)
        assert p.num_classes == 3
        assert all(len(c) == 1 for c in p.classes)

    def test_r3_petersen_five_classes_of_three(self):
        lg, p = kneser_dim_partition(3)
        assert p.num_classes == 5
        assert all(len(c) == 3 for c in p.classes)
        for cls in p.classes:
            assert classify_dim(lg.graph, cls).is_valid

    def test_r4_seven_classes_of_ten(self):
        lg, p = kneser_dim_partition(4)
        assert p.num_classes == 7
        assert all(len(c) == 10 for c in p.classes)

    @pytest.mark.parametrize("r", range(2, 6))
    def test_classes_are_dims_with_expected_size(self, r):
        lg, p = kneser_dim_partition(r)
        assert p.num_classes == 2 * r - 1
        expected = comb(2 * r - 1, r - 1) * r // (2 * (2 * r - 1))
        for cls in p.classes:
            assert len(cls) == expected
            assert classify_dim(lg.graph, cls).is_valid
        report = verify_dim_partition(lg.graph, p)
        assert report.valid and report.class_count_ok
        assert report.regularity == "regular"

    def test_bad_parameter(self):
        with pytest.raises(ValueError):
            kneser_dim_partition(1)


class TestBgPartition:
    def test_r2_s2_matches_c6_partition(self):
        lg, p = bg_dim_partition(2, 2)
        assert lg.graph.n == 6 and lg.graph.m == 6
        assert p.num_classes == 3
        assert all(len(c) == 2 for c in p.classes)

    def test_r3_s2_four_classes_of_three(self):
        lg, p = bg_dim_partition(3, 2)
        assert p.num_classes == 4
        assert all(len(c) == 3 for c in p.classes)
        for cls in p.classes:
            assert classify_dim(lg.graph, cls).is_valid

    def test_mirror_symmetry(self):
        a, pa = bg_dim_partition(3, 2)
        b, pb = bg_dim_partition(2, 3)
        assert a.graph.m == b.graph.m
        assert pa.num_classes == pb.num_classes
        assert sorted(len(c) for c in pa.classes) == sorted(len(c) for c in pb.classes)

    @pytest.mark.parametrize("r", range(2, 5))
    @pytest.mark.parametrize("s", range(2, 5))
    def test_classes_are_dims(self, r, s):
        lg, p = bg_dim_partition(r, s)
        assert p.num_classes == r + s - 1
        for cls in p.classes:
            assert classify_dim(lg.graph, cls).is_valid
        report = verify_dim_partition(lg.graph, p)
        assert report.valid and report.class_count_ok

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            bg_dim_partition(1, 2)


class TestStandardGraphs:
    def test_cycle4_is_the_no_dim_witness(self):
        assert find_dim(cycle(4)) is None

    def test_petersen_equals_kneser(self):
        assert petersen() == kneser(5, 2).graph

    def test_complete3_equals_cycle3(self):
        assert complete(3) == cycle(3)

    def test_star_shape(self):
        g = star(4)
        assert g.degrees[0] == 4 and g.degrees[1:] == (1, 1, 1, 1)

    def test_parameter_minimums(self):
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            complete(0)
        with pytest.raises(ValueError):
            star(0)
