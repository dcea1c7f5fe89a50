"""Corpus enumeration and seeded sampling."""

import itertools
import random

import networkx as nx
import pytest

from dimtools.corpus import connected_graphs, sample_connected_graphs
from dimtools.graph import build_graph, is_connected


# labeled connected graph counts (n = 1..5), OEIS A001187; n = 6 (26 704)
# is pinned by the `sweep --max-n 6` golden in tests/test_cli.py
KNOWN_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}


@pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
def test_connected_counts(n, count):
    assert sum(1 for _ in connected_graphs(n)) == count


def reference_connected_graphs(n):
    """Every edge mask in order, through build_graph, kept when networkx
    finds the graph connected."""
    slots = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        g = build_graph(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges)
        if nx.is_connected(nxg):
            yield g


def test_all_yields_are_connected_with_right_order():
    for n in range(1, 6):
        got = list(connected_graphs(n))
        assert got == list(reference_connected_graphs(n))
        for g in got:
            assert g.n == n
            assert is_connected(g)


def test_sample_matches_its_draws():
    # One draw per vertex pair, in pair order, until 1000 graphs connect.
    rng = random.Random(42)
    slots = list(itertools.combinations(range(8), 2))
    expected = []
    while len(expected) < 1000:
        g = build_graph(8, [e for e in slots if rng.random() < 0.5])
        if is_connected(g):
            expected.append(g)
    assert sample_connected_graphs(8, 1000, 42) == expected


def test_sampling_is_deterministic():
    a = sample_connected_graphs(7, 50, seed=42)
    b = sample_connected_graphs(7, 50, seed=42)
    assert a == b
    c = sample_connected_graphs(7, 50, seed=43)
    assert a != c


def test_samples_are_connected():
    for g in sample_connected_graphs(8, 40, seed=1):
        assert g.n == 8
        assert is_connected(g)


def test_sampling_needs_a_vertex():
    # An empty sample would read as a sweep that passed.
    with pytest.raises(ValueError, match="need at least one vertex"):
        sample_connected_graphs(0, 3, seed=0)


@pytest.mark.parametrize("count", [0, -1])
def test_sampling_needs_a_graph(count):
    # So would a sample of no graphs.
    with pytest.raises(ValueError, match="need at least one graph in the sample"):
        sample_connected_graphs(5, count, seed=0)
