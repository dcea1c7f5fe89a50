"""Corpus enumeration and seeded sampling."""

import hashlib
import itertools
import random
import tracemalloc

import networkx as nx
import pytest

from dimtools import corpus
from dimtools.corpus import connected_graphs, sample_connected_graphs
from dimtools.graph import Graph, build_graph, is_connected


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


def test_n6_sequence_is_pinned():
    # sha256 over each yielded graph's edge tuple, repr'd, one line per
    # graph, as the generator gave it when it built and BFS-tested a
    # Graph for every one of the 32 768 masks.
    digest = hashlib.sha256()
    for g in connected_graphs(6):
        digest.update(repr(g.edges).encode() + b"\n")
    assert digest.hexdigest() == "1d835f7daf65c8d7da3730e37ccde4fd664aa1ed6be3ed3b5911a9a12ddd57d1"


@pytest.mark.parametrize("block_bits", [0, 1, 3])
def test_tiny_blocks_give_the_same_graphs(monkeypatch, block_bits):
    monkeypatch.setattr(corpus, "_BLOCK_BITS", block_bits)
    for n in range(1, 6):
        assert list(connected_graphs(n)) == list(reference_connected_graphs(n))


def test_masks_wider_than_int64():
    # C(12, 2) = 66 slots; the star at 0 is the first 11 of them, and
    # every smaller mask has fewer than 11 edges.
    g = next(connected_graphs(12))
    assert g == Graph(12, tuple((0, v) for v in range(1, 12)))


def test_a_prefix_of_n7_holds_one_block():
    tracemalloc.start()
    try:
        graphs = list(itertools.islice(connected_graphs(7), 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(graphs) == 1000
    assert peak < 4 * 2**20


def reference_sample(n, count, seed):
    """One draw per vertex pair, in pair order, until ``count`` graphs
    connect."""
    rng = random.Random(seed)
    slots = list(itertools.combinations(range(n), 2))
    expected = []
    while len(expected) < count:
        g = build_graph(n, [e for e in slots if rng.random() < 0.5])
        if is_connected(g):
            expected.append(g)
    return expected


def test_sample_matches_its_draws():
    assert sample_connected_graphs(8, 1000, 42) == reference_sample(8, 1000, 42)


@pytest.mark.parametrize("draws", [1, 7, 100])
def test_small_sample_blocks_make_the_same_draws(monkeypatch, draws):
    # A block of one candidate, of fewer draws than a candidate takes,
    # and of a few candidates each.
    monkeypatch.setattr(corpus, "_SAMPLE_DRAWS", draws)
    for n, count, seed in ((1, 3, 0), (2, 20, 1), (3, 30, 2), (8, 40, 42)):
        assert sample_connected_graphs(n, count, seed) == reference_sample(n, count, seed)


def test_sample_past_64_vertices():
    # Neighbour masks wider than uint64 are Python ints.
    assert sample_connected_graphs(70, 2, 1) == reference_sample(70, 2, 1)


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
