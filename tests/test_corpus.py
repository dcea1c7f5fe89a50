"""Corpus enumeration and seeded sampling."""

import pytest

from dimtools.corpus import connected_graphs, sample_connected_graphs
from dimtools.graph import is_connected


# labeled connected graph counts (n = 1..5)
KNOWN_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}


@pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
def test_connected_counts(n, count):
    assert sum(1 for _ in connected_graphs(n)) == count


def test_all_yields_are_connected_with_right_order():
    for g in connected_graphs(4):
        assert g.n == 4
        assert is_connected(g)


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
