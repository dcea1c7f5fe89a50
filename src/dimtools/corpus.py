"""Exhaustive and sampled corpora of small connected graphs.

Exhaustive streams enumerate labeled graphs (all edge subsets of the
complete graph, connectivity-filtered) rather than isomorphism
classes, so no canonical-form machinery is needed.  Sampling draws
each edge independently with probability 1/2 and rejects disconnected
graphs, which keeps it uniform over connected labeled graphs; the seed
makes it reproducible.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .graph import Graph, build_graph, is_connected


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected labeled graphs on vertices 0..n-1, in mask order."""
    if n < 1:
        raise ValueError("need at least one vertex")
    slots = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        pairs = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        g = build_graph(n, pairs)
        if is_connected(g):
            yield g


def sample_connected_graphs(n: int, count: int, seed: int) -> list[Graph]:
    """``count`` connected labeled graphs on n vertices, seeded."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    slots = list(itertools.combinations(range(n), 2))
    out: list[Graph] = []
    while len(out) < count:
        pairs = [e for e in slots if rng.random() < 0.5]
        g = build_graph(n, pairs)
        if is_connected(g):
            out.append(g)
    return out
