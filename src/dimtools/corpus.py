"""Exhaustive and sampled corpora of small connected graphs.

Exhaustive streams enumerate labeled graphs (all edge subsets of the
complete graph, connectivity-filtered) rather than isomorphism
classes, so no canonical-form machinery is needed.  Sampling draws
each edge independently with probability 1/2 and rejects disconnected
graphs, which keeps it uniform over connected labeled graphs; the seed
makes it reproducible.

The vertex pairs ``combinations(range(n), 2)`` yields are canonical and
in sorted order, so any subsequence of them is a canonical edge tuple:
each candidate goes straight to :class:`Graph`, with no
:func:`build_graph` normalization, and all graphs on n vertices share
the same pair tuples.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .graph import Graph, is_connected


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected labeled graphs on vertices 0..n-1, in mask order."""
    if n < 1:
        raise ValueError("need at least one vertex")
    slots = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        g = Graph(n, tuple([slots[i] for i in range(len(slots)) if mask >> i & 1]))
        if is_connected(g):
            yield g


def sample_connected_graphs(n: int, count: int, seed: int) -> list[Graph]:
    """``count`` connected labeled graphs on n vertices, seeded.

    Raises ValueError for ``n < 1`` or ``count < 1``: an empty sample
    would read as a sweep that passed.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if count < 1:
        raise ValueError("need at least one graph in the sample")
    rng = random.Random(seed)
    slots = list(itertools.combinations(range(n), 2))
    out: list[Graph] = []
    while len(out) < count:
        g = Graph(n, tuple([e for e in slots if rng.random() < 0.5]))
        if is_connected(g):
            out.append(g)
    return out
