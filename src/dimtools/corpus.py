"""Exhaustive and sampled corpora of small connected graphs.

Exhaustive streams enumerate labeled graphs (all edge subsets of the
complete graph, connectivity-filtered) rather than isomorphism
classes, so no canonical-form machinery is needed.  Sampling draws
each edge independently with probability 1/2 and rejects disconnected
graphs, which keeps it uniform over connected labeled graphs; the seed
makes it reproducible.

Connectivity is decided before any :class:`Graph` is built, for a
whole block of candidates at once: each vertex's neighbours are a
bitmask per candidate, held in one numpy array per vertex, and the set
of vertices reached from vertex 0 is widened n - 1 times by ORing in
the neighbours of every vertex it holds.  A :class:`Graph` is built
only for the candidates that reach every vertex.

The vertex pairs ``combinations(range(n), 2)`` yields are canonical and
in sorted order, so any subsequence of them is a canonical edge tuple:
each kept candidate goes straight to :class:`Graph`, with no
:func:`build_graph` normalization, and all graphs on n vertices share
the same pair tuples.  The exhaustive stream walks the edge masks in
aligned blocks of ``2**_BLOCK_BITS``: the low bits vary within a block
and the high bits are fixed, so a graph's edges are a precomputed
tuple for its low bits followed by one for its block's high bits.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

import numpy as np

from .graph import Graph, VertexPair

# The exhaustive stream decides the connectivity of 2**_BLOCK_BITS
# consecutive edge masks at once, so it holds one block's tables and
# arrays (under 1 MB at n = 7), never the 2**C(n, 2) masks.
_BLOCK_BITS = 12
# A sample draws at most this many edge decisions per block of
# candidates.
_SAMPLE_DRAWS = 1 << 16


def _mask_dtype(n: int):
    """The narrowest unsigned dtype with a bit per vertex; Python ints
    (object arrays) past 64 vertices."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if n <= np.iinfo(dtype).bits:
            return dtype
    return object


def _neighbour_masks(
    n: int, slots: Sequence[VertexPair], present: np.ndarray
) -> list[np.ndarray]:
    """Each vertex's neighbours as a bitmask per candidate: ``present``
    has a row per candidate and a column per slot, True where the
    candidate has that slot's pair as an edge."""
    dtype = _mask_dtype(n)
    nbrs = [np.zeros(len(present), dtype) for _ in range(n)]
    for s, (u, w) in enumerate(slots):
        has = present[:, s].astype(dtype)
        nbrs[u] |= has << w
        nbrs[w] |= has << u
    return nbrs


def _reaches_all(nbrs: list[np.ndarray]) -> np.ndarray:
    """Whether vertex 0 reaches every vertex, per candidate, given each
    vertex's neighbour masks.

    After i widenings the reached set holds every vertex within i steps
    of vertex 0, and no vertex is more than n - 1 steps away.
    """
    n = len(nbrs)
    reach = np.ones_like(nbrs[0])
    for _ in range(n - 1):
        for v, nb in enumerate(nbrs):
            # -1 is all ones: v's neighbours join where v is reached.
            reach |= nb & -((reach >> v) & 1)
    return reach == (1 << n) - 1


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected labeled graphs on vertices 0..n-1, in mask order.

    Bit i of a mask is the i-th pair of ``combinations(range(n), 2)``.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    slots = list(itertools.combinations(range(n), 2))
    bits = min(len(slots), _BLOCK_BITS)
    low_slots, high_slots = slots[:bits], slots[bits:]
    # Edge tuples and neighbour masks of every low part, shared by all blocks.
    low_edges: list[tuple[VertexPair, ...]] = [()]
    for pair in low_slots:
        low_edges += [edges + (pair,) for edges in low_edges]
    low_present = ((np.arange(1 << bits)[:, None] >> np.arange(bits)) & 1) != 0
    low_nbrs = _neighbour_masks(n, low_slots, low_present)
    for high in range(1 << len(high_slots)):
        high_edges = tuple(itertools.compress(
            high_slots, [high >> i & 1 for i in range(len(high_slots))]
        ))
        high_nbrs = [0] * n
        for u, w in high_edges:
            high_nbrs[u] |= 1 << w
            high_nbrs[w] |= 1 << u
        connected = _reaches_all([low | hi for low, hi in zip(low_nbrs, high_nbrs)])
        for low in np.flatnonzero(connected).tolist():
            yield Graph(n, low_edges[low] + high_edges)


def sample_connected_graphs(n: int, count: int, seed: int) -> list[Graph]:
    """``count`` connected labeled graphs on n vertices, seeded.

    Each candidate takes one ``rng.random() < 0.5`` per vertex pair, in
    pair order, and is kept when connected.  Candidates are drawn in
    blocks of at most the number still wanted, so every candidate drawn
    is one the draws one at a time would also reach.

    Raises ValueError for ``n < 1`` or ``count < 1``: an empty sample
    would read as a sweep that passed.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if count < 1:
        raise ValueError("need at least one graph in the sample")
    rng = random.Random(seed)
    slots = list(itertools.combinations(range(n), 2))
    c = len(slots)
    out: list[Graph] = []
    while len(out) < count:
        block = min(count - len(out), max(1, _SAMPLE_DRAWS // max(c, 1)))
        drawn = [rng.random() < 0.5 for _ in range(block * c)]
        present = np.array(drawn, bool).reshape(block, c)
        connected = _reaches_all(_neighbour_masks(n, slots, present))
        for i in np.flatnonzero(connected).tolist():
            out.append(Graph(n, tuple(itertools.compress(slots, drawn[i * c:(i + 1) * c]))))
    return out
