"""Answer checks that share no code with dimtools.

Every function here works on plain vertex counts and edge tuples, so a
defect in the library under test cannot hide itself by also breaking
the check.  The benchmark calls these after each timed call, with the
clock stopped.
"""

from __future__ import annotations

from math import comb


class WrongAnswer(Exception):
    """The program returned an answer that the reference contradicts."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def dim_census(n: int, edges) -> tuple[int, int | None]:
    """(number of DIMs, their common size) by the vertex-split test.

    A DIM M exists exactly when V splits into B (the matched vertices)
    and W such that G[B] is 1-regular and W is independent; the split
    determines M, so counting splits counts DIMs.  Scans all 2^n splits.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    count = 0
    size = None
    for b in range(1 << n):
        w = full ^ b
        for v in range(n):
            if b >> v & 1:
                if (adj[v] & b).bit_count() != 1:
                    break
            elif adj[v] & w:
                break
        else:
            count += 1
            size = b.bit_count() // 2
    return count, size


def is_dim(edges, chosen) -> bool:
    """Is the edge-id set ``chosen`` a dominating induced matching?"""
    owner = {}
    for e in chosen:
        u, v = edges[e]
        if u in owner or v in owner:
            return False
        owner[u] = owner[v] = e
    for f, (u, v) in enumerate(edges):
        hit_u, hit_v = u in owner, v in owner
        if hit_u and hit_v and f not in chosen:
            return False
        if not hit_u and not hit_v:
            return False
    return True


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def forced_class_count(n: int, edges) -> int | None:
    """d(u)+d(v)-1 when it is the same for every edge, else None."""
    deg = degrees(n, edges)
    counts = {deg[u] + deg[v] - 1 for u, v in edges}
    return counts.pop() if len(counts) == 1 else None


def kneser_family_shape(r: int) -> tuple[int, int, int]:
    """(vertices, edges, DIM size) of KG(2r-1, r-1), which is r-regular."""
    n = comb(2 * r - 1, r - 1)
    return n, n * r // 2, n * r // (4 * r - 2)


def bg_family_shape(r: int, s: int) -> tuple[int, int, int]:
    """(vertices, edges, DIM size) of BG(r-1, s-1) on r+s-1 ground elements.

    An (r-1)-subset has C(s, s-1) = s disjoint (s-1)-subsets, and each
    of the r+s-1 classes of the closed-form partition is a DIM, so the
    DIM size is m / (r+s-1).
    """
    ground = r + s - 1
    left, right = comb(ground, r - 1), comb(ground, s - 1)
    m = left * s
    return left + right, m, m // ground


def edgelist_text(n: int, edges) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def dimacs_text(n: int, edges) -> str:
    return "".join(
        [f"p edge {n} {len(edges)}\n"] + [f"e {u + 1} {v + 1}\n" for u, v in edges]
    )


def partition_text(edges, num_classes: int, colors) -> str:
    return "".join(
        [f"classes {num_classes}\n"]
        + [f"{u} {v} {c}\n" for (u, v), c in zip(edges, colors)]
    )


def relabel(n: int, edges, rng) -> tuple[list[int], list[tuple[int, int]]]:
    """A seeded random vertex permutation and the sorted image edge list."""
    perm = list(range(n))
    rng.shuffle(perm)
    image = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    )
    return perm, image


def prism_edges(k: int) -> list[tuple[int, int]]:
    """C_k x K2 labelled block by block: outer cycle 0..k-1, inner k..2k-1."""
    pairs = [(i, (i + 1) % k) for i in range(k)]
    pairs += [(k + i, k + (i + 1) % k) for i in range(k)]
    pairs += [(i, k + i) for i in range(k)]
    return sorted((min(u, v), max(u, v)) for u, v in pairs)
