"""An independent oracle at scale: DIMs as the solutions of an integer
program, solved by scipy's HiGHS.

The model is built straight from ``g.incident`` and shares no code with
the exact-cover engine: one 0/1 variable x_e per edge, and for every edge
f = uv the constraint that the edges at u or v sum to exactly 1, so every
edge is dominated by exactly one chosen edge.  Those are the DIMs.  To
enumerate, each DIM M found adds the no-good cut sum_{e in M} x_e <=
|M| - 1.  It cuts off M and no other DIM: no DIM contains another, since
an edge outside a DIM shares an endpoint with one of its edges.
"""

import random

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from dimtools.families import bipartite_kneser, cycle, kneser, petersen
from dimtools.graph import build_graph
from dimtools.solver import enumerate_dims, find_dim


def exactly_once(g):
    """The rows of the exactly-once model: for each edge uv, the edges
    at u or v, each once, as a sparse 0/1 matrix over the edges."""
    indptr, indices = [0], []
    for u, v in g.edges:
        indices += sorted(set(g.incident[u]) | set(g.incident[v]))
        indptr.append(len(indices))
    return csr_array((np.ones(len(indices)), indices, indptr), shape=(g.m, g.m))


def milp_dims(g, limit=None):
    """The DIMs of g, found one at a time by HiGHS with a no-good cut
    after each, sorted as ``enumerate_dims`` sorts them; at most
    ``limit`` of them."""
    if g.m == 0:
        return [frozenset()]
    constraints = [LinearConstraint(exactly_once(g), 1, 1)]
    found = []
    while limit is None or len(found) < limit:
        result = milp(
            np.zeros(g.m),
            integrality=np.ones(g.m),
            bounds=Bounds(0, 1),
            constraints=constraints,
        )
        if result.status == 2:  # infeasible: no DIM left
            break
        assert result.status == 0, result.message
        dim = frozenset(np.flatnonzero(result.x > 0.5).tolist())
        found.append(dim)
        cut = np.zeros(g.m)
        cut[list(dim)] = 1
        constraints.append(LinearConstraint(cut, -np.inf, len(dim) - 1))
    return sorted(found, key=lambda d: tuple(sorted(d)))


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_cubic(n, seed):
    h = nx.random_regular_graph(3, n, seed=seed)
    return build_graph(n, sorted(tuple(sorted(e)) for e in h.edges()))


def petersen_lift(t, seed):
    """A t-fold cover of the Petersen graph: vertex (u, i) is u*t + i, and
    base edge uv joins (u, i) to (v, pi(i)) for a seeded shuffle pi per
    edge.  The lift of a DIM of the base is a DIM of the cover."""
    rng = random.Random(seed)
    base = petersen()
    pairs = []
    for u, v in base.edges:
        pi = rng.sample(range(t), t)
        pairs += [(u * t + i, v * t + pi[i]) for i in range(t)]
    return build_graph(base.n * t, sorted(tuple(sorted(p)) for p in pairs))


def test_model_on_small_graphs():
    # C6 has three DIMs, C4 none, Petersen five and an edgeless graph the
    # empty one.
    for g in (cycle(6), cycle(4), petersen(), build_graph(3, [])):
        assert milp_dims(g) == enumerate_dims(g)


@pytest.mark.parametrize("seed", (None, 3), ids=["canonical", "relabelled"])
@pytest.mark.parametrize(
    "make,count",
    [(lambda: kneser(9, 4).graph, 9), (lambda: bipartite_kneser(3, 4).graph, 8)],
    ids=["KG(9,4)", "BG(3,4)"],
)
def test_enumeration_matches(make, count, seed):
    g = make() if seed is None else relabelled(make(), seed)
    dims = enumerate_dims(g)
    assert len(dims) == count
    assert milp_dims(g) == dims


@pytest.mark.parametrize("n", (40, 120, 200, 400))
def test_existence_on_random_cubic_graphs(n):
    # networkx.random_regular_graph(3, n, seed) for three seeds each, and
    # a Petersen lift on n vertices, which has a DIM.
    graphs = [random_cubic(n, seed) for seed in (1, 2, 3)] + [petersen_lift(n // 10, n)]
    answers = [(find_dim(g) is None, milp_dims(g, limit=1) == []) for g in graphs]
    assert all(engine == oracle for engine, oracle in answers), answers
    assert answers[-1] == (False, False)


@pytest.mark.parametrize("t", (2, 3, 4))
def test_enumeration_matches_on_petersen_lifts(t):
    # Every DIM of the base lifts to one of the cover; the cover may have
    # more.
    g = petersen_lift(t, t)
    dims = enumerate_dims(g)
    assert len(dims) >= 5
    assert milp_dims(g) == dims
