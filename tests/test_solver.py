"""DIM classification, search, enumeration, and the subset-scan oracle."""

import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimtools import partition, solver
from dimtools.corpus import connected_graphs, sample_connected_graphs
from dimtools.families import (
    bipartite_kneser,
    complete,
    cycle,
    kneser,
    kneser_dim_partition,
    petersen,
    star,
)
from dimtools.graph import build_graph
from dimtools.io import parse_graph
from dimtools.solver import (
    DEFAULT_BUDGET,
    DimClass,
    SearchBudgetExceeded,
    _dim_search,
    _ExactCover,
    _Nodes,
    brute_force_dims,
    classify_dim,
    dominated_set,
    enumerate_dims,
    find_dim,
)

from test_graph import disjoint_union, graphs_strategy


DATA = Path(__file__).parent / "data"


def pairs_of(g, edge_ids):
    return sorted(g.edges[e] for e in edge_ids)


def relabelled(g, seed):
    """g with its vertices permuted by a seeded shuffle."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# BG(1,3) has 20 edges, the most the subset-scan oracles accept.
BG13_RELABELLED = [relabelled(bipartite_kneser(1, 3).graph, seed) for seed in range(3)]


class TestDominatedSet:
    def test_triangle_edge_dominates_all(self):
        g = complete(3)
        for e in range(3):
            assert dominated_set(g, e) == frozenset(range(3))

    def test_cycle_edge(self):
        g = cycle(6)
        e = g.edge_id(0, 1)
        assert pairs_of(g, dominated_set(g, e)) == [(0, 1), (0, 5), (1, 2)]

    def test_star_edge_dominates_all(self):
        g = star(3)
        for e in range(3):
            assert dominated_set(g, e) == frozenset(range(3))

    def test_symmetry(self):
        g = petersen()
        for e in range(g.m):
            for f in dominated_set(g, e):
                assert e in dominated_set(g, f)

    def test_invalid_id(self):
        with pytest.raises(ValueError):
            dominated_set(complete(3), 3)


class TestClassify:
    def test_c4_single_edge_not_dominating(self):
        g = cycle(4)
        w = classify_dim(g, {g.edge_id(0, 1)})
        assert w.classification is DimClass.NOT_DOMINATING
        assert g.edges[w.counterexample] == (2, 3)

    def test_c6_valid(self):
        g = cycle(6)
        w = classify_dim(g, {g.edge_id(0, 1), g.edge_id(3, 4)})
        assert w.is_valid and w.counterexample is None

    def test_c6_not_induced(self):
        g = cycle(6)
        w = classify_dim(g, {g.edge_id(0, 1), g.edge_id(2, 3)})
        assert w.classification is DimClass.NOT_INDUCED
        assert g.edges[w.counterexample] == (1, 2)

    def test_not_matching(self):
        g = star(3)
        w = classify_dim(g, {0, 1})
        assert w.classification is DimClass.NOT_MATCHING
        assert w.counterexample == (0, 1)

    def test_empty_set_on_edgeless_graph(self):
        assert classify_dim(build_graph(4, []), set()).is_valid

    def test_invalid_edge_id(self):
        with pytest.raises(ValueError):
            classify_dim(complete(3), {5})

    @pytest.mark.parametrize("n", range(2, 5))
    def test_exact_once_equivalence_exhaustive(self, n):
        # valid-dim iff every edge is dominated by exactly one member
        for g in connected_graphs(n):
            doms = [dominated_set(g, e) for e in range(g.m)]
            for mask in range(1 << g.m):
                members = {e for e in range(g.m) if mask >> e & 1}
                counts = [
                    sum(1 for e in members if f in doms[e]) for f in range(g.m)
                ]
                exact_once = all(c == 1 for c in counts)
                assert classify_dim(g, members).is_valid == exact_once

    @given(graphs_strategy(max_n=6), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_exact_once_equivalence_random(self, g, rng):
        members = {e for e in range(g.m) if rng.random() < 0.3}
        doms = [dominated_set(g, e) for e in range(g.m)]
        exact_once = all(
            sum(1 for e in members if f in doms[e]) == 1 for f in range(g.m)
        )
        assert classify_dim(g, members).is_valid == exact_once


class TestFindDim:
    @pytest.mark.parametrize("n", range(3, 31))
    def test_cycle_law(self, n):
        found = find_dim(cycle(n))
        if n % 3 == 0:
            assert found is not None and len(found) == n // 3
            assert classify_dim(cycle(n), found).is_valid
        else:
            assert found is None

    def test_c4_absent(self):
        assert find_dim(cycle(4)) is None

    def test_petersen(self):
        found = find_dim(petersen())
        assert len(found) == 3
        assert classify_dim(petersen(), found).is_valid

    def test_empty_graph(self):
        assert find_dim(build_graph(5, [])) == frozenset()

    def test_long_cycle_needs_no_recursion(self):
        # 1100 chosen edges deep, past the interpreter's recursion limit.
        assert len(find_dim(cycle(3300))) == 1100

    def test_found_dims_are_valid(self):
        for g in sample_connected_graphs(7, 100, seed=3):
            found = find_dim(g)
            if found is not None:
                assert classify_dim(g, found).is_valid


class TestEnumerate:
    def test_triangle(self):
        dims = enumerate_dims(complete(3))
        assert dims == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_c6_exactly_three(self):
        g = cycle(6)
        dims = enumerate_dims(g)
        assert [pairs_of(g, d) for d in dims] == [
            [(0, 1), (3, 4)],
            [(0, 5), (2, 3)],
            [(1, 2), (4, 5)],
        ]

    def test_c4_empty(self):
        assert enumerate_dims(cycle(4)) == []

    def test_lexicographic_order(self):
        for g in sample_connected_graphs(6, 50, seed=11):
            dims = enumerate_dims(g)
            keys = [tuple(sorted(d)) for d in dims]
            assert keys == sorted(keys)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            enumerate_dims(petersen(), budget=2)

    @pytest.mark.parametrize(
        "make,budget,count",
        [
            (lambda: kneser(9, 4).graph, 1_000, 9),
            (lambda: kneser(11, 5).graph, 5_000, 11),
            (lambda: bipartite_kneser(3, 4).graph, 1_000, 8),
        ],
        ids=["KG(9,4)", "KG(11,5)", "BG(3,4)"],
    )
    def test_family_node_ceilings(self, make, budget, count):
        # Node counts do not depend on the machine, so these ceilings pin
        # the branching: most-constrained branching needs 315, 1 386 and
        # 280 nodes with column dominance and 402, 1 889 and 373 without,
        # lowest-index branching over 10^8 for KG(9,4).
        g = make()
        dims = enumerate_dims(g, budget=budget)
        assert len(dims) == count
        assert all(classify_dim(g, d).is_valid for d in dims)

    @pytest.mark.parametrize(
        "make,first,nodes,undominated",
        [
            (lambda: kneser(9, 4).graph, 35, 315, 402),
            (lambda: kneser(11, 5).graph, 126, 1_386, 1_889),
            (lambda: bipartite_kneser(3, 4).graph, 35, 280, 373),
            (lambda: kneser(13, 6).graph, 462, 6_006, 7_832),
        ],
        ids=["KG(9,4)", "KG(11,5)", "BG(3,4)", "KG(13,6)"],
    )
    def test_family_node_counts(self, monkeypatch, make, first, nodes, undominated):
        # Node counts at the first solution (what find_dim pays) and at
        # the end of the enumeration.  With column dominance the
        # enumeration is DIM count x DIM size, so it never backtracks;
        # with dominance patched off it is the plain Algorithm X tree.
        g = make()

        def tree():
            search = _dim_search(g, _Nodes(DEFAULT_BUDGET))
            at_solution = [search.budget.used for _ in search.solutions()]
            return at_solution[0], search.budget.used

        assert tree() == (first, nodes)
        dims = enumerate_dims(g)
        assert nodes == len(dims) * len(dims[0])
        monkeypatch.setattr(_ExactCover, "_dominated", no_dominance)
        assert tree() == (first, undominated)

    @pytest.mark.parametrize("seed", (None, 1, 2), ids=["canonical", "relabelled-1", "relabelled-2"])
    @pytest.mark.parametrize(
        "make",
        [lambda: kneser(9, 4).graph, lambda: bipartite_kneser(3, 4).graph],
        ids=["KG(9,4)", "BG(3,4)"],
    )
    def test_dominance_keeps_the_answers(self, monkeypatch, make, seed):
        # The first DIM, the DIM list and the partition are those of the
        # plain search.
        g = make() if seed is None else relabelled(make(), seed)
        answers = []
        for dominated in (_ExactCover._dominated, no_dominance):
            monkeypatch.setattr(_ExactCover, "_dominated", dominated)
            answers.append((find_dim(g), enumerate_dims(g), partition.find_dim_partition(g)))
        assert answers[0] == answers[1]

    def test_cubic_400_needs_dominance(self, monkeypatch):
        # networkx.random_regular_graph(3, 400, seed=1), checked in once:
        # dominance proves it has no DIM in 280 nodes, Algorithm X alone
        # takes 6 545.
        g = parse_graph((DATA / "cubic-400-seed1.g").read_text(encoding="utf-8"))
        assert (g.n, g.m, set(g.degrees)) == (400, 600, {3})
        assert find_dim(g, budget=1_000) is None
        search = _dim_search(g, _Nodes(DEFAULT_BUDGET))
        assert list(search.solutions()) == []
        assert search.budget.used == 280
        monkeypatch.setattr(_ExactCover, "_dominated", no_dominance)
        with pytest.raises(SearchBudgetExceeded):
            find_dim(g, budget=1_000)

    def test_kg_13_6_closed_form_is_the_only_partition(self):
        # Its 13 DIMs are the 13 classes of the closed-form partition, so
        # that partition is the only DIM partition of KG(13,6).
        labeled, closed_form = kneser_dim_partition(7)
        dims = enumerate_dims(labeled.graph, budget=10_000)
        assert dims == sorted(closed_form.classes, key=lambda d: tuple(sorted(d)))

    def test_kg_15_7_in_one_walk(self):
        # The first DIM at 1 716 nodes and all 15 at 25 740, DIM count x
        # DIM size, with no backtracking; they are the 15 classes of the
        # closed-form partition.
        labeled, closed_form = kneser_dim_partition(8)
        search = _dim_search(labeled.graph, _Nodes(DEFAULT_BUDGET))
        at_solution, dims = [], []
        for sol in search.solutions():
            at_solution.append(search.budget.used)
            dims.append(frozenset(sol))
        assert (at_solution[0], search.budget.used) == (1_716, 25_740)
        assert sorted(dims, key=sorted) == sorted(closed_form.classes, key=sorted)

    def test_membership_exactness(self):
        # every edge is dominated by exactly one member of any valid DIM
        for g in [petersen(), cycle(9), star(4), complete(3)]:
            for d in enumerate_dims(g):
                for f in range(g.m):
                    owners = [e for e in d if f in dominated_set(g, e)]
                    assert len(owners) == 1


class TestDimSize:
    """``dim size`` prints the size of the DIM ``find_dim`` returns."""

    def test_examples(self):
        assert len(find_dim(petersen())) == 3
        assert len(find_dim(cycle(9))) == 3
        assert len(find_dim(build_graph(2, [(0, 1)]))) == 1
        assert find_dim(cycle(4)) is None

    def test_all_dims_same_size_small_corpus(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                sizes = {len(d) for d in enumerate_dims(g)}
                assert len(sizes) <= 1


def domination_instances():
    yield from connected_graphs(5)
    yield build_graph(7, [(0, 1), (1, 2), (1, 3), (4, 5)])
    yield prism(30)
    yield relabelled(kneser(9, 4).graph, 1)
    yield relabelled(bipartite_kneser(3, 4).graph, 2)


class TestDominationSets:
    """The engine's two forms of D_e agree with :func:`dominated_set`."""

    def test_masks(self):
        for g in domination_instances():
            masks = solver._domination_masks(g)
            assert masks == [
                sum(1 << f for f in dominated_set(g, e)) for e in range(g.m)
            ]

    def test_table_rows_list_each_edge_once(self):
        for g in domination_instances():
            table = solver._domination_table(g)
            assert table.shape == (g.m, 2 * max(g.degrees))
            for e, row in enumerate(table.tolist()):
                cols = [c for c in row if c != g.m]
                assert len(cols) == len(set(cols))
                assert set(cols) == dominated_set(g, e)

    def test_column_tables(self):
        # The DIM instance's column table is its row table, as intp; a
        # cover instance's lists, for each column, the rows that cover it.
        for g in domination_instances():
            table, col_table = _dim_search(g, _Nodes(0)).tables()
            assert col_table.dtype == np.intp and (col_table == table).all()
        rng = random.Random(3)
        for _ in range(20):
            ncols = rng.randint(1, 9)
            row_lists = [rng.sample(range(ncols), rng.randint(0, ncols)) for _ in range(rng.randint(0, 9))]
            _, cols = solver._cover_search(row_lists, ncols, _Nodes(0)).tables()
            assert cols.shape[0] == ncols
            for c, row in enumerate(cols.tolist()):
                assert [i for i in row if i != len(row_lists)] == [
                    i for i, cs in enumerate(row_lists) if c in cs
                ]


class TestBruteForce:
    def test_c6_matches_enumerate(self):
        g = cycle(6)
        assert brute_force_dims(g) == enumerate_dims(g)

    def test_star_three_singletons(self):
        dims = brute_force_dims(star(3))
        assert dims == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_edgeless_graph_has_empty_dim(self):
        assert brute_force_dims(build_graph(4, [])) == [frozenset()]

    def test_too_many_edges(self):
        with pytest.raises(ValueError):
            brute_force_dims(complete(7))

    def test_petersen_agrees(self):
        assert set(brute_force_dims(petersen())) == set(enumerate_dims(petersen()))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_oracle_equivalence_exhaustive(self, n):
        for g in connected_graphs(n):
            assert enumerate_dims(g) == brute_force_dims(g)

    def test_independent_of_engine_masks(self, monkeypatch):
        # Wrong D_e masks mislead the engine but not the oracle.
        graphs = [petersen(), cycle(6), star(3)]
        expected = [brute_force_dims(g) for g in graphs]
        monkeypatch.setattr(
            solver, "_domination_masks", lambda g: [(1 << g.m) - 1] * g.m
        )
        assert enumerate_dims(petersen()) != expected[0]
        assert [brute_force_dims(g) for g in graphs] == expected

    def test_oracle_equivalence_sampled_larger(self):
        # 1000 sampled graphs at 7-8 vertices and three relabellings of
        # BG(1,3); the scan oracle caps at 20 edges, so denser draws are
        # skipped
        sampled = [g for n in (7, 8) for g in sample_connected_graphs(n, 500, seed=n)]
        for g in sampled + BG13_RELABELLED:
            if g.m <= 20:
                assert set(enumerate_dims(g)) == set(brute_force_dims(g))


def no_dominance(self, live, counts):
    """``_ExactCover._dominated`` that never kills a row."""
    return False


# Ways to walk an instance, each set up on a monkeypatch.
def scan(mp):
    """The scan, whatever the instance's size."""
    mp.setattr(solver, "_COUNTING_MIN_COLUMNS", sys.maxsize)


def counting(mp):
    """The counting rule, with its batches and dominance."""
    mp.setattr(solver, "_COUNTING_MIN_COLUMNS", 0)


def counting_without_dominance(mp):
    counting(mp)
    mp.setattr(_ExactCover, "_dominated", no_dominance)


def one_row_per_node(mp):
    """The counting rule with no batch: one recount per row tried."""
    counting(mp)
    mp.setattr(_ExactCover, "_forced_rows", lambda self, free, live: None)


# Walks that grow one tree: the two branching rules, which choose the same
# column at every node once dominance, which only the counting rule
# applies, is off; and the counting rule with and without its batches.
RULES = (scan, counting_without_dominance)
BATCHES = (counting, one_row_per_node)


def search_outcome(search_for, budget, walk=None):
    """The solutions a fresh search yields under ``budget``, the nodes it
    used and whether it ran out of budget, on ``walk`` if given."""
    with pytest.MonkeyPatch.context() as mp:
        if walk is not None:
            walk(mp)
        search = search_for(budget)
        found = []
        try:
            for sol in search.solutions():
                found.append(sol)
        except SearchBudgetExceeded:
            return found, search.budget.used, True
        return found, search.budget.used, False


def assert_same_tree(search_for, walks=RULES):
    """Both walks give the same solutions in the same order with the same
    node count, and run out of a budget one node short alike.

    ``search_for(budget)`` builds a fresh engine on the instance.
    """
    trees = [search_outcome(search_for, DEFAULT_BUDGET, walk) for walk in walks]
    (found, nodes, exceeded), other = trees
    assert other == (found, nodes, exceeded) and not exceeded
    assert nodes > 0
    for walk in walks:
        short, used, exceeded = search_outcome(search_for, nodes - 1, walk)
        assert exceeded and short == found[: len(short)]
        assert used == nodes


def assert_same_budget_hits(search_for, budgets, walks=RULES):
    """Both walks find the same solutions under each budget and run out
    of it, or not, at the same node."""
    for budget in budgets:
        first, other = (search_outcome(search_for, budget, walk) for walk in walks)
        assert other == first, f"budget {budget}"


def cover_instance(row_lists, ncols):
    """``search_for(budget)`` on the exact cover instance over ``ncols``
    columns whose row i covers the columns ``row_lists[i]``."""
    return lambda budget: solver._cover_search(row_lists, ncols, _Nodes(budget))


def counted_walk(monkeypatch, search_for):
    """The counting rule's walk: the number of rows each recount takes,
    with "replay" where a dead chain is walked again and "dominance"
    where column dominance kills rows, then the solutions and the node
    count."""
    steps = []
    recount, single_steps = _ExactCover._recount, _ExactCover._single_steps
    dominated = _ExactCover._dominated

    def logged_recount(self, counts, dead, chosen):
        steps.append(len(chosen) if isinstance(chosen, list) else 1)
        return recount(self, counts, dead, chosen)

    def logged_single_steps(self, *replay):
        steps.append("replay")
        return single_steps(self, *replay)

    def logged_dominated(self, live, counts):
        dead = dominated(self, live, counts)
        if dead:
            steps.append("dominance")
        return dead

    monkeypatch.setattr(_ExactCover, "_recount", logged_recount)
    monkeypatch.setattr(_ExactCover, "_single_steps", logged_single_steps)
    monkeypatch.setattr(_ExactCover, "_dominated", logged_dominated)
    monkeypatch.setattr(solver, "_COUNTING_MIN_COLUMNS", 0)
    search = search_for(DEFAULT_BUDGET)
    sols = list(search.solutions())
    monkeypatch.setattr(_ExactCover, "_recount", recount)
    monkeypatch.setattr(_ExactCover, "_single_steps", single_steps)
    monkeypatch.setattr(_ExactCover, "_dominated", dominated)
    return steps, sols, search.budget.used


def dim_instance(g):
    return lambda budget: _dim_search(g, _Nodes(budget))


def random_cover_rows(rng):
    """A seeded small instance, half the time with a planted exact cover:
    its row lists and its number of columns."""
    ncols = rng.randint(4, 10)
    row_lists = [rng.sample(range(ncols), rng.randint(1, 3)) for _ in range(rng.randint(4, 14))]
    if rng.random() < 0.5:
        perm = rng.sample(range(ncols), ncols)
        cuts = [0, *sorted(rng.sample(range(1, ncols), rng.randint(0, ncols - 1))), ncols]
        row_lists += [perm[a:b] for a, b in zip(cuts, cuts[1:])]
        rng.shuffle(row_lists)
    return row_lists, ncols


# One hand-built instance per exit of the counting rule's batch step; row
# i covers the columns listed i-th.  The steps list how many rows each
# recount takes, a batch more than one, and each replay.
BATCH_EXITS = [
    # Columns 0 and 1 force rows 0 and 1, which share column 2: one step,
    # which kills row 1 and empties column 1.
    pytest.param([[0, 2], [1, 2]], 3, [1], [], 1, id="forced-rows-share-a-column"),
    # Rows 0 and 1 are forced and disjoint, but together they kill rows 2
    # and 3, column 2's only rows: the batch's recount shows column 2
    # empty, and the walk takes row 0 alone.
    pytest.param(
        [[0, 3], [1, 4], [2, 3], [2, 4]], 5, [2, 1, 1], [], 2, id="batch-empties-a-column"
    ),
    # Row 0 forces rows 2 and 3, and the batch of both completes a
    # solution; row 1 then kills column 1's rows.
    pytest.param(
        [[0, 1], [0, 2, 3], [2], [3], [1, 2]], 4, [1, 2, 1], [[0, 2, 3]], 4,
        id="batch-completes-a-solution",
    ),
    # The root batch {0, 1} leaves column 1 with row 2 alone, which
    # empties column 0: a dead end after 3 nodes.  One row at a time the
    # walk takes row 0, then row 2 for column 1 ahead of row 1 for column
    # 6, and dies after 2, so the chain is walked again from the root, one
    # row per recount.
    pytest.param(
        [[2, 5], [6], [1, 3], [1, 2], [0, 3], [0, 3, 4], [4]], 7, [2, 1, "replay", 1, 1], [], 2,
        id="dead-chain-after-a-batch",
    ),
]


# The instance of "dead-chain-after-a-batch" above, which yields nothing,
# and one that yields two solutions before its chain is walked again.
DEAD_CHAIN = ([[2, 5], [6], [1, 3], [1, 2], [0, 3], [0, 3, 4], [4]], 7)
REPLAY_AFTER_SOLUTIONS = (
    [[0, 3, 4, 5, 2, 8, 6], [7, 5], [4, 0], [8, 6, 1], [2, 0], [4, 5], [7, 3], [1, 7],
     [8, 7, 0], [8, 3, 0], [2, 3, 6], [8, 6], [3, 1], [0]],
    9,
)


def reference_covers(row_lists, ncols):
    """Every exact cover of the instance, each an ascending list of row
    indices, sorted: a plain recursion on the row lists that takes the
    lowest uncovered column and tries every row covering it that lies
    inside the uncovered columns.  It shares no code with the engine."""
    row_sets = [frozenset(cs) for cs in row_lists]
    covers = []

    def extend(uncovered, taken):
        if not uncovered:
            covers.append(sorted(taken))
            return
        c = min(uncovered)
        for i, cs in enumerate(row_sets):
            if c in cs and cs <= uncovered:
                extend(uncovered - cs, [*taken, i])

    extend(frozenset(range(ncols)), [])
    return sorted(covers)


def reference_batch(row_lists, free, live):
    """The batch step in plain Python on the row lists, one column at a
    time: the forced rows, each once and ascending, and the live rows
    that share a column with one of them, themselves included; None if
    two of them share a column or there are fewer than two."""
    row_sets = [set(cs) for cs in row_lists]
    live_rows = [i for i in range(len(row_lists)) if live[i]]
    batch, cover = set(), set()
    for c, count in enumerate(free):
        if count != 1:
            continue
        [i] = [i for i in live_rows if c in row_sets[i]]
        if i in batch:
            continue
        if row_sets[i] & cover:
            return None
        batch.add(i)
        cover |= row_sets[i]
    if len(batch) < 2:
        return None
    return sorted(batch), [i for i in live_rows if row_sets[i] & cover]


def as_batch(forced):
    """A batch step's answer as plain lists, as :func:`reference_batch`
    gives it."""
    return None if forced is None else (forced[0], forced[1].tolist())


def checked_batches(monkeypatch, search_for, row_lists):
    """Enumerate under the counting rule, checking at every call of the
    batch step both of its sides, the row table's and the column
    table's, whichever the step picks, and the step itself against
    :func:`reference_batch` on the instance's row lists; for each call,
    whether it took a batch."""
    forced_rows = _ExactCover._forced_rows
    taken = []

    def checked(self, free, live):
        expected = reference_batch(row_lists, free.tolist(), live.tolist())
        ones = (free == 1).nonzero()[0]
        by_rows = self._forced_by_rows(ones, live.nonzero()[0])
        by_columns = self._forced_by_columns(ones, live)
        assert as_batch(by_rows) == as_batch(by_columns) == expected
        forced = forced_rows(self, free, live)
        assert as_batch(forced) == expected
        taken.append(forced is not None)
        return forced

    monkeypatch.setattr(_ExactCover, "_forced_rows", checked)
    monkeypatch.setattr(solver, "_COUNTING_MIN_COLUMNS", 0)
    list(search_for(DEFAULT_BUDGET).solutions())
    monkeypatch.setattr(_ExactCover, "_forced_rows", forced_rows)
    return taken


def recording(built):
    """An ``_ExactCover`` that appends "masks" or "tables" to ``built``
    each time a search builds that form of its instance."""

    def logged(name, build):
        def call():
            built.append(name)
            return build()

        return call

    class Recording(_ExactCover):
        def __init__(self, nrows, ncols, masks, tables, budget):
            super().__init__(nrows, ncols, logged("masks", masks), logged("tables", tables), budget)

    return Recording


def prism(k):
    """C_k x K2: outer cycle 0..k-1, inner cycle k..2k-1, spokes i -- k+i."""
    pairs = [(i, (i + 1) % k) for i in range(k)]
    pairs += [(k + i, k + (i + 1) % k) for i in range(k)]
    pairs += [(i, k + i) for i in range(k)]
    return build_graph(2 * k, pairs)


def family_instances():
    graphs = [
        ("Petersen", petersen()),
        ("KG(9,4)", kneser(9, 4).graph),
        ("KG(11,5)", kneser(11, 5).graph),
        ("BG(3,4)", bipartite_kneser(3, 4).graph),
        ("BG(4,4)", bipartite_kneser(4, 4).graph),
    ]
    for name, g in graphs:
        yield pytest.param(g, id=f"{name}-canonical")
        for seed in (1, 2):
            yield pytest.param(relabelled(g, seed), id=f"{name}-relabelled-{seed}")


class TestBranchingStrategies:
    """The scan and the per-column counts choose the same column, and the
    counting rule's batches keep the tree of one row per node.

    ``_ExactCover.solutions`` picks a rule by instance size, so each is
    forced here through ``_COUNTING_MIN_COLUMNS`` on instances of both
    sizes; the rules are compared with dominance off (``RULES``), the
    batches with it on (``BATCHES``).
    """

    @pytest.mark.parametrize("n", range(2, 6))
    def test_connected_graphs(self, n):
        for g in connected_graphs(n):
            assert_same_tree(dim_instance(g))

    @pytest.mark.parametrize("g", family_instances())
    def test_family_graphs(self, g):
        assert_same_tree(dim_instance(g))

    @pytest.mark.parametrize("k", (30, 60, 90, 120))
    def test_wide_short_prisms(self, k):
        # 90 to 360 columns, no DIM, and a search of only 8 nodes: the
        # counting rule's set-up is most of its work here.
        assert_same_tree(dim_instance(prism(k)))

    @staticmethod
    def assert_cover_instance_same_tree(monkeypatch, g, shape):
        """find_dim_partition's cover instance on g, the last instance it
        builds, has the given shape and an unpadded table, and both rules
        search it alike."""
        built = []

        class Recording(_ExactCover):
            def __init__(self, *args):
                built.append(args[:4])
                super().__init__(*args)

        monkeypatch.setattr(solver, "_ExactCover", Recording)
        assert partition.find_dim_partition(g) is not None
        nrows, ncols, masks, tables = built[-1]
        assert (nrows, ncols) == shape
        # All DIMs of a graph have one size, so no row is padded.
        assert (tables()[0] < ncols).all()
        assert_same_tree(lambda budget: _ExactCover(nrows, ncols, masks, tables, _Nodes(budget)))

    def test_partition_cover_instance(self, monkeypatch):
        # find_dim_partition covers KG(9,4)'s 315 edges by its 9 DIMs.
        self.assert_cover_instance_same_tree(monkeypatch, kneser(9, 4).graph, (9, 315))

    def test_partition_cover_instance_bg_3_4(self, monkeypatch):
        # BG(3,4)'s 280 edges by its 8 DIMs.
        self.assert_cover_instance_same_tree(
            monkeypatch, bipartite_kneser(3, 4).graph, (8, 280)
        )

    @pytest.mark.parametrize("walk", RULES, ids=["scan", "counting"])
    def test_cover_instance_without_rows(self, monkeypatch, walk):
        # A prism has no DIM, so its cover instance has 90 columns and no
        # rows, and its row table is empty.
        walk(monkeypatch)
        assert partition.find_dim_partition(prism(30)) is None

    @pytest.mark.parametrize("walk", RULES, ids=["scan", "counting"])
    def test_no_columns(self, monkeypatch, walk):
        # An edgeless graph's instance has no columns: one empty solution,
        # found without trying a row, so even a budget of 0 suffices.
        walk(monkeypatch)
        search = _dim_search(build_graph(4, []), _Nodes(0))
        assert [list(sol) for sol in search.solutions()] == [[]]
        assert search.budget.used == 0

    def test_rule_is_picked_by_column_count(self, monkeypatch):
        # KG(7,3) has 70 columns and scans; KG(9,4) has 315 and counts.
        built = []
        monkeypatch.setattr(solver, "_ExactCover", recording(built))
        for g, counting in ((kneser(7, 3).graph, False), (kneser(9, 4).graph, True)):
            search = _dim_search(g, _Nodes(DEFAULT_BUDGET))
            assert (search.ncols >= solver._COUNTING_MIN_COLUMNS) == counting
            built.clear()
            found = sum(1 for _ in search.solutions())
            assert built == ["tables" if counting else "masks"]
            assert found == len(enumerate_dims(g))

    @pytest.mark.parametrize(
        "make,built",
        [
            (lambda: kneser(9, 4).graph, ["tables", "tables"]),
            (petersen, ["masks", "masks"]),
            (lambda: prism(30), ["masks"]),
        ],
        ids=["KG(9,4)", "Petersen", "prism C30"],
    )
    def test_each_rule_builds_only_its_own_state(self, monkeypatch, make, built):
        # find_dim_partition runs the DIM instance and then the cover
        # instance: KG(9,4)'s have 315 columns and count, never building
        # the bitmasks; Petersen's have 15 and prism C30's 90, and scan,
        # never building the index tables.  Prism C30 has no DIM, so it
        # has no cover instance.
        calls = []
        monkeypatch.setattr(solver, "_ExactCover", recording(calls))
        partition.find_dim_partition(make())
        assert calls == built

    @pytest.mark.parametrize("row_lists,ncols,steps,sols,nodes", BATCH_EXITS)
    def test_batch_exits(self, monkeypatch, row_lists, ncols, steps, sols, nodes):
        search_for = cover_instance(row_lists, ncols)
        assert counted_walk(monkeypatch, search_for) == (steps, sols, nodes)
        assert_same_tree(search_for)
        assert_same_budget_hits(search_for, range(nodes + 2))

    def test_dominance_inside_a_dead_chain(self, monkeypatch):
        # Rows 0 and 1 are forced at the root, a batch.  Then every column
        # has two rows or more, and column 7's rows 10 and 11 both cover
        # column 0, so dominance kills column 0's rows 6, 7 and 9.  That
        # forces rows 3, 4 and 8, a second batch, which leaves columns 0
        # and 2 to rows 10 and 2, which share column 5: row 10 empties
        # column 2 after 6 nodes.  One row at a time the walk takes row 4,
        # which forces row 10 ahead of rows 3 and 8, and dies after 4.
        # The batch walk and the single steps meet at the node where
        # dominance fires, so the chain is walked again from there, not
        # from the root: from the root, the single steps would need
        # dominance too.
        row_lists = [
            [8], [9], [2, 5], [6], [1, 3], [1, 2], [0, 3], [0, 3, 4], [4], [0, 6], [0, 5, 7], [0, 1, 7],
        ]
        search_for = cover_instance(row_lists, 10)
        steps = [2, "dominance", 3, 1, "replay", 1, 1]
        assert counted_walk(monkeypatch, search_for) == (steps, [], 4)
        assert_same_tree(search_for, BATCHES)
        assert_same_budget_hits(search_for, range(6), BATCHES)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_dominance_everywhere(self, n):
        # The counting rule applies dominance on every instance it runs:
        # on every connected graph up to 5 vertices and a seeded sample of
        # 6 and 7, its batches keep the tree of one row per node, and it
        # finds exactly the DIMs that the subset scan finds.  Dominance at
        # the root can empty a column, so some searches try no row at all.
        graphs = connected_graphs(n) if n <= 5 else sample_connected_graphs(n, 150, seed=n)
        for g in graphs:
            search_for = dim_instance(g)
            found, nodes, _ = search_outcome(search_for, DEFAULT_BUDGET, counting)
            assert_same_budget_hits(search_for, {max(nodes - 1, 0), DEFAULT_BUDGET}, BATCHES)
            if g.m <= 20:
                assert set(map(frozenset, found)) == set(brute_force_dims(g))

    def test_batch_at_the_root(self, monkeypatch):
        # 300 disjoint edges: each dominates itself alone, so all 300
        # columns, the default threshold or more, force their rows at the
        # root, and one batch takes them: one recount, 300 nodes.
        g = build_graph(600, [(2 * i, 2 * i + 1) for i in range(300)])
        assert g.m >= solver._COUNTING_MIN_COLUMNS
        search_for = dim_instance(g)
        search = search_for(DEFAULT_BUDGET)
        assert list(search.solutions()) == [list(range(300))]
        assert search.budget.used == 300
        assert counted_walk(monkeypatch, search_for) == ([300], [list(range(300))], 300)
        assert_same_tree(search_for)
        assert_same_budget_hits(search_for, (0, 1, 299, 300))

    def test_random_cover_instances(self):
        # Seeded small instances, half with a planted exact cover, under
        # every budget up to one past their node count.
        rng = random.Random(7)
        for _ in range(60):
            search_for = cover_instance(*random_cover_rows(rng))
            nodes = search_outcome(search_for, DEFAULT_BUDGET)[1]
            assert_same_budget_hits(search_for, range(nodes + 2))

    def test_random_cover_instances_with_dominance(self):
        # The same kind of instances under the counting rule: its batches
        # keep the one-row tree under every budget, and the covers are
        # those of the scan, which applies no dominance.
        rng = random.Random(11)
        for _ in range(60):
            search_for = cover_instance(*random_cover_rows(rng))
            plain = search_outcome(search_for, DEFAULT_BUDGET, scan)[0]
            found, nodes, _ = search_outcome(search_for, DEFAULT_BUDGET, counting)
            assert sorted(found) == sorted(plain)
            assert_same_budget_hits(search_for, range(nodes + 2), BATCHES)

    def test_random_cover_instances_against_a_reference(self):
        # The instances of the three seeded sets above, whose covers the
        # rules are otherwise only checked against each other on: the
        # walk finds exactly the covers of a plain recursion, under the
        # scan, the counting rule and the counting rule without batches.
        with_cover = 0
        for seed in (7, 11, 13):
            rng = random.Random(seed)
            for _ in range(60):
                row_lists, ncols = random_cover_rows(rng)
                expected = reference_covers(row_lists, ncols)
                with_cover += bool(expected)
                search_for = cover_instance(row_lists, ncols)
                for walk in (scan, counting, one_row_per_node):
                    found, _, exceeded = search_outcome(search_for, DEFAULT_BUDGET, walk)
                    assert sorted(found) == expected and not exceeded
        assert with_cover == 125

    @pytest.mark.parametrize("seed", (None, 3), ids=["canonical", "relabelled"])
    @pytest.mark.parametrize(
        "make",
        [lambda: kneser(9, 4).graph, lambda: bipartite_kneser(3, 4).graph],
        ids=["KG(9,4)", "BG(3,4)"],
    )
    def test_family_budget_sweep(self, make, seed):
        # Every budget up to 10 past the first solution's node count, and
        # the last 10 short of the whole enumeration, for the two rules
        # and for the batches.
        g = make() if seed is None else relabelled(make(), seed)
        masks, table = solver._domination_masks(g), solver._domination_table(g)
        col_table = table.astype(np.intp)

        def search_for(budget):
            return _ExactCover(
                g.m, g.m, lambda: (masks, masks), lambda: (table, col_table), _Nodes(budget)
            )

        for walks in (RULES, BATCHES):
            with pytest.MonkeyPatch.context() as mp:
                walks[0](mp)
                search = search_for(DEFAULT_BUDGET)
                next(search.solutions())
                first = search.budget.used
            nodes = search_outcome(search_for, DEFAULT_BUDGET, walks[0])[1]
            budgets = [*range(first + 11), *range(nodes - 10, nodes)]
            assert_same_budget_hits(search_for, budgets, walks)


class TestForcedBatch:
    """The batch step on the index tables takes the forced rows and kills
    the rows that a plain scan of the row lists finds."""

    @pytest.mark.parametrize("row_lists,ncols,steps,sols,nodes", BATCH_EXITS)
    def test_batch_exits(self, monkeypatch, row_lists, ncols, steps, sols, nodes):
        taken = checked_batches(monkeypatch, cover_instance(row_lists, ncols), row_lists)
        assert any(taken) == any(isinstance(s, int) and s > 1 for s in steps)

    @pytest.mark.parametrize("dominance", (False, True), ids=["plain", "dominance"])
    def test_random_cover_instances(self, monkeypatch, dominance):
        if not dominance:
            monkeypatch.setattr(_ExactCover, "_dominated", no_dominance)
        rng = random.Random(13)
        taken = []
        for _ in range(60):
            row_lists, ncols = random_cover_rows(rng)
            taken += checked_batches(monkeypatch, cover_instance(row_lists, ncols), row_lists)
        assert any(taken) and not all(taken)

    @pytest.mark.parametrize(
        "make,calls",
        [(lambda: kneser(9, 4).graph, 9), (lambda: bipartite_kneser(3, 4).graph, 16)],
        ids=["KG(9,4)", "BG(3,4)"],
    )
    def test_family_graphs(self, monkeypatch, make, calls):
        # With dominance every call of the batch step takes a batch, on
        # the canonical labels and on a relabelling alike.
        for g in (make(), relabelled(make(), 1)):
            row_lists = [sorted(dominated_set(g, e)) for e in range(g.m)]
            assert checked_batches(monkeypatch, dim_instance(g), row_lists) == [True] * calls

    def test_kg_11_5_reads_both_tables(self, monkeypatch):
        # Each branch of a KG(11,5) enumeration takes two batches: the
        # first, with 725 live rows and 275 columns counted 1, reads the
        # column table, and the last, with 100 live rows and 1 100
        # columns counted 1, the row table.
        sides = []
        for side in ("_forced_by_rows", "_forced_by_columns"):
            read = getattr(_ExactCover, side)

            def logged(self, *args, side=side, read=read):
                sides.append(side)
                return read(self, *args)

            monkeypatch.setattr(_ExactCover, side, logged)
        search = dim_instance(kneser(11, 5).graph)(DEFAULT_BUDGET)
        assert len(list(search.solutions())) == 11
        assert search.budget.used == 1386
        assert sides == ["_forced_by_columns", "_forced_by_rows"] * 11

    def test_choose_kills_the_rows_sharing_a_column(self, monkeypatch):
        # On seeded small instances with some rows already dead, choosing
        # a live row kills exactly the live rows that share a column with
        # it, itself included, each once and in ascending order.
        killed = []
        recount = _ExactCover._recount

        def logged(self, counts, dead, chosen):
            killed.append(dead.tolist())
            return recount(self, counts, dead, chosen)

        monkeypatch.setattr(_ExactCover, "_recount", logged)
        rng = random.Random(17)
        for _ in range(60):
            row_lists, ncols = random_cover_rows(rng)
            search = cover_instance(row_lists, ncols)(DEFAULT_BUDGET)
            search.table, search.col_table = search.tables()
            counts = np.bincount(search.table.ravel(), minlength=ncols + 1).astype(np.int32)
            live = np.array([rng.random() < 0.7 for _ in row_lists] + [False])
            live_rows = live.nonzero()[0].tolist()
            if not live_rows:
                continue
            i = rng.choice(live_rows)
            expected = [j for j in live_rows if set(row_lists[j]) & set(row_lists[i])]
            killed.clear()
            search._choose(live, counts, i)
            assert killed == [expected]
            assert live.nonzero()[0].tolist() == [j for j in live_rows if j not in expected]


def parts_union(*graphs):
    """The disjoint union of the graphs, in order, with no relabelling."""
    pairs, offset = [], 0
    for g in graphs:
        pairs.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return build_graph(offset, pairs)


class TestParts:
    """The searches of a disconnected graph walk its components one step
    at a time on one counter: each component's first DIM, then the rest
    of each component's DIMs, then one cover search per component."""

    def test_no_dim_found_component_by_component(self):
        # 13 copies of C6 and one C7: 2 nodes find each C6's first DIM
        # and 6 show that C7 has none.  The whole graph's search would
        # try every C6 choice again below each other.
        g = parts_union(*[cycle(6)] * 13, cycle(7))
        assert g.m == 85
        assert find_dim(g, 32) is None
        with pytest.raises(SearchBudgetExceeded, match="budget of 31 nodes"):
            find_dim(g, 31)
        assert enumerate_dims(g, 32) == []

    def test_two_petersens(self):
        g = parts_union(petersen(), petersen())
        first = find_dim(g, 6)
        assert classify_dim(g, first).is_valid and len(first) == 6
        with pytest.raises(SearchBudgetExceeded):
            find_dim(g, 5)
        dims = enumerate_dims(g, 30)
        with pytest.raises(SearchBudgetExceeded):
            enumerate_dims(g, 29)
        one = brute_force_dims(petersen())
        assert dims == sorted(
            (a | {e + 15 for e in b} for a in one for b in one), key=sorted
        )
        assert len(dims) == 25

    def test_listing_is_bounded_by_the_budget(self):
        # Four C6: 81 DIMs in 24 nodes.  A budget below 81 finds them all
        # but may not list them, as one search of the whole graph could not.
        g = parts_union(*[cycle(6)] * 4)
        parts = solver._Parts(g, _Nodes(80))
        assert len(parts.first()) == 8
        assert list(map(len, parts.all_dims())) == [3] * 4 and parts.nodes.used == 24
        with pytest.raises(SearchBudgetExceeded, match="budget of 80 nodes"):
            enumerate_dims(g, 80)
        assert len(enumerate_dims(g, 81)) == 81
        assert find_dim(g, 8) is not None

    def test_disjoint_unions_match_the_oracles(self):
        # Seeded unions of two or three corpus graphs, relabelled, of at
        # most 20 edges in all.  Half the unions join components with DIM
        # partitions of one class count, so that they have one too; the
        # rest draw each component from those with a DIM or from all.
        rng = random.Random(11)
        corpus = [g for n in range(2, 6) for g in connected_graphs(n)]
        with_dim = [g for g in corpus if find_dim(g) is not None]
        by_classes = {}
        for g in with_dim:
            if partition.brute_force_dim_partitions(g):
                by_classes.setdefault(partition._class_count(g), []).append(g)
        pools = list(by_classes.values())
        for seed in range(40):
            pool = rng.choice(pools) if seed % 2 else None
            graphs = [rng.choice(pool or rng.choice([with_dim, corpus]))
                      for _ in range(rng.randint(2, 3))]
            while sum(g.m for g in graphs) > 20:
                graphs.pop()
            g = disjoint_union([(h.n, h.edges) for h in graphs], seed)
            want = brute_force_dims(g)
            assert enumerate_dims(g) == want
            found = find_dim(g)
            assert (found is None) == (not want) and (found is None or found in want)
            p = partition.find_dim_partition(g)
            assert (p is not None) == bool(partition.brute_force_dim_partitions(g))

    @pytest.mark.parametrize(
        "first,second",
        [(DEAD_CHAIN, DEAD_CHAIN), (DEAD_CHAIN, REPLAY_AFTER_SOLUTIONS),
         (REPLAY_AFTER_SOLUTIONS, REPLAY_AFTER_SOLUTIONS)],
        ids=["dead-chains", "dead-chain-then-solutions", "solutions-then-replay"],
    )
    def test_interleaved_searches_share_a_counter(self, monkeypatch, first, second):
        # Each instance walks a dead chain again from a saved node count.
        # Two searches drawing on one counter, resumed in turn at every
        # yield, draw the nodes and yield the solutions that they do one
        # after the other: no search holds a chain to walk again across
        # a yield, where the other's nodes would be undone.
        counting(monkeypatch)
        alone = _Nodes(DEFAULT_BUDGET)
        want = [list(solver._cover_search(*inst, alone).solutions()) for inst in (first, second)]
        nodes = _Nodes(DEFAULT_BUDGET)
        searches = [solver._cover_search(*inst, nodes).solutions() for inst in (first, second)]
        got = [[], []]
        while any(searches):
            for i, search in enumerate(searches):
                if search is None:
                    continue
                sol = next(search, None)
                if sol is None:
                    searches[i] = None
                    continue
                assert search.gi_frame.f_locals["replay"] is None
                got[i].append(sol)
        assert got == want and nodes.used == alone.used
