"""DIM partitions, list assignments, and their verification."""

import functools
import itertools
import random
import subprocess
import sys
import textwrap
from math import comb

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimtools import checks, graph, partition
from dimtools.corpus import connected_graphs
from dimtools.families import (
    bg_dim_partition,
    cycle,
    complete,
    kneser,
    kneser_dim_partition,
    petersen,
    star,
)
from dimtools.graph import build_graph, components, degree_profile, is_connected
from dimtools.partition import (
    DimPartition,
    ListAssignment,
    ListCheck,
    PartitionCheck,
    brute_force_dim_partitions,
    check_kneser_isomorphism,
    find_dim_partition,
    list_assignment,
    verify_dim_partition,
    verify_list_properties,
)
from dimtools.solver import DimClass, DimWitness, SearchBudgetExceeded, _Nodes, classify_dim

from test_checks import count_calls
from test_cli import subprocess_env
from test_graph import graphs_strategy
from test_solver import BG13_RELABELLED

# Small graphs that have a DIM partition, so that random draws also
# reach valid colorings and colorings one edge away from valid.
PARTITIONABLE = [
    cycle(3),
    cycle(6),
    cycle(9),
    star(4),
    petersen(),
    bg_dim_partition(2, 3)[0].graph,
    build_graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
]


class TestDimPartitionType:
    def test_classes_derived(self):
        p = DimPartition(2, (1, 2, 1))
        assert p.classes == (frozenset({0, 2}), frozenset({1}))

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError, match="nonempty"):
            DimPartition(3, (1, 2, 1))

    def test_rejects_out_of_range_color(self):
        with pytest.raises(ValueError):
            DimPartition(1, (2,))

    def test_more_classes_than_edges_is_an_empty_class(self):
        # Refused before any color is read, though 9 is out of range.
        with pytest.raises(ValueError, match="^every color class must be nonempty$"):
            DimPartition(5, (1, 9))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-1, 4), st.lists(st.integers(-1, 5), max_size=6))
    def test_error_text_of_an_eager_check(self, k, color_of):
        # The reference checks color by color, in edge order, filling one
        # bucket per class.
        def eager_error():
            if k < 0:
                return "class count must be nonnegative"
            if k > len(color_of):
                return "every color class must be nonempty"
            buckets = [[] for _ in range(k)]
            for c in color_of:
                if not 1 <= c <= k:
                    return f"color {c} out of range 1..{k}"
                buckets[c - 1].append(c)
            return None if all(buckets) else "every color class must be nonempty"

        try:
            DimPartition(k, tuple(color_of))
        except ValueError as exc:
            assert str(exc) == eager_error()
        else:
            assert eager_error() is None

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=12))
    def test_classes_are_the_color_buckets(self, raw):
        # Colors renumbered 1..k by first appearance: every class is nonempty.
        first = {c: i for i, c in enumerate(dict.fromkeys(raw), 1)}
        color_of = tuple(first[c] for c in raw)
        k = len(first)
        p = DimPartition(k, color_of)
        assert p.classes == tuple(
            frozenset(e for e, c in enumerate(color_of) if c == color)
            for color in range(1, k + 1)
        )
        # Built on each read, stored nowhere, so equality, hashing and
        # repr see only the coloring.
        assert set(vars(p)) == {"num_classes", "color_of"}
        assert p == DimPartition(k, color_of) and hash(p) == hash(DimPartition(k, color_of))
        assert repr(p) == f"DimPartition(num_classes={k}, color_of={color_of!r})"


class TestFindPartition:
    def test_c4_absent(self):
        assert find_dim_partition(cycle(4)) is None

    def test_c9_three_interleaved_classes(self):
        g = cycle(9)
        p = find_dim_partition(g)
        assert p.num_classes == 3
        for cls in p.classes:
            assert classify_dim(g, cls).is_valid
            assert len(cls) == 3

    def test_star_singleton_classes(self):
        g = star(3)
        p = find_dim_partition(g)
        assert p.num_classes == 3
        assert sorted(len(c) for c in p.classes) == [1, 1, 1]

    def test_edgeless_graph_gets_empty_partition(self):
        p = find_dim_partition(build_graph(3, []))
        assert p is not None and p.num_classes == 0

    def test_path_four_vertices_absent(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert find_dim_partition(g) is None

    def test_k33_absent(self):
        g = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert find_dim_partition(g) is None

    def test_disconnected_same_count_combines(self):
        # two stars: classes pair up across components
        g = build_graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
        p = find_dim_partition(g)
        assert p is not None and p.num_classes == 3
        for cls in p.classes:
            assert classify_dim(g, cls).is_valid

    def test_disconnected_count_mismatch_absent(self):
        g = build_graph(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
        assert find_dim_partition(g) is None

    def test_class_count_mismatch_absent_at_every_budget(self):
        # Petersen forces 5 classes and C9 forces 3, so no partition exists;
        # that is known before any component is searched.
        pet = petersen().edges
        g = build_graph(19, [*pet, *((u + 10, v + 10) for u, v in cycle(9).edges)])
        for budget in range(41):
            assert find_dim_partition(g, budget) is None

    def test_constant_degree_sum_forces_regular_or_biregular(self):
        # The partition search checks only that d(u)+d(v) is the same on
        # every edge; on a connected graph that implies the paper's
        # regular-or-biregular law, which it therefore does not test.
        constant = 0
        for n in range(1, 7):
            for g in connected_graphs(n):
                if len({g.degrees[u] + g.degrees[v] for u, v in g.edges}) > 1:
                    continue
                constant += 1
                assert degree_profile(g).regularity in ("regular", "biregular")
        assert constant > 0

    def test_degree_profile_not_consulted(self, monkeypatch):
        # The constant degree sum stands in for the regular-or-biregular test.
        monkeypatch.setattr(partition, "_regularity", None)
        path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        for g, exists in ((petersen(), True), (star(3), True), (cycle(4), False), (path, False)):
            assert (find_dim_partition(g) is not None) == exists

    def test_disconnected_mixed_regularity(self):
        # a 6-cycle next to a 3-leaf star: both need 3 classes
        g = build_graph(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 7), (6, 8), (6, 9)],
        )
        p = find_dim_partition(g)
        assert p is not None and p.num_classes == 3
        for cls in p.classes:
            assert classify_dim(g, cls).is_valid

    def test_isolated_vertices_ignored(self):
        g = build_graph(5, [(1, 2), (1, 3), (1, 4)])
        p = find_dim_partition(g)
        assert p is not None and p.num_classes == 3

    def test_kg_11_5_closed_form_is_the_only_partition(self):
        # 1386 edges: one stack frame per edge would pass the recursion limit.
        lg, closed_form = kneser_dim_partition(6)
        g = lg.graph
        p = find_dim_partition(g)
        assert p.num_classes == 11
        report = verify_dim_partition(g, p)
        assert report.valid and report.class_count_ok
        assert check_kneser_isomorphism(g, list_assignment(g, p))
        assert set(p.classes) == set(closed_form.classes)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            find_dim_partition(petersen(), budget=1)

    def test_known_dims_stand_in_for_the_enumeration(self):
        g = kneser(7, 3).graph
        k, comps = partition._class_count(g), components(g)
        nodes = _Nodes(10_000)
        dims = [sorted(sol) for sol in partition._dim_search(g, nodes).solutions()]
        used = nodes.used
        p, colors_at = partition._search_partition(g, k, nodes, comps, dims)
        assert p == find_dim_partition(g, 10_000)
        assert colors_at == partition._incident_colors(g, p)
        fresh = _Nodes(10_000)
        partition._search_partition(g, k, fresh, comps)
        assert fresh.used == nodes.used
        # A budget equal to the nodes already used runs out at once.
        used_up = _Nodes(used)
        used_up.used = used
        with pytest.raises(SearchBudgetExceeded):
            partition._search_partition(g, k, used_up, comps, dims)

    def test_classes_numbered_by_smallest_edge(self):
        p = find_dim_partition(petersen())
        assert [min(c) for c in p.classes] == sorted(min(c) for c in p.classes)


class _NonDimSearch:
    """Stands in for the DIM enumeration of C6 and yields non-DIMs."""

    def solutions(self):
        yield from ([0, 1], [2, 3], [4, 5])


class TestPostconditions:
    def test_partition_with_non_dim_class_raises(self, monkeypatch):
        monkeypatch.setattr(partition, "_dim_search", lambda g, b: _NonDimSearch())
        with pytest.raises(RuntimeError, match="non-DIM class"):
            find_dim_partition(cycle(6))

    def test_improper_coloring_raises(self, monkeypatch):
        valid = DimWitness(frozenset(), DimClass.VALID_DIM)
        monkeypatch.setattr(checks, "classify_dim", lambda g, dim: valid)
        with pytest.raises(RuntimeError, match="not proper"):
            checks.three_coloring_from_dim(complete(3), frozenset())

    def test_postconditions_survive_optimize_flag(self):
        script = textwrap.dedent(
            """
            import sys
            from dimtools import checks, partition
            from dimtools.families import complete, cycle
            from dimtools.solver import DimClass, DimWitness

            if not sys.flags.optimize:
                sys.exit("not running under -O")

            class NonDimSearch:
                def solutions(self):
                    yield from ([0, 1], [2, 3], [4, 5])

            # C6's partition {0, 4}, {1, 3}, {2, 5} with the colors of
            # edges 0 and 1 swapped: no class is induced any more.
            swapped = partition.DimPartition(3, (2, 1, 3, 2, 1, 3))
            if partition.verify_dim_partition(cycle(6), swapped).valid:
                sys.exit("verify_dim_partition accepted a non-DIM class")
            try:
                partition.list_assignment(cycle(6), swapped)
            except ValueError as exc:
                if str(exc) != "partition class is not a DIM (not-induced)":
                    sys.exit(f"list_assignment raised {exc!r}")
            else:
                sys.exit("list_assignment accepted a non-DIM class")

            partition._dim_search = lambda g, b: NonDimSearch()
            valid = DimWitness(frozenset(), DimClass.VALID_DIM)
            checks.classify_dim = lambda g, dim: valid
            for call in (
                lambda: partition.find_dim_partition(cycle(6)),
                lambda: checks.three_coloring_from_dim(complete(3), frozenset()),
            ):
                try:
                    call()
                except RuntimeError:
                    continue
                sys.exit("a postcondition did not fire")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestVerifyPartition:
    def test_c6_opposite_edges(self):
        g = cycle(6)
        p = find_dim_partition(g)
        report = verify_dim_partition(g, p)
        assert report.valid and report.class_count_ok
        assert report.regularity == "regular"
        assert p.num_classes == 3

    def test_path3_two_singletons(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        p = DimPartition(2, (1, 2))
        report = verify_dim_partition(g, p)
        assert report.valid and report.class_count_ok
        assert report.regularity == "biregular"

    def test_petersen_five_classes(self):
        lg, p = kneser_dim_partition(3)
        report = verify_dim_partition(lg.graph, p)
        assert report.valid and report.class_count_ok
        assert report.regularity == "regular"
        assert p.num_classes == 5

    def test_invalid_partition_detected(self):
        g = cycle(6)
        # color edges alternately into 3 classes the wrong way
        bad = DimPartition(3, (1, 2, 2, 3, 3, 1))
        report = verify_dim_partition(g, bad)
        assert not report.valid
        # C4's edges colored alternately: two matchings that dominate
        # every edge but are not induced
        assert not verify_dim_partition(cycle(4), DimPartition(2, (1, 2, 2, 1))).valid

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            verify_dim_partition(cycle(6), DimPartition(1, (1, 1, 1)))

    @given(
        st.one_of(graphs_strategy(max_n=6), st.sampled_from(PARTITIONABLE)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_pass_check_matches_classify_dim(self, g, rng):
        p = draw_coloring(g, rng)
        if p is None:
            return
        expected = all(classify_dim(g, cls).is_valid for cls in p.classes)
        assert (partition._incident_colors(g, p) is not None) == expected
        assert verify_dim_partition(g, p).valid == expected
        # Graphs this small take the loops; the array pass must agree.
        assert as_list(partition._incident_colors_array(g, p)) == partition._incident_colors(g, p)

    @given(
        st.one_of(graphs_strategy(max_n=6), st.sampled_from(PARTITIONABLE)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_valid_partition_settles_the_class_count(self, g, rng):
        # verify_dim_partition counts classes by the edges only when p
        # is invalid; on either side of the array gate its report is
        # the one that counts them on every edge.
        p = draw_coloring(g, rng)
        if p is None:
            return
        valid = all(classify_dim(g, cls).is_valid for cls in p.classes)
        if valid and g.edges:
            assert partition._class_count(g) == p.num_classes
        want = PartitionCheck(
            valid=valid,
            class_count_ok=not g.edges or partition._class_count(g) == p.num_classes,
            regularity=graph._regularity(g)[2],
        )
        for gate in (g.m + 1, 0):
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(partition, "_ARRAY_MIN_EDGES", gate)
                assert verify_dim_partition(g, p) == want

    @pytest.mark.parametrize(
        "make", [lambda: kneser_dim_partition(6), lambda: bg_dim_partition(5, 6)],
        ids=["KG(11,5)", "BG(4,5)"],
    )
    def test_array_pass_matches_loops_and_classify_dim(self, monkeypatch, make):
        # The closed form with its colors permuted, the same with one edge
        # recolored, and greedy proper colorings, on graphs above the gate.
        lg, closed = make()
        g, k = lg.graph, closed.num_classes
        assert g.m >= partition._ARRAY_MIN_EDGES
        rng = random.Random(5)
        colorings = []
        for _ in range(3):
            relabel = rng.sample(range(1, k + 1), k)
            colors = [relabel[c - 1] for c in closed.color_of]
            colorings.append(list(colors))
            colors[rng.randrange(g.m)] = rng.randint(1, k)
            colorings.append(colors)
        for extra in (0, 1, 2):
            colors = []
            for u, v in g.edges:
                used = {colors[e] for e in g.incident[u] + g.incident[v] if e < len(colors)}
                free = [c for c in range(1, k + extra + 1) if c not in used]
                colors.append(rng.choice(free) if free else rng.randint(1, k + extra))
            colorings.append(colors)
        valid = 0
        for colors in colorings:
            p = DimPartition(max(colors), tuple(colors))
            arrays = both_paths(monkeypatch, g, p)
            expected = all(classify_dim(g, cls).is_valid for cls in p.classes)
            assert (arrays[0] is not None) == expected
            valid += expected
        assert valid == 3

    def test_more_than_62_classes_take_the_loops(self, monkeypatch):
        # K(1, s) at the edge gate, each edge its own class: k = s > 62
        # takes the loops although the star is not below the gate.
        s = partition._ARRAY_MIN_EDGES
        g, p = star(s), DimPartition(s, tuple(range(1, s + 1)))
        monkeypatch.setattr(partition, "_incident_colors_array", _unreached)
        assert verify_dim_partition(g, p).valid
        lists = list_assignment(g, p).lists
        assert lists[0] == frozenset()
        assert all(lists[leaf] == frozenset(range(1, s + 1)) - {leaf} for leaf in range(1, s + 1))

    def test_a_color_on_five_edges_of_one_vertex_is_a_repeat(self, monkeypatch):
        # Vertex 0 carries colors 1..61 once each and color 62 on five
        # edges, and every other vertex is a leaf, so every edge passes
        # both edge compares: only the repeat test rejects the coloring.
        # Summing the bits would miss it, since the int64 sum wraps to
        # the OR.  Stars K(1, 62), colored 1..62, lift the edge count to
        # the gate.
        stars = -(-(partition._ARRAY_MIN_EDGES - 66) // 62)
        g = build_graph(67 + 63 * stars, [
            *((0, leaf) for leaf in range(1, 67)),
            *((first, first + leaf) for first in range(67, 67 + 63 * stars, 63) for leaf in range(1, 63)),
        ])
        colors = [*range(1, 62), *[62] * 5, *list(range(1, 63)) * stars]
        p = DimPartition(62, tuple(colors))
        assert g.m >= partition._ARRAY_MIN_EDGES
        bits = np.left_shift(1, np.array(colors[:66], np.int64))
        assert bits.sum() == np.bitwise_or.reduce(bits)
        assert both_paths(monkeypatch, g, p) == (None, None)
        assert not verify_dim_partition(g, p).valid
        with pytest.raises(ValueError, match=r"^partition class is not a DIM \(not-matching\)$"):
            list_assignment(g, p)
        # Without the repeats, stars alone are a partition into 62 DIMs
        # whose masks fill bits 1..62 of an int64.
        stars = -(-partition._ARRAY_MIN_EDGES // 62)
        g = build_graph(63 * stars, [
            (first, first + leaf) for first in range(0, 63 * stars, 63) for leaf in range(1, 63)
        ])
        p = DimPartition(62, tuple(range(1, 63)) * stars)
        assert g.m >= partition._ARRAY_MIN_EDGES
        _, arrays = both_paths(monkeypatch, g, p)
        assert arrays[0] == 2**63 - 2

    def test_reports_agree_across_the_gate(self, monkeypatch):
        # The search's postcondition hands its masks to full_report's
        # list assignment: as a list below the gate, as an array above.
        want = [checks.full_report(g) for g in PARTITIONABLE]
        monkeypatch.setattr(partition, "_ARRAY_MIN_EDGES", 0)
        assert [checks.full_report(g) for g in PARTITIONABLE] == want

    def test_the_gate_picks_the_path(self, monkeypatch):
        calls = []
        array_pass = partition._incident_colors_array

        def spy(g, p):
            calls.append((g.m, p.num_classes))
            return array_pass(g, p)

        monkeypatch.setattr(partition, "_incident_colors_array", spy)
        gate = partition._ARRAY_MIN_EDGES
        for m, k in ((gate - 1, 3), (gate, 3), (gate, 62), (gate, 63), (28, 3)):
            g = build_graph(m + 1, [(v, v + 1) for v in range(m)])
            p = DimPartition(k, tuple(e % k + 1 for e in range(m)))
            verify_dim_partition(g, p)
        assert calls == [(gate, 3), (gate, 62)]


def draw_coloring(g, rng):
    """A coloring of g's edges drawn by rng, as a DimPartition, or None
    when some color class is empty: a found partition with its colors
    permuted, the same with one edge recolored, a random proper edge
    coloring (every class a matching, so induced and dominating
    decide), or a uniformly random total coloring."""
    found = find_dim_partition(g)
    mode = rng.randrange(3)
    if found is not None and mode == 0:
        k = found.num_classes
        relabel = rng.sample(range(1, k + 1), k)
        colors = [relabel[c - 1] for c in found.color_of]
        if g.m and rng.random() < 0.5:
            colors[rng.randrange(g.m)] = rng.randint(1, k)
    elif mode == 1:
        k = max(g.degrees, default=0) + rng.randint(0, 2)
        colors = []
        for u, v in g.edges:
            used = {colors[e] for e in g.incident[u] + g.incident[v] if e < len(colors)}
            free = [c for c in range(1, k + 1) if c not in used]
            colors.append(rng.choice(free) if free else rng.randint(1, k))
    else:
        k = rng.randint(1, max(g.m, 1))
        colors = [rng.randint(1, k) for _ in range(g.m)]
    try:
        return DimPartition(k, tuple(colors))
    except ValueError:
        return None


def as_list(colors_at):
    """Incident colors as a list of ints, whichever path gave them."""
    return colors_at if colors_at is None else [int(c) for c in colors_at]


def _unreached(*args):
    raise AssertionError("the array pass ran")


def both_paths(monkeypatch, g, p):
    """``_incident_colors`` by the loops and by the array pass, checked to
    agree, with ``list_assignment`` agreeing too (lists or error text):
    (loop result, array result)."""
    with monkeypatch.context() as patched:
        patched.setattr(partition, "_ARRAY_MIN_EDGES", g.m + 1)
        loops = partition._incident_colors(g, p)
        loop_lists = _lists_or_error(g, p)
    with monkeypatch.context() as patched:
        patched.setattr(partition, "_ARRAY_MIN_EDGES", 0)
        arrays = partition._incident_colors(g, p)
        array_lists = _lists_or_error(g, p)
    assert isinstance(loops, (list, type(None))) and isinstance(arrays, (np.ndarray, type(None)))
    assert as_list(arrays) == loops
    assert array_lists == loop_lists
    return loops, arrays


def _lists_or_error(g, p):
    try:
        return list_assignment(g, p)
    except ValueError as exc:
        return str(exc)


class TestListAssignment:
    def test_triangle_bijection_onto_singletons(self):
        g = complete(3)
        p = find_dim_partition(g)
        a = list_assignment(g, p)
        assert set(a.lists) == {frozenset({1}), frozenset({2}), frozenset({3})}
        assert len(a.lists) == 3

    def test_petersen_recovers_subset_labels(self):
        lg, p = kneser_dim_partition(3)
        a = list_assignment(lg.graph, p)
        assert a.lists == lg.labels
        assert len(set(a.lists)) == 10

    def test_c6_fibers_of_size_two(self):
        g = cycle(6)
        p = find_dim_partition(g)
        a = list_assignment(g, p)
        assert all(len(lst) == 1 for lst in a.lists)
        counts = {}
        for lst in a.lists:
            counts[lst] = counts.get(lst, 0) + 1
        assert sorted(counts.values()) == [2, 2, 2]

    def test_invalid_partition_rejected(self):
        g = cycle(6)
        bad = DimPartition(3, (1, 2, 2, 3, 3, 1))
        with pytest.raises(ValueError):
            list_assignment(g, bad)

    @pytest.mark.parametrize(
        "other",
        [lambda: kneser_dim_partition(4)[1], lambda: find_dim_partition(cycle(9))],
        ids=["KG(7,3)", "C9"],
    )
    def test_partition_of_another_graph_rejected(self, other):
        # 70 and 9 colored edges against Petersen's 15: the edge count is
        # checked before any class is.
        with pytest.raises(ValueError, match="^partition does not color this graph$"):
            list_assignment(petersen(), other())

    def test_one_pass_check_disagreeing_with_classify_dim_is_internal(
        self, monkeypatch
    ):
        g = cycle(6)
        p = find_dim_partition(g)
        monkeypatch.setattr(partition, "_incident_colors", lambda g, p: None)
        for call in (lambda: list_assignment(g, p), lambda: find_dim_partition(g)):
            with pytest.raises(RuntimeError, match="disagrees with classify_dim"):
                call()


class TestVerifyListProperties:
    def test_petersen_all_three(self):
        lg, p = kneser_dim_partition(3)
        res = verify_list_properties(lg.graph, list_assignment(lg.graph, p))
        assert res.disjointness and res.surjective and res.equal_fibers

    def test_c6_all_three(self):
        g = cycle(6)
        res = verify_list_properties(g, list_assignment(g, find_dim_partition(g)))
        assert res.disjointness and res.surjective and res.equal_fibers

    def test_corrupted_assignment_fails_disjointness(self):
        g = cycle(6)
        a = list_assignment(g, find_dim_partition(g))
        lists = list(a.lists)
        lists[0] = lists[1]  # adjacent vertices share their whole list
        res = verify_list_properties(g, ListAssignment(a.num_labels, tuple(lists)))
        assert not res.disjointness

    def test_star_biregular_sizes(self):
        g = star(3)
        a = list_assignment(g, find_dim_partition(g))
        # degree-3 center misses nothing, degree-1 leaves miss all but one
        assert a.lists[0] == frozenset()
        assert all(len(a.lists[v]) == 2 for v in range(1, 4))
        res = verify_list_properties(g, a)
        assert res.disjointness and res.surjective and res.equal_fibers

    def test_size_mismatch_rejected(self):
        g = cycle(6)
        a = list_assignment(g, find_dim_partition(g))
        with pytest.raises(ValueError):
            verify_list_properties(g, ListAssignment(a.num_labels + 1, a.lists))

    def test_irregular_graph_rejected(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            verify_list_properties(g, ListAssignment(2, (frozenset(),) * 4))

    def test_labels_outside_the_color_universe_rejected(self):
        # Right sizes, disjoint along every edge, and {1}, {2}, {3} each
        # taken once: only the labels 97..99, outside {1, 2, 3}, are wrong.
        lists = tuple(map(frozenset, ({97}, {98}, {99}, {3}, {2}, {1})))
        with pytest.raises(ValueError, match="vertex 0 has a label outside 1..3"):
            verify_list_properties(cycle(6), ListAssignment(3, lists))


# Regular and biregular graphs, with and without a DIM partition, and
# the edgeless ones.
LIST_GRAPHS = [
    build_graph(0, []),
    build_graph(3, []),
    cycle(3),
    cycle(4),
    cycle(6),
    star(4),
    petersen(),
    bg_dim_partition(2, 3)[0].graph,
    kneser_dim_partition(4)[0].graph,
    build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
]


def all_subsets_list_check(g, assignment):
    """The list properties by their definition: a fiber for every target
    subset, counted over the vertices."""
    lists = assignment.lists
    lo, hi = min(g.degrees, default=0), max(g.degrees, default=0)
    k = max(lo + hi - 1, 0)
    fibers = {
        frozenset(combo): 0
        for size in {k - lo, k - hi}
        for combo in itertools.combinations(range(1, k + 1), size)
    }
    for lst in lists:
        if lst in fibers:
            fibers[lst] += 1
    return ListCheck(
        disjointness=all(not (lists[u] & lists[v]) for u, v in g.edges),
        surjective=all(count > 0 for count in fibers.values()),
        equal_fibers=len(set(fibers.values())) <= 1,
    )


@functools.cache
def partition_lists(index):
    """The lists of LIST_GRAPHS[index]'s DIM partition, or None for each
    vertex if it has none."""
    g = LIST_GRAPHS[index]
    p = find_dim_partition(g)
    return list_assignment(g, p).lists if p else (None,) * g.n


class TestListPropertiesByCount:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(range(len(LIST_GRAPHS))),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        st.booleans(),
    )
    def test_matches_the_all_subsets_definition(self, index, seed, redraw, shuffle):
        # Start from the partition's own lists where there is one, redraw
        # some at random, and maybe shuffle them among equal degrees, which
        # keeps the fibers but breaks disjointness.
        g = LIST_GRAPHS[index]
        rng = random.Random(seed)
        k = max(min(g.degrees, default=0) + max(g.degrees, default=0) - 1, 0)
        lists = list(partition_lists(index))
        for v, d in enumerate(g.degrees):
            if lists[v] is None or rng.random() < redraw:
                lists[v] = frozenset(rng.sample(range(1, k + 1), k - d))
        if shuffle:
            for d in set(g.degrees):
                same = [v for v in range(g.n) if g.degrees[v] == d]
                moved = [lists[v] for v in same]
                rng.shuffle(moved)
                for v, lst in zip(same, moved):
                    lists[v] = lst
        a = ListAssignment(k, tuple(lists))
        assert verify_list_properties(g, a) == all_subsets_list_check(g, a)


def pairwise_kneser_check(g, assignment):
    """Reference: the certificate compared on every vertex pair."""
    profile = degree_profile(g)
    if not profile.is_regular:
        raise ValueError("graph is not regular")
    if not is_connected(g):
        raise ValueError("graph is not connected")
    r = profile.max_degree
    if assignment.num_labels != 2 * r - 1 or len(assignment.lists) != g.n:
        raise ValueError("assignment shape does not match an r-regular partition")
    if g.n != comb(2 * r - 1, r - 1):
        return False
    if len(set(assignment.lists)) != g.n:
        return False
    if any(len(lst) != r - 1 for lst in assignment.lists):
        return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            disjoint = not (assignment.lists[u] & assignment.lists[v])
            if disjoint != g.has_edge(u, v):
                return False
    return True


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def perturbed(assignment, seed):
    """Two lists swapped, one list duplicated, and one list resized."""
    lists = list(assignment.lists)
    rng = random.Random(seed)
    u, v = rng.sample(range(len(lists)), 2)
    swapped = lists[:]
    swapped[u], swapped[v] = lists[v], lists[u]
    duplicated = lists[:]
    duplicated[u] = lists[v]
    resized = lists[:]
    resized[u] = lists[u] | {min(set(range(1, assignment.num_labels + 1)) - lists[u])}
    return [
        ListAssignment(assignment.num_labels, tuple(x))
        for x in (swapped, duplicated, resized)
    ]


class TestKneserIsomorphism:
    def test_rejects_labels_outside_the_color_universe(self):
        # n = C(3, 1), distinct singleton lists, pairwise disjoint: only
        # the label 99, outside {1, 2, 3}, keeps this from being KG(3, 1).
        lists = (frozenset({1}), frozenset({2}), frozenset({99}))
        assert not check_kneser_isomorphism(complete(3), ListAssignment(3, lists))

    @pytest.mark.parametrize("r", range(2, 7))
    def test_equals_pairwise_check_on_family_graphs(self, r):
        lg, p = kneser_dim_partition(r)
        graphs = [(lg.graph, list_assignment(lg.graph, p))]
        for seed in range(2):
            g = relabelled(lg.graph, seed)
            graphs.append((g, list_assignment(g, find_dim_partition(g))))
        for g, assignment in graphs:
            assert check_kneser_isomorphism(g, assignment)
            assert pairwise_kneser_check(g, assignment)
            for seed in range(3):
                for bad in perturbed(assignment, seed):
                    expected = pairwise_kneser_check(g, bad)
                    assert check_kneser_isomorphism(g, bad) == expected

    def test_equals_pairwise_check_on_corpus(self):
        checked = 0
        for n in range(2, 7):
            for g in connected_graphs(n):
                if len(set(g.degrees)) != 1:
                    continue
                p = find_dim_partition(g)
                if p is None:
                    continue
                assignment = list_assignment(g, p)
                variants = [assignment] + perturbed(assignment, n)
                for a in variants:
                    assert check_kneser_isomorphism(g, a) == pairwise_kneser_check(g, a)
                checked += 1
        assert checked > 0

    def test_petersen_true(self):
        lg, p = kneser_dim_partition(3)
        assert check_kneser_isomorphism(lg.graph, list_assignment(lg.graph, p))

    def test_triangle_true(self):
        g = complete(3)
        assert check_kneser_isomorphism(g, list_assignment(g, find_dim_partition(g)))

    def test_c6_false_by_cardinality(self):
        g = cycle(6)
        assert not check_kneser_isomorphism(g, list_assignment(g, find_dim_partition(g)))

    def test_irregular_rejected(self):
        g = star(3)
        with pytest.raises(ValueError):
            check_kneser_isomorphism(g, list_assignment(g, find_dim_partition(g)))

    def test_disconnected_regular_graph_false(self):
        pet = petersen().edges
        two = build_graph(20, [*pet, *((u + 10, v + 10) for u, v in pet)])
        assert not check_kneser_isomorphism(two, list_assignment(two, find_dim_partition(two)))
        # K4 + K3,3 is cubic on 10 = C(5, 2) vertices, so only its edges
        # can tell it from KG(5, 2).
        k4_k33 = build_graph(10, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                  *((u, v) for u in range(4, 7) for v in range(7, 10))])
        pairs = [frozenset(c) for c in itertools.combinations(range(1, 6), 2)]
        for seed in range(20):
            random.Random(seed).shuffle(pairs)
            assert not check_kneser_isomorphism(k4_k33, ListAssignment(5, tuple(pairs)))

    def test_reads_only_the_degrees(self, monkeypatch):
        calls = count_calls(monkeypatch, [
            (graph, "components"),
            (partition, "components"),
            (graph, "degree_profile"),
            (partition, "_regularity"),
        ])
        lg, p = kneser_dim_partition(4)
        a = list_assignment(lg.graph, p)
        assert check_kneser_isomorphism(lg.graph, a)
        assert calls == {}

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_agrees_with_networkx_isomorphism(self, r):
        # A relabelled KG(2r-1, r-1), partitioned by search rather than
        # by the closed form.
        g = relabelled(kneser(2 * r - 1, r - 1).graph, r)
        ours = nx.Graph()
        ours.add_nodes_from(range(g.n))
        ours.add_edges_from(g.edges)
        expected = nx.is_isomorphic(ours, nx.kneser_graph(2 * r - 1, r - 1))
        assignment = list_assignment(g, find_dim_partition(g))
        assert check_kneser_isomorphism(g, assignment) == expected


class TestBruteForceAgreement:
    def test_c6_unique_partition(self):
        g = cycle(6)
        parts = brute_force_dim_partitions(g)
        assert len(parts) == 1
        found = find_dim_partition(g)
        assert set(found.classes) == set(parts[0])

    @staticmethod
    def assert_agrees(g):
        brute = brute_force_dim_partitions(g)
        found = find_dim_partition(g)
        assert (found is None) == (len(brute) == 0)
        if found is not None:
            assert set(found.classes) in [set(p) for p in brute]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_absent_iff_brute_force_empty_exhaustive(self, n):
        for g in connected_graphs(n):
            if g.m <= 9:
                self.assert_agrees(g)

    @pytest.mark.parametrize("seed", range(len(BG13_RELABELLED)))
    def test_relabelled_bg_1_3(self, seed):
        self.assert_agrees(BG13_RELABELLED[seed])

    def test_found_partition_class_counts_match_theory(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                p = find_dim_partition(g)
                if p is None or g.m == 0:
                    continue
                for u, v in g.edges:
                    assert p.num_classes == g.degrees[u] + g.degrees[v] - 1
