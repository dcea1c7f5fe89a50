"""Structural law checks and the aggregated verification report."""

import json
import re
from fractions import Fraction

import pytest

from dimtools import checks, graph, partition, solver
from dimtools.checks import (
    Budgets,
    CheckEntry,
    CycleIntersectionCheck,
    check_cycle_intersections,
    check_dim_bounds,
    check_edge_bound,
    full_report,
    regular_dim_formula,
    three_coloring_from_dim,
)
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
from dimtools.graph import Graph, build_graph, degree_profile, enumerate_cycles
from dimtools.partition import (
    DimPartition,
    ListCheck,
    find_dim_partition,
    list_assignment,
    verify_dim_partition,
    verify_list_properties,
)
from dimtools.solver import SearchBudgetExceeded, enumerate_dims, find_dim
from test_solver import prism


# The Petersen graph moved to vertices 10..19.
DISJOINT_PETERSEN = [(u + 10, v + 10) for u, v in petersen().edges]
# C9 on vertices 10..18, beside a Petersen graph on 0..9.
C9_AFTER_PETERSEN = [(u + 10, v + 10) for u, v in cycle(9).edges]


def k4_minus_edge():
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def count_calls(monkeypatch, targets):
    """Wrap each (module, name) in targets; the returned dict counts the
    calls by function name."""
    calls = {}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return calls


class TestThreeColoring:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert three_coloring_from_dim(g, {0}).color_of == (1, 2)

    def test_c6_assignment(self):
        g = cycle(6)
        dim = {g.edge_id(0, 1), g.edge_id(3, 4)}
        coloring = three_coloring_from_dim(g, dim)
        assert coloring.color_of == (1, 2, 3, 1, 2, 3)

    def test_petersen_proper(self):
        g = petersen()
        coloring = three_coloring_from_dim(g, find_dim(g))
        for u, v in g.edges:
            assert coloring.color_of[u] != coloring.color_of[v]
        assert set(coloring.color_of) <= {1, 2, 3}

    def test_rejects_non_dim(self):
        with pytest.raises(ValueError):
            three_coloring_from_dim(cycle(6), {0})


class TestEdgeBound:
    def test_k4_minus_edge_equality(self):
        res = check_edge_bound(k4_minus_edge(), find_dim(k4_minus_edge()))
        assert res.applicable and res.holds
        assert res.bound == Fraction(5)

    def test_petersen(self):
        res = check_edge_bound(petersen(), find_dim(petersen()))
        assert res.applicable and res.holds
        assert res.bound == Fraction(55, 2)

    def test_c4_not_applicable(self):
        res = check_edge_bound(cycle(4), find_dim(cycle(4)))
        assert not res.applicable


class TestSizeInvariance:
    @pytest.mark.parametrize("g", [cycle(6), complete(3), petersen()])
    def test_true_on_examples(self, g):
        entry = full_report(g).entry("dim-size-invariance")
        assert entry.outcome == "pass"
        assert entry.details == f"dim count {len(enumerate_dims(g))}"


class TestRegularFormula:
    def test_petersen_parameters(self):
        assert regular_dim_formula(10, 3) == 3

    def test_c6_parameters(self):
        assert regular_dim_formula(6, 2) == 2

    def test_six_vertex_cubic_absent(self):
        assert regular_dim_formula(6, 3) is None
        # cross-check: neither 3-regular graph on 6 vertices has a DIM
        k33 = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        prism = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])
        assert find_dim(k33) is None
        assert find_dim(prism) is None

    def test_k2_parameters(self):
        assert regular_dim_formula(2, 1) == 1

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            regular_dim_formula(0, 1)


class TestDimBounds:
    def test_c6_equality(self):
        res = check_dim_bounds(cycle(6), find_dim(cycle(6)))
        assert res.applicable and res.lower_ok and res.upper_ok

    def test_petersen_equality(self):
        res = check_dim_bounds(petersen(), find_dim(petersen()))
        assert res.applicable and res.lower_ok and res.upper_ok

    def test_star_not_applicable(self):
        res = check_dim_bounds(star(3), find_dim(star(3)))
        assert not res.applicable


class TestCycleIntersections:
    def test_c9_meets_its_dim_three_times(self):
        g = cycle(9)
        dim = find_dim(g)
        res = check_cycle_intersections(g, dim, 9)
        assert res.all_bound_ok and res.all_parity_ok and res.short_cycle_ok
        assert res.cycles_checked == 1

    def test_petersen_every_five_cycle_once(self):
        g = petersen()
        res = check_cycle_intersections(g, find_dim(g), 5)
        assert res.cycles_checked == 12
        assert res.short_cycle_ok and res.all_bound_ok and res.all_parity_ok

    def test_k4_minus_edge_four_cycle_avoided(self):
        g = k4_minus_edge()
        dim = {g.edge_id(0, 1)}
        res = check_cycle_intersections(g, dim, 4)
        assert res.all_bound_ok and res.all_parity_ok and res.short_cycle_ok

    def test_rejects_invalid_dim(self):
        with pytest.raises(ValueError):
            check_cycle_intersections(cycle(6), {0}, 6)


CYCLE_ENTRIES = ("cycle-intersection-bound", "cycle-intersection-parity",
                 "short-cycle-intersections")


def cycle_laws_from_cycles(g, dim, max_len):
    """The cycle laws read off the Cycle objects of enumerate_cycles."""
    cycles = enumerate_cycles(g, max_len)
    hits = [(c.length, len(c.edge_ids & dim)) for c in cycles]
    return CycleIntersectionCheck(
        all(h <= r // 3 for r, h in hits),
        all(h % 2 == r % 2 for r, h in hits),
        all(h == (0 if r == 4 else 1) for r, h in hits if r in (3, 4, 5, 7)),
        len(cycles),
    )


class TestReportCycleEntries:
    """The report counts the cycle laws on its own walk; its three entries
    must say what the public check and the Cycle objects say."""

    def assert_entries_match(self, g, report):
        got = [report.entry(name) for name in CYCLE_ENTRIES]
        if not report.dim_exists:
            assert got == [CheckEntry(name, "na", "no dim") for name in CYCLE_ENTRIES]
            return
        max_len = report.budgets.max_cycle_len
        dim = find_dim(g)
        res = check_cycle_intersections(g, dim, max_len)
        assert res == cycle_laws_from_cycles(g, dim, max_len)
        flags = (res.all_bound_ok, res.all_parity_ok, res.short_cycle_ok)
        details = f"cycles checked {res.cycles_checked}"
        assert got == [CheckEntry(name, "pass" if ok else "fail", details)
                       for name, ok in zip(CYCLE_ENTRIES, flags)]

    def test_every_small_graph_with_a_dim(self):
        with_dim = 0
        for n in range(1, 7):
            for g in connected_graphs(n):
                report = full_report(g)
                with_dim += report.dim_exists
                self.assert_entries_match(g, report)
        assert with_dim == 7486

    @pytest.mark.parametrize(
        "make",
        [petersen, lambda: kneser(7, 3).graph, lambda: cycle(9), lambda: prism(12)],
        ids=["Petersen", "KG(7,3)", "C9", "prism-C12"],
    )
    @pytest.mark.parametrize("max_len", range(3, 11))
    def test_families(self, make, max_len):
        # Prism C12 is cubic on 24 vertices and 4k-2 = 10 does not divide
        # nk = 72, so it has no DIM and the entries do not apply.
        g = make()
        report = full_report(g, Budgets(max_cycle_len=max_len))
        assert report.dim_exists == (find_dim(g) is not None)
        self.assert_entries_match(g, report)


def wrong_c6_partition(monkeypatch):
    """Make the report's partition search on C6 return two perfect
    matchings, so partition-regularity fails."""
    wrong = DimPartition(2, (1, 2, 1, 2, 1, 2))
    colors_at = [0b110] * 6  # colors 1 and 2 at every vertex
    monkeypatch.setattr(checks, "_search_partition", lambda *args: (wrong, colors_at))


class TestPartitionRegularity:
    """The report's partition-regularity entry."""

    def passes(self, g):
        entry = full_report(g).entry("partition-regularity")
        return entry.applicable and entry.passed

    def test_c6(self):
        assert self.passes(cycle(6))

    def test_star(self):
        assert self.passes(star(3))

    def test_petersen(self):
        assert self.passes(kneser_dim_partition(3)[0].graph)

    def test_disconnected_rejected(self):
        # The law is for connected graphs; this one has a partition.
        g = build_graph(4, [(0, 1), (2, 3)])
        assert find_dim_partition(g) is not None
        entry = full_report(g).entry("partition-regularity")
        assert not entry.applicable and entry.error is None

    def test_class_count_read_off_the_partition(self, monkeypatch):
        # C6 with its edges split into two perfect matchings: the entry
        # must compare the partition's own class count, 2, with
        # d(u)+d(v)-1 = 3, not trust the search's class count.
        wrong_c6_partition(monkeypatch)
        entry = full_report(cycle(6)).entry("partition-regularity")
        assert entry.applicable and not entry.passed
        assert entry.details == "classes 2"


class TestReportTable:
    """The one table of checks behind full_report, and the one outcome of
    each entry."""

    def test_names_are_unique(self):
        names = [row.na.name for row in checks._CHECKS]
        assert len(names) == len(set(names)) == 13

    def test_no_dim_is_the_tables_na_entries_in_report_order(self):
        assert checks._NO_DIM == tuple(row.na for row in checks._CHECKS)
        assert all(e.outcome == "na" for e in checks._NO_DIM)
        assert full_report(cycle(4)).entries is checks._NO_DIM
        names = [e.name for e in full_report(petersen()).entries]
        assert names == [e.name for e in checks._NO_DIM]

    def test_table_path_shares_the_na_entries(self):
        report = full_report(bipartite_kneser(2, 3).graph)
        entry = report.entry("vertex-count-divisibility")
        assert entry.outcome == "na"
        assert any(entry is na for na in checks._NO_DIM)

    @pytest.mark.parametrize(
        "outcome,applicable,passed",
        [("pass", True, True), ("fail", True, False), ("na", False, False),
         ("error", True, False)],
    )
    def test_outcome_gives_the_flags(self, monkeypatch, outcome, applicable, passed):
        if outcome == "fail":
            wrong_c6_partition(monkeypatch)
        g, budgets, name = {
            "pass": (petersen(), Budgets(), "kneser-extremal-case"),
            "fail": (cycle(6), Budgets(), "partition-regularity"),
            "na": (cycle(4), Budgets(), "three-coloring"),
            "error": (petersen(), Budgets(search_nodes=1), "three-coloring"),
        }[outcome]
        report = full_report(g, budgets)
        entry = report.entry(name)
        assert entry.outcome == outcome
        assert (entry.applicable, entry.passed) == (applicable, passed)
        assert (entry.error is not None) == (outcome == "error")
        assert entry.as_dict() == {
            "name": name, "applicable": applicable, "passed": passed,
            "details": entry.details, "error": entry.error,
        }
        # No entry of these reports has an outcome other than this one
        # and "pass" or "na", so all_passed turns on it alone.
        assert report.all_passed == (outcome in ("pass", "na"))


class TestBudgets:
    @pytest.mark.parametrize("kwargs", [{"max_cycle_len": 2}, {"search_nodes": -1}])
    def test_bad_limits_rejected_whatever_the_graph(self, kwargs):
        # Cycles were enumerated only when a DIM existed, so a cycle length
        # below 3 used to pass on C4 and fail on Petersen.
        with pytest.raises(ValueError):
            Budgets(**kwargs)

    def test_smallest_limits_accepted(self):
        report = full_report(cycle(4), Budgets(max_cycle_len=3, search_nodes=0))
        assert report.budgets == Budgets(3, 0)


class TestFullReport:
    def test_petersen_everything_passes(self):
        report = full_report(petersen())
        assert report.dim_exists and report.dim_size == 3
        assert report.all_passed
        assert report.entry("kneser-extremal-case").passed

    def test_c4_not_applicable_entries(self):
        report = full_report(cycle(4))
        assert not report.dim_exists and report.dim_size is None
        for entry in report.entries:
            assert not entry.applicable
        assert report.all_passed  # nothing failed, nothing applied

    def test_c9_partition_found(self):
        report = full_report(cycle(9))
        assert report.all_passed
        assert report.entry("partition-regularity").applicable
        assert report.entry("partition-regularity").details == "classes 3"

    def test_budget_exhaustion_is_recorded_not_raised(self):
        report = full_report(petersen(), Budgets(search_nodes=1))
        assert report.dim_search_error is not None
        assert not report.dim_exists

    def test_dim_budget_exhaustion_is_an_error_not_na(self):
        # The Petersen graph meets every hypothesis that does not depend on
        # the DIM, so with the DIM search out of budget every entry applies
        # and reports the budget error.
        report = full_report(petersen(), Budgets(search_nodes=1))
        assert len(report.entries) == 13
        for entry in report.entries:
            assert entry.applicable and not entry.passed, entry
            assert entry.error == "exceeded search budget of 1 nodes", entry

    def test_dim_budget_exhaustion_keeps_failed_hypotheses_na(self):
        path = build_graph(4, [(0, 2), (0, 3), (1, 3)])
        report = full_report(path, Budgets(search_nodes=1))
        assert report.dim_search_error is not None
        assert report.entry("three-coloring").error is not None
        assert report.entry("partition-regularity").error is not None
        for name in ("degree-ratio-bounds", "regular-size-formula", "list-properties"):
            entry = report.entry(name)
            assert not entry.applicable and entry.error is None

    @pytest.mark.parametrize(
        "g,expected",
        [
            (petersen(), {}),
            (kneser(7, 3).graph, {}),
            (cycle(9), {}),
            (bipartite_kneser(2, 3).graph, {}),
            (star(3), {}),
            # The partition search enumerates each component's DIMs.
            (build_graph(20, [*petersen().edges, *DISJOINT_PETERSEN]), {"_dim_search": 3}),
            # d(u)+d(v)-1 is 5 on Petersen and 3 on C9: no partition search.
            (build_graph(19, [*petersen().edges, *C9_AFTER_PETERSEN]),
             {"_incident_colors": 0}),
            (cycle(4), {"components": 0, "_cycle_walk": 0, "classify_dim": 0,
                        "_incident_colors": 0}),
        ],
        ids=["Petersen", "KG(7,3)", "C9", "BG(2,3)", "star(3)", "two-Petersens",
             "Petersen+C9", "C4-no-dim"],
    )
    def test_each_fact_computed_once(self, monkeypatch, g, expected):
        # The report checks its DIM once, up front, and counts the cycle
        # laws on one cycle walk; graph binds the walk for enumerate_cycles.
        calls = count_calls(monkeypatch, [
            (graph, "components"),
            (checks, "components"),
            (partition, "components"),
            (checks, "_regularity"),
            (partition, "_regularity"),
            (partition, "_incident_colors"),
            (checks, "_dim_search"),
            (partition, "_dim_search"),
            (graph, "_cycle_walk"),
            (checks, "_cycle_walk"),
            (checks, "classify_dim"),
            (partition, "classify_dim"),
        ])
        assert full_report(g).all_passed
        names = ("_regularity", "components", "_incident_colors", "_dim_search",
                 "_cycle_walk", "classify_dim")
        want = {name: expected.get(name, 1) for name in names}
        assert {name: calls.get(name, 0) for name in names} == want

    @pytest.mark.parametrize("g", [petersen(), kneser(7, 3).graph], ids=["Petersen", "KG(7,3)"])
    def test_no_two_coloring_where_nothing_reads_it(self, monkeypatch, g):
        # A regular graph is "regular" whether or not it is bipartite, and
        # these read only the regularity and the extreme degrees.
        calls = count_calls(monkeypatch, [(graph, "_even_side")])
        p = find_dim_partition(g)
        assert verify_dim_partition(g, p).regularity == "regular"
        assert verify_list_properties(g, list_assignment(g, p)) == ListCheck(True, True, True)
        assert full_report(g).regularity == "regular"
        assert calls == {}
        # The degree profile reports the sides, so it still 2-colors.
        assert degree_profile(cycle(6)).biregular is not None
        assert calls == {"_even_side": 1}

    def test_facts_computed_only_when_needed(self, monkeypatch):
        # is_connected reaches components through the graph module.
        calls = count_calls(monkeypatch, [
            (graph, "components"),
            (checks, "components"),
            (partition, "components"),
            (checks, "_regularity"),
            (partition, "_regularity"),
        ])
        # No DIM: no check can apply, so connectivity is never asked for.
        assert not full_report(cycle(4)).dim_exists
        assert calls == {"_regularity": 1}
        # A DIM, but d(u)+d(v)-1 is 2 on the end edges and 3 in the middle,
        # so the partition search gives up before looking for components.
        # The report finds them once, for its own connectivity test.
        path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        calls.clear()
        assert find_dim_partition(path) is None
        assert calls == {}
        report = full_report(path)
        assert report.dim_exists and not report.entry("partition-regularity").applicable
        assert calls == {"components": 1, "_regularity": 1}

    @pytest.mark.parametrize(
        "g,searches",
        [(petersen(), 1), (build_graph(20, [*petersen().edges, *DISJOINT_PETERSEN]), 3)],
        ids=["connected", "two-components"],
    )
    def test_dims_enumerated_once(self, monkeypatch, g, searches):
        # One engine run gives the DIM and the DIM list, and the partition
        # search of a connected graph reuses that list; a disconnected
        # graph's partition search enumerates each component on its own.
        calls = []
        dim_search = solver._dim_search

        def counted(*args):
            calls.append(args)
            return dim_search(*args)

        for module in (solver, checks, partition):
            monkeypatch.setattr(module, "_dim_search", counted)
        assert full_report(g).all_passed
        assert len(calls) == searches

    @pytest.mark.parametrize("make", [petersen, lambda: cycle(9)], ids=["Petersen", "C9"])
    def test_partition_entries_follow_the_partition_search(self, make):
        # The report's partition search reuses its DIM enumeration; it must
        # still run out of budget exactly when the search on its own does.
        g = make()
        for budget in range(40):
            try:
                find_dim_partition(g, budget)
                alone = None
            except SearchBudgetExceeded as exc:
                alone = str(exc)
            report = full_report(g, Budgets(search_nodes=budget))
            if report.dim_exists:
                assert report.entry("partition-regularity").error == alone

    @pytest.mark.parametrize(
        "g",
        [
            petersen(),
            cycle(9),
            kneser(7, 3).graph,
            build_graph(20, [*petersen().edges, *DISJOINT_PETERSEN]),
            build_graph(19, [*petersen().edges, *C9_AFTER_PETERSEN]),
        ],
        ids=["Petersen", "C9", "KG(7,3)", "two-Petersens", "Petersen+C9"],
    )
    def test_dim_entries_follow_the_public_searches(self, g):
        # The report takes its DIM and its DIM list from one engine run;
        # each must run out of budget exactly when find_dim or
        # enumerate_dims on its own does, and otherwise agree with it.
        for budget in range(61):
            report = full_report(g, Budgets(max_cycle_len=3, search_nodes=budget))
            try:
                alone = find_dim(g, budget)
                assert report.dim_search_error is None
                assert report.dim_exists == (alone is not None)
                assert report.dim_size == (len(alone) if alone is not None else None)
            except SearchBudgetExceeded as exc:
                assert report.dim_search_error == str(exc)
                assert not report.dim_exists
            if not report.dim_exists:
                continue
            entry = report.entry("dim-size-invariance")
            try:
                assert entry.details == f"dim count {len(enumerate_dims(g, budget))}"
                assert entry.error is None
            except SearchBudgetExceeded as exc:
                assert entry.error == str(exc)

    def test_partition_budget_exhaustion_is_an_error_not_na(self):
        # 10 nodes find a DIM of the Petersen graph but do not enumerate
        # its five DIMs, which the partition search also needs.
        report = full_report(petersen(), Budgets(search_nodes=10))
        assert report.dim_exists and report.dim_search_error is None
        for name in (
            "dim-size-invariance",
            "partition-regularity",
            "list-properties",
            "vertex-count-divisibility",
            "kneser-extremal-case",
        ):
            entry = report.entry(name)
            assert entry.applicable and not entry.passed
            assert "budget" in entry.error
        assert report.entry("three-coloring").passed

    @pytest.mark.parametrize("solution,kind", [([0], "not-dominating"), ([0, 1], "not-matching")])
    def test_engine_solution_checked_up_front(self, monkeypatch, solution, kind):
        # The report checks the engine's first solution once and reads it
        # through cores that do not check it again, so a non-DIM must stop
        # the report with the public checks' own error.
        class NonDimSearch:
            def solutions(self):
                yield solution

        monkeypatch.setattr(checks, "_dim_search", lambda g, nodes: NonDimSearch())
        message = f"not a valid DIM ({kind})"
        for public in (three_coloring_from_dim, lambda g, d: check_cycle_intersections(g, d, 6)):
            with pytest.raises(ValueError, match=re.escape(message)):
                public(cycle(6), set(solution))
        with pytest.raises(ValueError, match=re.escape(message)):
            full_report(cycle(6))

    def test_edge_bound_details(self):
        # The bound is compared as 4m <= n^2 + n and written as a Fraction.
        for n in range(41):
            for g in [Graph(n, ())] + ([star(n - 1)] if n >= 2 else []):
                entry = full_report(g).entry("edge-count-bound")
                assert entry.applicable and entry.passed
                assert entry.details == f"edges {g.m} vs bound {Fraction(n * n + n, 4)}"

    def test_no_dim_reports_share_their_entries(self):
        # With no DIM and no budget hit no check applies, so every such
        # report carries the same entries.
        c4, k33 = full_report(cycle(4)), full_report(complete(3))
        assert c4.entries is full_report(prism(12)).entries
        assert [e.name for e in c4.entries] == [e.name for e in k33.entries]
        assert not any(e.applicable for e in c4.entries)
        # A budget hit before the first DIM leaves the DIM unknown.
        hit = full_report(petersen(), Budgets(search_nodes=1))
        assert not hit.dim_exists and hit.entries is not c4.entries
        assert all(e.applicable for e in hit.entries)

    def test_text_round_stability(self):
        a = full_report(petersen()).to_text()
        b = full_report(petersen()).to_text()
        assert a == b
        assert a.startswith("dim verification report\n[graph]\nvertices = 10\n")

    def test_json_mirrors_fields(self):
        report = full_report(cycle(6))
        data = json.loads(json.dumps(report.as_dict()))
        assert data["graph"]["vertices"] == 6
        assert data["dim"]["size"] == 2
        names = [c["name"] for c in data["checks"]]
        assert "three-coloring" in names and "list-properties" in names

    def test_sampled_graphs_have_no_violations(self):
        for g in sample_connected_graphs(7, 120, seed=5):
            report = full_report(g)
            for entry in report.entries:
                assert entry.passed or not entry.applicable, (g.edges, entry)
