"""Command-line behavior: exit codes, formats, determinism, round trips."""

import dataclasses
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dimtools
from dimtools import cli, families, partition, solver
from dimtools.checks import Budgets, CheckEntry, full_report
from dimtools.cli import run
from dimtools.graph import build_graph
from dimtools.io import (
    MAX_VERTICES,
    parse_certificate,
    parse_graph,
    parse_labels,
    parse_partition,
    serialize_graph,
    serialize_labels,
    serialize_partition,
)
from dimtools.families import (
    bg_dim_partition,
    bipartite_kneser,
    complete,
    cycle,
    kneser,
    kneser_dim_partition,
    petersen,
    star,
)

# Golden stdout (sweeps, verify reports, engine output) that a change must
# reproduce byte for byte.
DATA = Path(__file__).parent / "data"


def subprocess_env():
    """Environment for a child interpreter that imports this dimtools."""
    src = str(Path(dimtools.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def invoke(argv, cwd=None):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.g"
    code, _, _ = invoke(["gen", "petersen", "-o", str(path)])
    assert code == 0
    return path


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.g"
    invoke(["gen", "cycle", "--n", "4", "-o", str(path)])
    return path


# Each gen family: its parameters and the library call it prints.
GEN_FAMILIES = {
    "kneser": (["--n", "6", "--k", "2"], lambda: kneser(6, 2).graph),
    "kneser-family": (["--r", "3"], lambda: kneser(5, 2).graph),
    "bg": (["--r", "3", "--s", "4"], lambda: bipartite_kneser(2, 3).graph),
    "cycle": (["--n", "5"], lambda: cycle(5)),
    "complete": (["--n", "4"], lambda: complete(4)),
    "star": (["--k", "3"], lambda: star(3)),
    "petersen": ([], petersen),
}
# gen invocations that write sidecars, and the library output they hold:
# a labelled graph, or a labelled graph with its closed-form partition.
GEN_SIDECARS = [
    (["kneser", "--n", "6", "--k", "2", "--with-labels"], lambda: kneser(6, 2)),
    (
        ["kneser-family", "--r", "3", "--with-partition", "--with-labels"],
        lambda: kneser_dim_partition(3),
    ),
    (
        ["bg", "--r", "3", "--s", "4", "--with-partition", "--with-labels"],
        lambda: bg_dim_partition(3, 4),
    ),
]


def _no_build(*args):
    raise RuntimeError("built")


class TestGen:
    def test_stdout_graph_is_parseable(self):
        code, out, _ = invoke(["gen", "cycle", "--n", "6"])
        assert code == 0
        g = parse_graph(out)
        assert g.n == 6 and g.m == 6

    def test_dimacs_output(self):
        code, out, _ = invoke(["gen", "complete", "--n", "3", "--format", "dimacs"])
        assert code == 0
        assert out.startswith("p edge 3 3\n")
        assert parse_graph(out, "dimacs").m == 3

    def test_family_with_partition_and_labels(self, tmp_path):
        base = tmp_path / "kg.g"
        code, _, _ = invoke(
            ["gen", "kneser-family", "--r", "3", "--with-partition",
             "--with-labels", "-o", str(base)]
        )
        assert code == 0
        g = parse_graph(base.read_text())
        assert g.n == 10 and g.m == 15
        p = parse_partition((tmp_path / "kg.g.partition").read_text(), g)
        assert p.num_classes == 5
        labels = parse_labels((tmp_path / "kg.g.labels").read_text())
        assert len(labels) == 10

    def test_bg_with_partition(self, tmp_path):
        base = tmp_path / "bg.g"
        code, _, _ = invoke(
            ["gen", "bg", "--r", "3", "--s", "2", "--with-partition", "-o", str(base)]
        )
        assert code == 0
        g = parse_graph(base.read_text())
        p = parse_partition((tmp_path / "bg.g.partition").read_text(), g)
        assert p.num_classes == 4

    def test_partition_without_output_is_usage_error(self):
        code, _, err = invoke(["gen", "kneser-family", "--r", "3", "--with-partition"])
        assert code == 2 and "require -o" in err

    def test_bad_parameter_is_usage_error(self):
        code, _, err = invoke(["gen", "cycle", "--n", "2"])
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
    @pytest.mark.parametrize("family", GEN_FAMILIES)
    def test_family_prints_library_graph(self, family, fmt):
        params, make = GEN_FAMILIES[family]
        code, out, err = invoke(["gen", family, *params, "--format", fmt])
        assert (code, err) == (0, "")
        assert out == serialize_graph(make(), fmt)

    @pytest.mark.parametrize("argv,make", GEN_SIDECARS, ids=[a[0] for a, _ in GEN_SIDECARS])
    def test_sidecars_equal_library_output(self, tmp_path, argv, make):
        base = tmp_path / "g.g"
        code, out, err = invoke(["gen", *argv, "-o", str(base)])
        assert (code, out, err) == (0, "", "")
        made = make()
        labeled, partition = made if isinstance(made, tuple) else (made, None)
        assert base.read_text() == serialize_graph(labeled.graph)
        sidecar = tmp_path / "g.g.partition"
        if partition is None:
            assert not sidecar.exists()
        else:
            assert sidecar.read_text() == serialize_partition(labeled.graph, partition)
        labels = (tmp_path / "g.g.labels").read_text()
        assert labels == serialize_labels(labeled.labels)

    @pytest.mark.parametrize("extra", [[], ["--with-partition"]])
    def test_gen_reads_no_label_without_with_labels(self, tmp_path, monkeypatch, extra):
        argv = ["gen", "kneser-family", "--r", "3", *extra, "-o"]
        with_labels = [*argv, str(tmp_path / "labels-before.g"), "--with-labels"]
        assert invoke([*argv, str(tmp_path / "before.g")]) == (0, "", "")
        assert invoke(with_labels) == (0, "", "")

        def unread(*args):
            raise AssertionError("a label was read")

        monkeypatch.setattr(families.SubsetLabels, "__getitem__", unread)
        monkeypatch.setattr(families.SubsetLabels, "__iter__", unread)
        # The patch bites: indexing or iterating the view reads a label.
        labels = families.kneser(5, 2).labels
        for read in (lambda: labels[0], lambda: list(labels)):
            with pytest.raises(AssertionError, match="a label was read"):
                read()
        assert invoke([*argv, str(tmp_path / "after.g")]) == (0, "", "")
        for suffix in ("", ".partition") if extra else ("",):
            before = (tmp_path / f"before.g{suffix}").read_bytes()
            assert (tmp_path / f"after.g{suffix}").read_bytes() == before
        # The label writer formats the view's rows, so it reads no label
        # either, and writes the same sidecar.
        with_labels[-2] = str(tmp_path / "labels-after.g")
        assert invoke(with_labels) == (0, "", "")
        before = (tmp_path / "labels-before.g.labels").read_bytes()
        assert (tmp_path / "labels-after.g.labels").read_bytes() == before

    @pytest.mark.parametrize("family", ["cycle", "complete", "star", "petersen"])
    def test_labels_on_unlabelled_family_is_usage_error(self, tmp_path, family):
        base = tmp_path / "g.g"
        params, _ = GEN_FAMILIES[family]
        code, out, err = invoke(["gen", family, *params, "--with-labels", "-o", str(base)])
        assert (code, out) == (2, "")
        assert err == f"error: {family} has no subset labels\n"

    @pytest.mark.parametrize("family", ["kneser", "cycle", "complete", "star", "petersen"])
    def test_partition_without_closed_form_is_usage_error(self, tmp_path, capsys, family):
        params, _ = GEN_FAMILIES[family]
        argv = ["gen", family, *params, "--with-partition", "-o", str(tmp_path / "g.g")]
        code, out, _ = invoke(argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --with-partition" in capsys.readouterr().err
        assert not (tmp_path / "g.g").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["kneser", "--n", "-1", "--k", "2"], "ground set size n must be positive"),
            (["bg", "--r", "1", "--s", "3"], "subset sizes must be positive"),
            (["star", "--k", "0"], "star needs at least 1 leaf"),
            (["kneser-family", "--r", "1", "--with-partition"], "r must be at least 2"),
        ],
    )
    def test_bad_parameter_keeps_family_message(self, argv, message):
        # The last has no -o: a bad parameter is reported before that.
        code, out, err = invoke(["gen", *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("family", GEN_FAMILIES)
    def test_vertex_count_is_closed_form(self, family):
        params, make = GEN_FAMILIES[family]
        ints = [int(a) for a in params[1::2]]
        assert cli._FAMILIES[family].counts(*ints)[0] == make().n

    @pytest.mark.parametrize("family", GEN_FAMILIES)
    def test_edge_count_is_closed_form(self, family):
        params, make = GEN_FAMILIES[family]
        ints = [int(a) for a in params[1::2]]
        assert cli._FAMILIES[family].counts(*ints)[1] == make().m

    @pytest.mark.parametrize("argv,make", GEN_SIDECARS)
    def test_label_entry_count_is_closed_form(self, argv, make):
        made = make()
        lg = made[0] if isinstance(made, tuple) else made
        ints = [int(a) for a in argv[1:] if not a.startswith("-")]
        assert cli._FAMILIES[argv[0]].counts(*ints)[2] == sum(map(len, lg.labels))

    @pytest.mark.parametrize(
        "argv,count",
        [
            (["bg", "--r", "2", "--s", "450"], 101_926),
            (["kneser", "--n", "40", "--k", "20"], 137_846_528_820),
            (["kneser-family", "--r", "11", "--with-partition"], 352_716),
        ],
    )
    def test_family_above_vertex_limit_is_refused_unbuilt(
        self, tmp_path, monkeypatch, argv, count
    ):
        # Building any of these would fail the test rather than fill memory.
        monkeypatch.setattr(families, "_colex_subsets", _no_build)
        monkeypatch.setattr(families, "build_graph", _no_build)
        path = tmp_path / "big.g"
        code, out, err = invoke(["gen", *argv, "-o", str(path)])
        assert (code, out) == (2, "")
        limit = f"vertex count {count} exceeds the limit of {MAX_VERTICES}"
        assert err == f"error: {argv[0]}: {limit}\n"
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv,size",
        [
            (["complete", "--n", "100000"], 4_999_950_000),
            (["kneser", "--n", "447", "--k", "2"], 4_923_942_357),
            (["kneser", "--n", "22", "--k", "5"], 81_609_066),
            (["kneser", "--n", "100000", "--k", "99999"], 9_999_900_000),
            (["bg", "--r", "445", "--s", "2"], 44_259_256),
            (["kneser", "--n", "2000", "--k", "1999"], 3_998_000),
        ],
    )
    def test_family_above_size_limit_is_refused_unbuilt(self, tmp_path, monkeypatch, argv, size):
        # Each is under the vertex limit, and is refused on its edges and
        # label entries before anything is built.
        monkeypatch.setattr(families, "_colex_subsets", _no_build)
        monkeypatch.setattr(families, "build_graph", _no_build)
        path = tmp_path / "big.g"
        code, out, err = invoke(["gen", *argv, "-o", str(path)])
        assert (code, out) == (2, "")
        limit = f"edge and label-entry count {size} exceeds the limit of {cli.MAX_GEN_ENTRIES}"
        assert err == f"error: {argv[0]}: {limit}\n"
        assert not path.exists()

    @pytest.mark.parametrize("r,s", [(1, 500_000), (500_000, 1)])
    def test_bad_bg_size_beside_a_huge_one_keeps_family_message(
        self, tmp_path, monkeypatch, r, s
    ):
        monkeypatch.setattr(families, "_colex_subsets", _no_build)
        path = tmp_path / "bg.g"
        code, out, err = invoke(["gen", "bg", "--r", str(r), "--s", str(s), "-o", str(path)])
        assert (code, out, err) == (2, "", "error: subset sizes must be positive\n")
        assert not path.exists()

    def test_vertex_limit_boundary_is_kneser_family_r_10(self, monkeypatch):
        counts = cli._FAMILIES["kneser-family"].counts
        assert counts(10)[0] == 92_378 <= MAX_VERTICES < counts(11)[0] == 352_716
        assert counts(10)[1:] == (461_890, 831_402)
        assert sum(counts(10)[1:]) <= cli.MAX_GEN_ENTRIES
        # r = 10 passes both checks and goes on to build.
        monkeypatch.setattr(families, "_colex_subsets", _no_build)
        code, _, err = invoke(["gen", "kneser-family", "--r", "10"])
        assert (code, err) == (4, "internal error: RuntimeError: built\n")


class TestDim:
    def test_find_emits_certificate(self, petersen_file):
        code, out, _ = invoke(["dim", "find", str(petersen_file)])
        assert code == 0
        digest, edges = parse_certificate(out, petersen())
        assert len(edges) == 3

    def test_find_no_dim_exit_one(self, c4_file):
        code, out, _ = invoke(["dim", "find", str(c4_file)])
        assert code == 1 and out == "no DIM\n"

    def test_size(self, petersen_file):
        code, out, _ = invoke(["dim", "size", str(petersen_file)])
        assert code == 0 and out == "3\n"

    def test_enum(self, tmp_path):
        path = tmp_path / "c6.g"
        invoke(["gen", "cycle", "--n", "6", "-o", str(path)])
        code, out, _ = invoke(["dim", "enum", str(path)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dims 3"
        assert lines[1] == "0-1 3-4"

    def test_enum_empty_exit_one(self, c4_file):
        code, out, _ = invoke(["dim", "enum", str(c4_file)])
        assert code == 1 and out == "dims 0\n"

    def test_budget_exhaustion_exit_three(self, petersen_file):
        code, _, err = invoke(["dim", "enum", str(petersen_file), "--budget", "2"])
        assert code == 3 and "budget" in err

    def test_missing_file_is_input_error(self):
        code, _, err = invoke(["dim", "find", "does-not-exist.g"])
        assert code == 2 and "cannot read" in err

    def test_malformed_file_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.g"
        bad.write_text("3 9\n0 1\n")
        code, _, err = invoke(["dim", "find", str(bad)])
        assert code == 2

    def test_vertex_count_above_ceiling_is_input_error(self, tmp_path):
        huge = tmp_path / "huge.g"
        huge.write_text(f"{MAX_VERTICES + 1} 0\n")
        code, out, err = invoke(["dim", "find", str(huge)])
        assert code == 2 and out == "" and "exceeds the limit" in err

    def test_uncaught_exception_is_internal_error(self, petersen_file, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("postcondition violated")

        monkeypatch.setattr(cli, "find_dim", broken)
        code, out, err = invoke(["dim", "find", str(petersen_file)])
        assert code == 4 and out == ""
        assert err == "internal error: RuntimeError: postcondition violated\n"


class TestPartitionCmd:
    def test_find_roundtrip(self, tmp_path):
        path = tmp_path / "c9.g"
        invoke(["gen", "cycle", "--n", "9", "-o", str(path)])
        code, out, _ = invoke(["partition", "find", str(path)])
        assert code == 0
        g = parse_graph(path.read_text())
        p = parse_partition(out, g)
        assert p.num_classes == 3

    def test_find_absent_exit_one(self, c4_file):
        code, out, _ = invoke(["partition", "find", str(c4_file)])
        assert code == 1 and out == "no partition\n"

    def test_verify_valid(self, tmp_path):
        base = tmp_path / "kg.g"
        invoke(["gen", "kneser-family", "--r", "3", "--with-partition", "-o", str(base)])
        code, out, _ = invoke(
            ["partition", "verify", "--partition", str(base) + ".partition", str(base)]
        )
        assert code == 0
        assert "valid = true" in out
        assert "class-count-ok = true" in out
        assert "regularity = regular" in out

    @pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
    def test_verify_one_recolored_edge_exits_one(self, tmp_path, fmt):
        # KG(13,6) is above the array pass's edge gate.  Its first edge
        # takes the next color, as CI does with awk; that color is then
        # repeated at one of the edge's ends.
        base = tmp_path / f"kg13.{fmt}"
        invoke(["gen", "kneser-family", "--r", "7", "--with-partition", "--format", fmt, "-o", str(base)])
        header, first, *rest = Path(f"{base}.partition").read_text().splitlines(keepends=True)
        u, v, c = first.split()
        recolored = tmp_path / "recolored.partition"
        recolored.write_text("".join([header, f"{u} {v} {int(c) % 13 + 1}\n", *rest]))
        code, out, err = invoke(
            ["partition", "verify", "--format", fmt, "--partition", str(recolored), str(base)]
        )
        assert (code, err) == (1, "")
        assert out == (DATA / "kneser-13-6-recolored.partition-verify.txt").read_text()

    def test_find_budget_exhaustion_exit_three(self, petersen_file):
        code, out, err = invoke(["partition", "find", str(petersen_file), "--budget", "1"])
        assert code == 3 and out == "" and "budget" in err

    def test_find_kg_11_5(self, tmp_path):
        path = tmp_path / "kg.g"
        invoke(["gen", "kneser-family", "--r", "6", "-o", str(path)])
        code, out, _ = invoke(["partition", "find", str(path)])
        assert code == 0
        assert parse_partition(out, parse_graph(path.read_text())).num_classes == 11

    def test_verify_huge_class_count_is_input_error(self, tmp_path):
        graph = tmp_path / "k2.g"
        graph.write_text("2 1\n0 1\n")
        partition = tmp_path / "k2.partition"
        partition.write_text("classes 1000000000\n0 1 1\n")
        code, out, err = invoke(
            ["partition", "verify", "--partition", str(partition), str(graph)]
        )
        assert code == 2 and out == ""
        assert "every color class must be nonempty" in err

    def test_verify_requires_partition_flag(self, petersen_file):
        code, _, err = invoke(["partition", "verify", str(petersen_file)])
        assert code == 2


TWO_PETERSENS = build_graph(
    20, [*petersen().edges, *((u + 10, v + 10) for u, v in petersen().edges)]
)
# Graphs whose verify reports are kept as goldens: C4 has no DIM, so no
# entry applies; the path 0-1-2-3 has a DIM but no partition; every entry
# applies on the Petersen graph.  BG(2,3) has a biregular partition, so
# the list properties apply and vertex-count divisibility does not; C6 has
# a regular partition off the extremal case, and 3 divides its 6 vertices;
# two disjoint Petersens have a partition but are disconnected, so
# partition regularity does not apply while the list properties do.
VERIFY_GOLDENS = {
    "c4": cycle(4),
    "path4": build_graph(4, [(0, 1), (1, 2), (2, 3)]),
    "petersen": petersen(),
    "bg-2-3": bipartite_kneser(2, 3).graph,
    "c6": cycle(6),
    "two-petersens": TWO_PETERSENS,
}
# verify all at budgets that stop a search at four different points, each
# exit 3: before Petersen's first DIM; during its DIM enumeration; in C9's
# cover search, after its DIM list is complete; and in the DIM search of
# two disjoint Petersens, whose partition search has a count of its own
# and succeeds.
BUDGET_GOLDENS = {
    "petersen-budget-1": (petersen(), 1),
    "petersen-budget-10": (petersen(), 10),
    "c9-budget-10": (cycle(9), 10),
    "two-petersens-budget-40": (TWO_PETERSENS, 40),
}


class TestVerify:
    @pytest.mark.parametrize("action", ["all", "report"])
    @pytest.mark.parametrize("name", VERIFY_GOLDENS)
    def test_output_matches_golden(self, tmp_path, name, action):
        path = tmp_path / f"{name}.g"
        path.write_text(serialize_graph(VERIFY_GOLDENS[name]), encoding="utf-8")
        code, out, err = invoke(["verify", action, str(path)])
        assert (code, err) == (0, "")
        assert out == (DATA / f"verify-{action}-{name}.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", BUDGET_GOLDENS)
    def test_budget_hit_matches_golden(self, tmp_path, name):
        g, budget = BUDGET_GOLDENS[name]
        path = tmp_path / f"{name}.g"
        path.write_text(serialize_graph(g), encoding="utf-8")
        code, out, err = invoke(["verify", "all", str(path), "--budget", str(budget)])
        assert (code, err) == (3, "")
        assert out == (DATA / f"verify-all-{name}.txt").read_text(encoding="utf-8")

    def test_all_passes_on_petersen(self, petersen_file):
        code, out, _ = invoke(["verify", "all", str(petersen_file)])
        assert code == 0
        assert "size = 3" in out
        assert "passed = false" not in out

    def test_report_json(self, petersen_file):
        code, out, _ = invoke(["verify", "report", str(petersen_file)])
        assert code == 0
        data = json.loads(out)
        assert data["dim"]["size"] == 3

    def test_c4_report(self, c4_file):
        code, out, _ = invoke(["verify", "all", str(c4_file)])
        assert code == 0
        assert "exists = false" in out

    def test_check_budget_exhaustion_exit_three(self, petersen_file):
        # Enough nodes to find a DIM, too few to enumerate them or partition.
        code, out, _ = invoke(["verify", "all", str(petersen_file), "--budget", "10"])
        assert code == 3
        assert "exists = true" in out
        assert "error = exceeded search budget of 10 nodes" in out

    def test_dim_budget_exhaustion_is_not_no_dim(self, petersen_file):
        code, out, _ = invoke(["verify", "all", str(petersen_file), "--budget", "1"])
        assert code == 3
        assert "search-error = exceeded search budget of 1 nodes" in out
        assert "details = no dim" not in out
        assert out.count("error = exceeded search budget of 1 nodes") == 1 + 13

    def test_budget_flag_recorded(self, petersen_file):
        code, out, _ = invoke(
            ["verify", "all", str(petersen_file), "--budget", "54321"]
        )
        assert "search-nodes = 54321" in out

    @pytest.mark.parametrize("graph", ["c4_file", "petersen_file"])
    def test_max_cycle_below_three_is_usage_error(self, request, graph):
        # Rejected before any search, with or without a DIM to check cycles on.
        path = request.getfixturevalue(graph)
        code, out, err = invoke(["verify", "all", str(path), "--max-cycle", "2"])
        assert code == 2 and out == ""
        assert "max_cycle_len >= 3" in err


class TestSweep:
    def test_exhaustive_small(self, tmp_path):
        code, out, _ = invoke(
            ["sweep", "--max-n", "4", "--dump-dir", str(tmp_path)]
        )
        assert code == 0
        assert "graphs 44" in out
        assert "graphs-with-dim 40" in out
        assert "counterexamples 0" in out

    def test_failed_entry_is_counted_and_dumped(self, tmp_path, monkeypatch):
        # A report on the triangle whose three-coloring entry fails.
        def with_a_failure(g, budgets):
            report = full_report(g, budgets)
            if g != cycle(3):
                return report
            entries = tuple(
                CheckEntry(e.name, "fail", e.details) if e.name == "three-coloring" else e
                for e in report.entries
            )
            return dataclasses.replace(report, entries=entries)

        monkeypatch.setattr(cli, "full_report", with_a_failure)
        code, out, _ = invoke(["sweep", "--max-n", "3", "--dump-dir", str(tmp_path)])
        assert code == 1
        assert "check three-coloring pass=5 fail=1 na=0 error=0\n" in out
        assert "check edge-count-bound pass=6 fail=0 na=0 error=0\n" in out
        assert "counterexamples 1\n" in out
        dumped = (tmp_path / "counterexample-000.g").read_text(encoding="utf-8")
        assert parse_graph(dumped) == cycle(3)

    def test_budget_exhaustion_exit_three(self, tmp_path):
        code, out, _ = invoke(
            ["sweep", "--max-n", "4", "--budget", "1", "--dump-dir", str(tmp_path)]
        )
        assert code == 3
        # Every graph on <= 4 vertices without a DIM needs more than one
        # node to show it, so none may count as having no DIM.
        assert "graphs-without-dim 0\n" in out
        assert "check three-coloring pass=19 fail=0 na=0 error=25\n" in out
        assert "counterexamples 0\n" in out

    @pytest.mark.parametrize(
        "argv,golden",
        [
            (["--max-n", "5"], "sweep-max-n-5.txt"),
            (
                ["--sample", "--n", "7", "--seed", "5", "--count", "200"],
                "sweep-sample-n7-seed5-count200.txt",
            ),
            (["--max-n", "6"], "sweep-max-n-6.txt"),
        ],
    )
    def test_output_matches_golden(self, tmp_path, argv, golden):
        code, out, _ = invoke(["sweep", *argv, "--dump-dir", str(tmp_path)])
        assert code == 0
        assert out == (DATA / golden).read_text(encoding="utf-8")

    def test_guardrail(self):
        code, _, err = invoke(["sweep", "--max-n", "8"])
        assert code == 2 and "limited" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--max-n", "0"], "--max-n must be at least 1"),
            (["--max-n", "-2"], "--max-n must be at least 1"),
            (["--sample", "--n", "5", "--count", "-1"], "--count must be at least 1"),
            (["--sample", "--n", "5", "--count", "0"], "--count must be at least 1"),
            (["--sample", "--n", "0", "--count", "3"], "need at least one vertex"),
        ],
    )
    def test_sweep_over_no_graphs_is_usage_error(self, tmp_path, argv, message):
        code, out, err = invoke(["sweep", *argv, "--dump-dir", str(tmp_path)])
        assert code == 2 and out == ""
        assert message in err

    def test_sample_mode_requires_n(self):
        code, _, err = invoke(["sweep", "--sample"])
        assert code == 2

    def test_sample_deterministic(self, tmp_path):
        argv = ["sweep", "--sample", "--n", "8", "--seed", "42", "--count", "40",
                "--dump-dir", str(tmp_path)]
        code_a, out_a, _ = invoke(argv)
        code_b, out_b, _ = invoke(argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "seed=42" in out_a


class TestDeterminism:
    def test_verify_all_byte_identical(self, petersen_file):
        _, a, _ = invoke(["verify", "all", str(petersen_file)])
        _, b, _ = invoke(["verify", "all", str(petersen_file)])
        assert a == b

    def test_gen_byte_identical(self):
        _, a, _ = invoke(["gen", "kneser", "--n", "6", "--k", "2"])
        _, b, _ = invoke(["gen", "kneser", "--n", "6", "--k", "2"])
        assert a == b

    def test_unknown_command_usage_error(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2


# The labelled families as gen writes them, with every sidecar, in both
# formats.  tests/data/gen-digests.txt holds the files' sha256 digests as
# an earlier construction of the families wrote them; gen_digests prints
# the same lines.
GEN_DIGEST_CASES = (
    [["kneser-family", "--r", str(r), "--with-partition"] for r in range(2, 8)]
    + [
        ["bg", "--r", str(r), "--s", str(s), "--with-partition"]
        for r in range(2, 7)
        for s in range(2, 7)
    ]
    + [["kneser", "--n", "9", "--k", "3"]]
)


def gen_digests(tmp_path):
    """One "<gen arguments> <file> <sha256>" line per file written."""
    lines = []
    path = tmp_path / "family"
    for argv in GEN_DIGEST_CASES:
        for fmt in ("edgelist", "dimacs"):
            args = [*argv, "--with-labels", "--format", fmt]
            assert invoke(["gen", *args, "-o", str(path)]) == (0, "", "")
            for suffix in ("", ".partition", ".labels"):
                file = Path(f"{path}{suffix}")
                if file.exists():
                    digest = hashlib.sha256(file.read_bytes()).hexdigest()
                    lines.append(f"{' '.join(args)} {suffix or '.g'} {digest}\n")
                    file.unlink()
    return "".join(lines)


def test_gen_output_matches_recorded_digests(tmp_path):
    expected = (DATA / "gen-digests.txt").read_text(encoding="utf-8")
    assert gen_digests(tmp_path) == expected


@pytest.mark.parametrize("module", ["dimtools", "dimtools.cli"])
def test_python_dash_m_entry_points(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "gen", "cycle", "--n", "3"],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_graph(proc.stdout) == cycle(3)


class TestBudgetFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dim", "find", "{g}", "--budget", "-5"],
            ["partition", "find", "{g}", "--budget", "-1"],
            ["verify", "all", "{g}", "--budget", "-1"],
            ["sweep", "--max-n", "3", "--budget", "-2"],
            ["dim", "enum", "{g}", "--budget", "ten"],
        ],
        ids=["dim", "partition", "verify", "sweep", "not-a-number"],
    )
    def test_invalid_budget_is_usage_error(self, petersen_file, capsys, argv):
        # A search that never ran cannot have run out of budget (exit 3).
        code, out, _ = invoke([a.format(g=petersen_file) for a in argv])
        assert code == 2 and out == ""
        assert "argument --budget" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_small_budgets_are_valid(self, tmp_path, budget):
        # The edgeless graph's empty DIM and empty partition need no node.
        path = tmp_path / "edgeless.g"
        path.write_text("3 0\n", encoding="utf-8")
        for argv in (["dim", "find"], ["partition", "find"], ["verify", "all"]):
            code, _, err = invoke([*argv, str(path), "--budget", budget])
            assert code == 0, (argv, err)


# Seeded relabellings whose engine output is pinned byte for byte: the
# first under the scan rule (70 columns), the others under the counting
# rule (315 and 1 386 columns; KG(11,5) takes its forced rows in batches
# of 100).  The DIM certificate and the partition are the engine's first
# solutions, so these files pin its solution order.
ENGINE_GOLDENS = {
    "kneser-7-3-seed5": (7, 3),
    "kneser-9-4-seed5": (9, 4),
    "kneser-11-5-seed5": (11, 5),
}


def test_engine_goldens_are_seeded_relabellings_on_both_rules():
    for name, (n, k) in ENGINE_GOLDENS.items():
        g = kneser(n, k).graph
        perm = list(range(g.n))
        random.Random(5).shuffle(perm)
        h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert (DATA / f"{name}.g").read_text(encoding="utf-8") == serialize_graph(h)
    m = [kneser(n, k).graph.m for n, k in ENGINE_GOLDENS.values()]
    assert m[0] < solver._COUNTING_MIN_COLUMNS <= m[1]


@pytest.mark.parametrize("name", ENGINE_GOLDENS)
@pytest.mark.parametrize("command", [("dim", "find"), ("dim", "enum"), ("partition", "find")])
def test_engine_output_matches_golden(name, command):
    code, out, err = invoke([*command, str(DATA / f"{name}.g")])
    assert (code, err) == (0, "")
    golden = DATA / f"{name}.{'-'.join(command)}.txt"
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", [("dim", "enum"), ("partition", "find")])
def test_dimacs_with_every_edge_twice_matches_golden(command):
    # Comment lines, CRLF line ends and each edge listed a second time,
    # reversed: the DIMACS merge path end to end.
    path = DATA / "petersen-repeats.dimacs"
    code, out, err = invoke([*command, "--format", "dimacs", str(path)])
    assert (code, err) == (0, "")
    golden = DATA / f"petersen-repeats.{'-'.join(command)}.txt"
    assert out == golden.read_text(encoding="utf-8")


def test_kg_15_7_dim_matches_golden(tmp_path):
    # The first size at which the dense bitmasks would cost more than the
    # search: the counting rule builds only its index tables.
    path = tmp_path / "kg15.g"
    assert invoke(["gen", "kneser-family", "--r", "8", "-o", str(path)])[0] == 0
    code, out, err = invoke(["dim", "find", str(path)])
    assert (code, err) == (0, "")
    assert out == (DATA / "kneser-15-7.dim-find.txt").read_text(encoding="utf-8")


def test_hard_cubic_graph_answers_no_within_a_small_budget():
    # Column dominance proves in 280 nodes that this random cubic graph
    # has no DIM; Algorithm X alone would need 6 545.
    code, out, err = invoke(
        ["dim", "find", "--budget", "1000", str(DATA / "cubic-400-seed1.g")]
    )
    assert (code, err) == (1, "")
    golden = DATA / "cubic-400-seed1.dim-find-budget-1000.txt"
    assert out == golden.read_text(encoding="utf-8")


def test_default_budgets_are_one_constant():
    budget = solver.DEFAULT_BUDGET
    for fn in (solver.find_dim, solver.enumerate_dims, partition.find_dim_partition):
        assert inspect.signature(fn).parameters["budget"].default == budget, fn
    assert Budgets().search_nodes == budget
    parser = cli._build_parser()
    for argv in (["dim", "find", "g"], ["partition", "find", "g"],
                 ["verify", "all", "g"], ["sweep"]):
        args = parser.parse_args(argv)
        assert args.budget == budget, argv
        if argv[0] in ("verify", "sweep"):
            assert args.max_cycle == Budgets().max_cycle_len, argv
