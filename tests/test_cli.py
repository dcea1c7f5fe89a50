"""Command-line behavior: exit codes, formats, determinism, round trips."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dimtools
from dimtools import cli
from dimtools.cli import run
from dimtools.io import (
    MAX_VERTICES,
    parse_certificate,
    parse_graph,
    parse_labels,
    parse_partition,
)
from dimtools.families import cycle, petersen

# Sweep stdout that a change to the report code must reproduce byte for byte.
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


class TestVerify:
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
