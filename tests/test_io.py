"""Text format round trips and error handling."""

import tracemalloc

import pytest
from hypothesis import given

from dimtools.families import cycle, petersen, kneser_dim_partition
from dimtools.graph import build_graph
from dimtools.io import (
    MAX_VERTICES,
    FormatError,
    graph_digest,
    parse_certificate,
    parse_graph,
    parse_labels,
    parse_list_assignment,
    parse_matching,
    parse_partition,
    serialize_certificate,
    serialize_graph,
    serialize_labels,
    serialize_list_assignment,
    serialize_matching,
    serialize_partition,
)
from dimtools.partition import ListAssignment, find_dim_partition
from dimtools.solver import find_dim

from test_graph import graphs_strategy


class TestEdgeList:
    def test_parse_triangle(self):
        g = parse_graph("3 3\n0 1\n1 2\n0 2\n")
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_comments_and_blank_lines(self):
        g = parse_graph("# a triangle\n3 3\n\n0 1\n1 2\n# middle\n0 2\n")
        assert g.m == 3

    def test_serialize_canonical(self):
        g = build_graph(3, [(2, 1), (1, 0), (0, 2)])
        assert serialize_graph(g) == "3 3\n0 1\n0 2\n1 2\n"

    @given(graphs_strategy())
    def test_roundtrip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    def test_parse_then_serialize_canonicalizes(self):
        text = "3 3\n2 1\n1 0\n2 0\n"
        assert serialize_graph(parse_graph(text)) == "3 3\n0 1\n0 2\n1 2\n"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n",
            "3 2\n0 1\n",  # count mismatch
            "3 1\n0 1\n1 2\n",  # too many lines
            "3 1\n0 3\n",  # out of range
            "3 1\n0 0\n",  # self-loop
            "3 1\nzero one\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(FormatError):
            parse_graph(text)


class TestDimacs:
    def test_parse_single_edge(self):
        g = parse_graph("p edge 2 1\ne 1 2\n", "dimacs")
        assert g.edges == ((0, 1),)

    def test_comments(self):
        g = parse_graph("c hello\np edge 2 1\ne 1 2\n", "dimacs")
        assert g.m == 1

    @given(graphs_strategy())
    def test_roundtrip(self, g):
        assert parse_graph(serialize_graph(g, "dimacs"), "dimacs") == g

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "p edge 2 2\ne 1 2\n",  # inconsistent count
            "p edge 2 1\ne 0 1\n",  # 1-based violation
            "p edge 2 1\ne 1 1\n",  # self-loop
            "p foo 2 1\ne 1 2\n",
            "e 1 2\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(FormatError):
            parse_graph(text, "dimacs")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_graph("x", "graphml")


@pytest.mark.parametrize(
    "text,fmt",
    [
        (f"{MAX_VERTICES + 1} 0\n", "edgelist"),
        (f"p edge {MAX_VERTICES + 1} 0\n", "dimacs"),
    ],
)
def test_vertex_count_above_ceiling_rejected(text, fmt):
    with pytest.raises(FormatError, match="exceeds the limit"):
        parse_graph(text, fmt)


class TestMatchingAndCertificate:
    def test_matching_roundtrip(self):
        g = cycle(6)
        dim = find_dim(g)
        text = serialize_matching(g, dim)
        assert parse_matching(text, g) == dim
        assert text == "".join(
            f"{u}-{v}\n" for u, v in sorted(g.edges[e] for e in dim)
        )

    def test_matching_rejects_non_edges(self):
        with pytest.raises(FormatError):
            parse_matching("0-3\n", cycle(6))

    def test_certificate_roundtrip(self):
        g = petersen()
        dim = find_dim(g)
        text = serialize_certificate(g, dim)
        digest, edges = parse_certificate(text, g)
        assert digest == graph_digest(g)
        assert edges == dim

    def test_certificate_digest_mismatch(self):
        text = serialize_certificate(petersen(), find_dim(petersen()))
        with pytest.raises(FormatError, match="digest"):
            parse_certificate(text, cycle(6))


class TestPartitionFormat:
    def test_roundtrip(self):
        g = cycle(9)
        p = find_dim_partition(g)
        text = serialize_partition(g, p)
        assert text.startswith("classes 3\n")
        assert parse_partition(text, g) == p

    def test_kneser_partition_roundtrip(self):
        lg, p = kneser_dim_partition(3)
        text = serialize_partition(lg.graph, p)
        assert parse_partition(text, lg.graph) == p

    def test_missing_edge_line(self):
        g = cycle(9)
        p = find_dim_partition(g)
        text = serialize_partition(g, p)
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(FormatError):
            parse_partition(truncated, g)

    def test_color_out_of_range(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(FormatError):
            parse_partition("classes 1\n0 1 2\n", g)

    def test_class_count_above_edge_count_costs_no_memory(self):
        # Every class must be nonempty, so a count above the edge count
        # is rejected before one set per declared class is allocated.
        g = build_graph(2, [(0, 1)])
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="nonempty"):
                parse_partition("classes 1000000\n0 1 1\n", g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestListAssignmentFormat:
    def test_roundtrip(self):
        a = ListAssignment(3, (frozenset({1, 2}), frozenset(), frozenset({3})))
        text = serialize_list_assignment(a)
        assert text == "0 : {1,2}\n1 : {}\n2 : {3}\n"
        assert parse_list_assignment(text, num_labels=3) == a

    def test_universe_inferred(self):
        a = parse_list_assignment("0 : {2}\n1 : {1}\n")
        assert a.num_labels == 2

    def test_labels_sidecar_roundtrip(self):
        lg, _ = kneser_dim_partition(3)
        text = serialize_labels(lg.labels)
        assert parse_labels(text) == lg.labels

    def test_vertices_must_be_dense(self):
        with pytest.raises(FormatError):
            parse_list_assignment("0 : {1}\n2 : {2}\n")
