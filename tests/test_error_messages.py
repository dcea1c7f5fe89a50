"""Exact error text of the parsers, the graph constructors and the
closed-form coloring.

Each row is an input and the full message it must raise, so a rewrite of
a parser or a constructor cannot change a message, the order in which a
file's faults are reported, or the integer syntax the readers accept
(ASCII digits with an optional sign and leading zeros), without failing
here.  Two kinds of rows record deliberate changes: the repeated-edge
rows of the edge-list format, since such a file used to load as a graph
with fewer edges than its header declares, and the rows with digit-group
underscores or non-ASCII digits, which int() reads and used to load.
"""

import pytest

from dimtools.cli import run
from dimtools.families import LabeledGraph, SubsetLabels, _leftover_coloring, cycle, kneser
from dimtools.graph import Graph, build_graph
from dimtools.io import (
    FormatError,
    parse_graph,
    parse_labels,
    parse_matching,
    parse_partition,
)

EDGELIST_ERRORS = [
    ("", "missing header line"),
    ("# only a comment\n\n", "missing header line"),
    ("3\n", "malformed header line: '3'"),
    ("3 2 1\n0 1\n", "malformed header line: '3 2 1'"),
    ("x 1\n0 1\n", "malformed header line: 'x 1'"),
    ("1_2 1\n0 10\n", "malformed header line: '1_2 1'"),
    ("-1 0\n", "vertex and edge counts must be nonnegative"),
    ("3 -1\n", "vertex and edge counts must be nonnegative"),
    ("100001 0\n", "vertex count 100001 exceeds the limit of 100000"),
    ("3 2\n0 1\n", "declared 2 edges but found 1 edge lines"),
    ("3 1\n0 1\n1 2\n", "declared 1 edges but found 2 edge lines"),
    ("3 1\n0\n", "malformed edge line: '0'"),
    ("3 1\n0 1 2\n", "malformed edge line: '0 1 2'"),
    ("3 1\n0 x\n", "malformed edge line: '0 x'"),
    ("3 1\n0 1.0\n", "malformed edge line: '0 1.0'"),
    # An edge-list line has no tag, and '#' starts a comment only at the
    # start of a line.
    ("3 1\ne 0 1\n", "malformed edge line: 'e 0 1'"),
    ("3 1\n0 1 # note\n", "malformed edge line: '0 1 # note'"),
    ("3 1\n-1 2\n", "vertex out of range in line '-1 2'"),
    ("3 1\n0 3\n", "vertex out of range in line '0 3'"),
    ("3 1\n2 2\n", "self-loop at vertex 2"),
    # A sign is accepted, but not the digit-group underscores or the
    # non-ASCII digits that int() also reads.
    ("3 2\n+0 +1\n1_0 2\n", "malformed edge line: '1_0 2'"),
    ("12 1\n0 1_0\n", "malformed edge line: '0 1_0'"),
    ("12 1\n0 \u0661\u0660\n", "malformed edge line: '0 \u0661\u0660'"),
    ("3 1\r\n+2 2\r\n", "self-loop at vertex 2"),
    # The first faulty line is reported, whatever its fault.
    ("3 2\n0 5\n1 1\n", "vertex out of range in line '0 5'"),
    ("3 2\n1 1\n0 5\n", "self-loop at vertex 1"),
    ("3 2\n0 x\n0 5\n", "malformed edge line: '0 x'"),
    # A repeated edge, in either orientation, names its second line.
    ("3 2\n0 1\n1 0\n", "repeated edge in line '1 0'"),
    ("3 3\n0 1\n1 2\n0 1\n", "repeated edge in line '0 1'"),
    ("3 3\n1 0\n1 2\n+0 1\n", "repeated edge in line '+0 1'"),
]

DIMACS_ERRORS = [
    ("", "missing problem line"),
    ("p edge 2\n", "malformed problem line: 'p edge 2'"),
    ("p edge 2 1 7\n", "malformed problem line: 'p edge 2 1 7'"),
    ("p foo 2 1\ne 1 2\n", "malformed problem line: 'p foo 2 1'"),
    ("p edge x 1\n", "malformed problem line: 'p edge x 1'"),
    ("p edge 1_2 1\ne 1 2\n", "malformed problem line: 'p edge 1_2 1'"),
    ("e 1 2\n", "malformed problem line: 'e 1 2'"),
    ("p edge -2 1\n", "vertex and edge counts must be nonnegative"),
    ("p edge 100001 0\n", "vertex count 100001 exceeds the limit of 100000"),
    ("p edge 2 2\ne 1 2\n", "declared 2 edges but found 1 edge lines"),
    ("p edge 2 1\ne 1 2 3\n", "malformed edge line: 'e 1 2 3'"),
    ("p edge 2 1\nf 1 2\n", "malformed edge line: 'f 1 2'"),
    ("p edge 2 1\n1 2\n", "malformed edge line: '1 2'"),
    ("p edge 2 1\ne 1 x\n", "malformed edge line: 'e 1 x'"),
    ("p edge 12 1\ne 1 1_1\n", "malformed edge line: 'e 1 1_1'"),
    ("p edge 12 1\ne 1 \u0661\u0661\n", "malformed edge line: 'e 1 \u0661\u0661'"),
    ("p edge 2 1\ne 0 1\n", "vertex out of range in line 'e 0 1'"),
    ("p edge 2 1\ne -1 1\n", "vertex out of range in line 'e -1 1'"),
    ("p edge 2 1\ne 1 3\n", "vertex out of range in line 'e 1 3'"),
    ("p edge 2 1\ne 1 1\n", "self-loop at vertex 1"),
    ("p edge 3 2\ne 1 5\ne 2 2\n", "vertex out of range in line 'e 1 5'"),
]

GRAPHS_ACCEPTED = [
    ("edgelist", "3 2\r\n0 1\r\n# c\r\n\r\n1 2\r\n", 3, ((0, 1), (1, 2))),
    ("edgelist", "11 2\n+0 +1\n010 2\n", 11, ((0, 1), (2, 10))),
    ("edgelist", "3 2\n2 1\n1 0\n", 3, ((0, 1), (1, 2))),
    ("dimacs", "c x\r\np edge 3 2\r\n\r\ne 1 2\r\ne +2 3\r\n", 3, ((0, 1), (1, 2))),
    # DIMACS files from other tools may list an edge twice; it is merged.
    ("dimacs", "p edge 3 2\ne 1 2\ne 2 1\n", 3, ((0, 1),)),
    ("dimacs", "p edge 3 3\ne 1 2\ne 2 3\ne 1 2\n", 3, ((0, 1), (1, 2))),
    # Fields may be separated by tabs as well as spaces.
    ("edgelist", "3\t2\n0\t1\n2 \t1\n", 3, ((0, 1), (1, 2))),
    ("dimacs", "p\tedge 3\t2\ne\t1\t2\ne 2\t 3\n", 3, ((0, 1), (1, 2))),
    # An underscore or a non-ASCII character outside the numbers, in a
    # comment or as whitespace, leaves them valid.
    ("edgelist", "# n_1 \u00e9\n3 2\n0\u00a01\n2\u20031\n", 3, ((0, 1), (1, 2))),
    ("dimacs", "c n_1 \u00e9\np edge 3 2\ne 1\u00a02\ne\u20032 3\n", 3, ((0, 1), (1, 2))),
]

# Partition files for the 4-cycle, whose edges are (0,1) (0,3) (1,2) (2,3).
PARTITION_ERRORS = [
    ("", "missing partition header"),
    ("classes\n", "malformed partition header: 'classes'"),
    ("class 2\n0 1 1\n1 2 2\n2 3 1\n0 3 2\n", "malformed partition header: 'class 2'"),
    ("classes x\n", "malformed partition header: 'classes x'"),
    ("classes 2 3\n", "malformed partition header: 'classes 2 3'"),
    ("classes \u0662\n", "malformed partition header: 'classes \u0662'"),
    ("classes 2\n0 1 1\n", "partition has 1 edge lines, graph has 4"),
    ("classes 2\n0 1 1\n1 2 2\n2 3 1\n0 3\n", "malformed partition line: '0 3'"),
    ("classes 2\n0 1 1\n1 2 2\n2 3 1\n0 3 0_2\n", "malformed partition line: '0 3 0_2'"),
    ("classes 2\n0 1 1\n1 2 2\n2 3 1\n0 2 2\n", "(0, 2) is not an edge of the graph"),
    ("classes 2\n0 1 1\n1 2 2\n2 3 1\n2 0 2\n", "(2, 0) is not an edge of the graph"),
    ("classes 2\n0 1 1\n1 2 2\n2 3 1\n0 9 2\n", "(0, 9) is not an edge of the graph"),
    ("classes 2\n0 1 1\n1 2 2\n2 3 1\n-1 0 2\n", "(-1, 0) is not an edge of the graph"),
    ("classes 2\n0 1 1\n1 2 2\n2 3 1\n1 0 2\n", "edge (1, 0) colored twice"),
    ("classes 2\n0 1 1\n1 2 2\n2 3 3\n0 3 2\n", "color 3 out of range 1..2"),
    ("classes 0\n0 1 1\n1 2 2\n2 3 1\n0 3 2\n", "color 1 out of range 1..0"),
    ("classes 3\n0 1 1\n1 2 2\n2 3 1\n0 3 2\n", "every color class must be nonempty"),
    ("classes -1\n0 1 1\n1 2 2\n2 3 1\n0 3 2\n", "class count must be nonnegative"),
]

PARTITIONS_ACCEPTED = [
    "classes 2\n0 1 1\n0 3 2\n1 2 2\n2 3 1\n",
    # A reversed pair names the same edge.
    "classes 2\n1 0 1\n1 2 2\n2 3 1\n0 3 2\n",
    "classes 2\r\n0 1 1\r\n1 2 2\r\n2 3 1\r\n0 3 +2\r\n",
    "classes 02\n00 1 1\n0 03 2\n1 2 +2\n2 3 01\n",
    "# n_1 \u00e9\nclasses 2\n0\u00a01 1\n0 3 2\n1 2\u20032\n2 3 1\n",
]

MATCHING_ERRORS = [
    ("0-2\n", "(0, 2) is not an edge of the graph"),
    ("2-0\n", "(2, 0) is not an edge of the graph"),
    ("0-9\n", "(0, 9) is not an edge of the graph"),
    ("0-1-2\n", "malformed matching line: '0-1-2'"),
    ("-1-0\n", "malformed matching line: '-1-0'"),
    ("a-b\n", "malformed matching line: 'a-b'"),
    ("0-1_0\n", "malformed matching line: '0-1_0'"),
    ("\u0660-1\n", "malformed matching line: '\u0660-1'"),
]

LABEL_ERRORS = [
    ("0 : {1}\n1_0 : {2}\n", "malformed assignment line: '1_0 : {2}'"),
    ("\u0660 : {1}\n", "malformed assignment line: '\u0660 : {1}'"),
    ("0 : {1,2_0}\n", "malformed label set: '{1,2_0}'"),
    ("0 : {\u0661}\n", "malformed label set: '{\u0661}'"),
]

GRAPH_ERRORS = [
    (3, ((1, 0),), "edge (1, 0) out of canonical range for n=3"),
    (3, ((1, 1),), "edge (1, 1) out of canonical range for n=3"),
    (3, ((0, 3),), "edge (0, 3) out of canonical range for n=3"),
    (3, ((-1, 1),), "edge (-1, 1) out of canonical range for n=3"),
    (2, ((0, 1), (0, 5)), "edge (0, 5) out of canonical range for n=2"),
    (3, ((1, 2), (0, 1)), "edge list is not strictly increasing"),
    (3, ((0, 2), (0, 1), (5, 6)), "edge list is not strictly increasing"),
    (3, ((0, 1), (0, 1)), "edge list is not strictly increasing"),
    (-1, (), "vertex count must be nonnegative"),
]

BUILD_GRAPH_ERRORS = [
    (3, [(1, 1)], "self-loop at vertex 1"),
    (3, [(0, 3)], "edge (0, 3) has an endpoint outside 0..2"),
    (3, [(3, 0)], "edge (3, 0) has an endpoint outside 0..2"),
    (3, [(-1, 0)], "edge (-1, 0) has an endpoint outside 0..2"),
    (3, [(0, -1)], "edge (0, -1) has an endpoint outside 0..2"),
    (3, [(0, 5), (1, 1)], "edge (0, 5) has an endpoint outside 0..2"),
    (3, [(1, 1), (0, 5)], "self-loop at vertex 1"),
    (-1, [], "vertex count must be nonnegative"),
]


LEFTOVER_ERRORS = [
    # K5 on the singletons of {1..5}: every edge leaves three elements.
    kneser(5, 1),
    # One edge whose labels meet cover all of {1, 2, 3}: none is left.
    LabeledGraph(build_graph(2, [(0, 1)]), SubsetLabels(([[1, 2], [2, 3]],)), 3),
]


def _raises(exc_type, message, call, *args):
    with pytest.raises(exc_type) as info:
        call(*args)
    assert type(info.value) is exc_type
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", EDGELIST_ERRORS)
def test_edgelist_error_text(text, message):
    _raises(FormatError, message, parse_graph, text, "edgelist")


@pytest.mark.parametrize("text,message", DIMACS_ERRORS)
def test_dimacs_error_text(text, message):
    _raises(FormatError, message, parse_graph, text, "dimacs")


@pytest.mark.parametrize("fmt,text,n,edges", GRAPHS_ACCEPTED)
def test_graph_files_accepted(fmt, text, n, edges):
    assert parse_graph(text, fmt) == Graph(n, edges)


@pytest.mark.parametrize("text,message", PARTITION_ERRORS)
def test_partition_error_text(text, message):
    _raises(FormatError, message, parse_partition, text, cycle(4))


@pytest.mark.parametrize("text", PARTITIONS_ACCEPTED)
def test_partition_files_accepted(text):
    assert parse_partition(text, cycle(4)).color_of == (1, 2, 2, 1)


@pytest.mark.parametrize("text,message", MATCHING_ERRORS)
def test_matching_error_text(text, message):
    _raises(FormatError, message, parse_matching, text, cycle(4))


def test_matching_accepts_either_orientation():
    assert parse_matching("1-0\n3-2\n0-1\n", cycle(4)) == frozenset({0, 3})


@pytest.mark.parametrize("text,message", LABEL_ERRORS)
def test_label_error_text(text, message):
    _raises(FormatError, message, parse_labels, text)


def test_labels_accept_sign_and_leading_zeros():
    assert parse_labels("00 : {+1, 02}\n+1 : {}\n") == (frozenset({1, 2}), frozenset())


@pytest.mark.parametrize("n,edges,message", GRAPH_ERRORS)
def test_graph_constructor_error_text(n, edges, message):
    _raises(ValueError, message, Graph, n, edges)


@pytest.mark.parametrize("n,pairs,message", BUILD_GRAPH_ERRORS)
def test_build_graph_error_text(n, pairs, message):
    _raises(ValueError, message, build_graph, n, pairs)


@pytest.mark.parametrize("lg", LEFTOVER_ERRORS, ids=["three-left", "none-left"])
def test_leftover_coloring_error_text(lg):
    message = "edge labels do not leave exactly one element uncovered"
    _raises(ValueError, message, _leftover_coloring, lg)


@pytest.mark.parametrize(
    "fmt,text,message",
    [
        ("edgelist", "3 2\n0 1\n1 0\n", "repeated edge in line '1 0'"),
        ("dimacs", "p edge 2 1\ne 1 3\n", "vertex out of range in line 'e 1 3'"),
    ],
)
def test_cli_reports_input_errors_with_exit_two(tmp_path, capsys, fmt, text, message):
    path = tmp_path / "bad.g"
    path.write_text(text)
    code = run(["dim", "find", "--format", fmt, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"
