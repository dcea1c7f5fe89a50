"""Text format round trips and error handling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dimtools.io
from dimtools.checks import full_report
from dimtools.corpus import connected_graphs
from dimtools.families import (
    SubsetLabels,
    bg_dim_partition,
    bipartite_kneser,
    complete,
    cycle,
    kneser,
    kneser_dim_partition,
    petersen,
    star,
)
from dimtools.graph import Graph, build_graph
from dimtools.io import (
    MAX_VERTICES,
    FormatError,
    graph_digest,
    parse_certificate,
    parse_graph,
    parse_labels,
    parse_matching,
    parse_partition,
    serialize_certificate,
    serialize_graph,
    serialize_labels,
    serialize_matching,
    serialize_partition,
)
from dimtools.partition import DimPartition, find_dim_partition
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


def _peak_bytes(fn, *args):
    """Peak traced allocation while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _refused(text, fmt, message):
    with pytest.raises(FormatError, match=message):
        parse_graph(text, fmt)


@pytest.mark.parametrize(
    "text,fmt,message",
    [
        ("1000000000 0\n", "edgelist", "exceeds the limit"),
        ("p edge 1000000000 0\n", "dimacs", "exceeds the limit"),
        ("5 1000000000\n0 1\n", "edgelist", "declared 1000000000 edges but found 1 edge lines"),
        ("100000 1\n0 1_0\n", "edgelist", "malformed edge line"),
        ("p edge 100000 1\ne 1 ١\n", "dimacs", "malformed edge line"),
    ],
)
def test_hostile_header_costs_no_memory(text, fmt, message):
    # Canonical-looking text: the header, or the one edge line after a
    # large vertex count, is refused before either reader allocates
    # anything the header declares.
    assert _peak_bytes(_refused, text, fmt, message) < 1_000_000


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

        def refused():
            with pytest.raises(FormatError, match="nonempty"):
                parse_partition("classes 1000000\n0 1 1\n", g)

        assert _peak_bytes(refused) < 1_000_000


# Reference writers, independent of the number tables in io.py: one
# f-string per line, each number formatted where it occurs.
def _reference_edgelist(g):
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _reference_dimacs(g):
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _reference_partition(g, p):
    lines = [f"classes {p.num_classes}"]
    lines.extend(f"{u} {v} {p.color_of[eid]}" for eid, (u, v) in enumerate(g.edges))
    return "\n".join(lines) + "\n"


def _reference_matching(g, edge_ids):
    return "".join(f"{u}-{v}\n" for u, v in sorted(g.edges[e] for e in edge_ids))


def _reference_labels(labels):
    return "".join(
        f"{v} : " + "{" + ",".join(str(a) for a in sorted(lab)) + "}\n"
        for v, lab in enumerate(labels)
    )


@st.composite
def _sparse_graphs(draw, min_n=0, min_m=0, max_m=12):
    """Up to 12 000 vertices, so numbers of 1 to 5 digits, and a few
    distinct random edges; the top vertex is nearly always isolated."""
    n = draw(st.integers(min_value=min_n, max_value=12_000))
    if n < 2:
        return Graph(n, ())
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = st.lists(pairs, min_size=min_m, max_size=max_m, unique_by=frozenset)
    return build_graph(n, draw(edges))


@st.composite
def _colored_graphs(draw):
    """A sparse graph with a total coloring of its edges in 10 to 25
    colors, each used at least once."""
    k = draw(st.integers(min_value=10, max_value=25))
    g = draw(_sparse_graphs(min_n=10, min_m=k, max_m=k + 10))
    extra = draw(st.lists(st.integers(1, k), min_size=g.m - k, max_size=g.m - k))
    colors = draw(st.permutations(list(range(1, k + 1)) + extra))
    return g, DimPartition(k, tuple(colors))


class TestWritersMatchReference:
    @settings(max_examples=30, deadline=None)
    @given(_sparse_graphs())
    @example(Graph(0, ()))
    @example(Graph(12_000, ()))  # m = 0 and every vertex isolated
    @example(build_graph(10_001, [(0, 9_999), (9, 10)]))  # isolated top vertex
    def test_graph_and_matching_writers(self, g):
        text = serialize_graph(g)
        assert text == _reference_edgelist(g)
        assert parse_graph(text) == g
        text = serialize_graph(g, "dimacs")
        assert text == _reference_dimacs(g)
        assert parse_graph(text, "dimacs") == g
        assert serialize_matching(g, range(g.m)) == _reference_matching(g, range(g.m))

    @settings(max_examples=20, deadline=None)
    @given(_colored_graphs())
    def test_partition_writer(self, case):
        g, p = case
        text = serialize_partition(g, p)
        assert text == _reference_partition(g, p)
        assert parse_partition(text, g) == p

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.frozensets(st.integers(-3, 12_000), max_size=5), max_size=12))
    def test_labels_writer(self, labels):
        text = serialize_labels(labels)
        assert text == _reference_labels(labels)
        assert parse_labels(text) == tuple(labels)


class TestListAssignmentFormat:
    def test_roundtrip(self):
        labels = (frozenset({1, 2}), frozenset(), frozenset({3}))
        text = serialize_labels(labels)
        assert text == "0 : {1,2}\n1 : {}\n2 : {3}\n"
        assert parse_labels(text) == labels

    def test_labels_sidecar_roundtrip(self):
        lg, _ = kneser_dim_partition(3)
        text = serialize_labels(lg.labels)
        assert parse_labels(text) == lg.labels

    @pytest.mark.parametrize(
        "make",
        [
            lambda: kneser(7, 3).labels,
            lambda: bipartite_kneser(2, 3).labels,
            lambda: SubsetLabels((np.zeros((2, 0), int), [[3, 12_000]], np.array([[-3, 2, 7]]))),
            lambda: SubsetLabels(()),
        ],
        ids=["KG(7,3)", "BG(2,3)", "hand-made", "empty"],
    )
    def test_view_is_written_from_its_rows_as_its_labels(self, make):
        # The writer formats a view's ascending rows, one block after
        # another, with no label built: the text of its labels.
        labels = make()
        assert serialize_labels(labels) == serialize_labels(tuple(labels))

    def test_vertices_must_be_dense(self):
        with pytest.raises(FormatError):
            parse_labels("0 : {1}\n2 : {2}\n")


# The two readers.  parse_graph and parse_partition read a writer's
# exact output in one bulk pass and everything else line by line; a
# trailing comment keeps a text off the bulk path (no writer emits
# one) and changes no outcome, so it gives the line reader's answer.
_COMMENT = {"edgelist": "#", "dimacs": "c", "partition": "#"}
# Field positions of an edge line's endpoints, and the first vertex number.
_ENDS = {"edgelist": (0, 1, 0), "dimacs": (1, 2, 1), "partition": (0, 1, 0)}


def _outcome(parse, text, *args):
    try:
        return parse(text, *args)
    except ValueError as exc:
        return type(exc), str(exc)


# Arabic-Indic digits, which int() reads too.
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _mutations(text, fmt, n):
    """Near misses of a canonical text, one edit each."""
    yield text[:-1]  # final newline dropped
    yield text.replace("\n", "\r\n")
    lines = text.splitlines(keepends=True)
    comment = f"{_COMMENT[fmt]} note\n"
    a, b, base = _ENDS[fmt]
    for i in sorted({0, 1, len(lines) // 2, len(lines) - 1} & set(range(len(lines)))):
        line, before, after = lines[i], lines[:i], lines[i + 1 :]
        fields = line.split()

        def with_fields(new, before=before, after=after):
            return "".join(before + [" ".join(new) + "\n"] + after)

        j = max(j for j, ch in enumerate(line) if ch.isdigit())
        digit = str((int(line[j]) + 1) % 10)
        yield "".join(before + [line[:j] + digit + line[j + 1 :]] + after)
        yield "".join(before + [line.replace(" ", "  ", 1)] + after)
        yield "".join(before + [line.replace(" ", "\t", 1)] + after)
        yield "".join(before + ["\n", line] + after)
        yield "".join(before + [comment, line] + after)
        yield "".join(before + [line, line] + after)  # duplicated
        yield "".join(before + after)  # deleted
        if after:
            yield "".join(before + [after[0], line] + after[1:])  # swapped
            yield "".join(before + [line[:-1] + " " + after[0]] + after[1:])  # joined
        for j, field in enumerate(fields):
            if field.isdigit():
                edits = ("0" + field, "+" + field, str(int(field) + 1), str(int(field) - 1))
            else:
                edits = (field + "x",)
            for new in edits:
                yield with_fields(fields[:j] + [new] + fields[j + 1 :])
        # Two spellings that int() reads as a number, on the line's last one.
        j, field = max((j, f) for j, f in enumerate(fields) if f.isdigit())
        underscored = (field[:-1] or "0") + "_" + field[-1]
        for new in (underscored, field.translate(_ARABIC_INDIC)):
            yield with_fields(fields[:j] + [new] + fields[j + 1 :])
        if i and len(fields) > b:
            yield with_fields(fields[:b] + [fields[a]] + fields[b + 1 :])  # self-loop
            yield with_fields(fields[:b] + [str(n + base)] + fields[b + 1 :])  # out of range


def _assert_readers_agree(parse, text, fmt, n, *args):
    suffix = f"\n{_COMMENT[fmt]} line reader\n"
    for variant in [text, *_mutations(text, fmt, n)]:
        assert _outcome(parse, variant, *args) == _outcome(parse, variant + suffix, *args), variant


_FAMILY_CASES = (
    [(f"KG({2 * r - 1},{r - 1})", lambda r=r: kneser_dim_partition(r)) for r in range(2, 7)]
    + [
        (f"BG({r - 1},{s - 1})", lambda r=r, s=s: bg_dim_partition(r, s))
        for r in range(2, 6)
        for s in range(2, 6)
    ]
    + [
        ("KG(6,2)", lambda: (kneser(6, 2), None)),
        ("petersen", lambda: (petersen(), None)),
        ("C7", lambda: (cycle(7), None)),
        ("K5", lambda: (complete(5), None)),
        ("star4", lambda: (star(4), None)),
    ]
)


@pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
@pytest.mark.parametrize("name,make", _FAMILY_CASES, ids=[name for name, _ in _FAMILY_CASES])
def test_readers_agree_on_family_files(name, make, fmt):
    made, part = make()
    g = getattr(made, "graph", made)
    text = serialize_graph(g, fmt)
    assert parse_graph(text, fmt) == g
    _assert_readers_agree(parse_graph, text, fmt, g.n, fmt)
    if part is not None and fmt == "edgelist":
        text = serialize_partition(g, part)
        assert parse_partition(text, g) == part
        _assert_readers_agree(parse_partition, text, "partition", g.n, g)


def _no_line_reader(*args):
    raise AssertionError("a written file went to the line reader")


@pytest.fixture
def bulk_only(monkeypatch):
    """Parsing with the line readers made to raise, so that a file the
    bulk path turns away fails the test.  A writer and a format row that
    disagreed would send every written file there, which only speed
    would show.  Graphs with an isolated vertex numbered above the token
    count are left out of its callers: the bulk path sends those to the
    line reader by design."""
    monkeypatch.setattr(dimtools.io, "_read_graph", _no_line_reader)
    monkeypatch.setattr(dimtools.io, "_read_partition", _no_line_reader)


@pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
def test_every_written_graph_takes_the_bulk_path(bulk_only, fmt):
    graphs = [getattr(made, "graph", made) for made, _ in (make() for _, make in _FAMILY_CASES)]
    graphs += [g for n in range(1, 6) for g in connected_graphs(n)]
    for g in graphs:
        assert parse_graph(serialize_graph(g, fmt), fmt) == g


def test_every_written_partition_takes_the_bulk_path(bulk_only):
    for _, make in _FAMILY_CASES:
        made, part = make()
        if part is not None:
            assert parse_partition(serialize_partition(made.graph, part), made.graph) == part


def test_line_readers_leave_no_edge_index_on_the_graph():
    # No lookup writes to a graph: not edge_id, not the line readers (a
    # CRLF file goes to them), not the partition search of a disconnected
    # graph, which maps each component's edges back by edge_id, and not
    # a report.
    lg, part = kneser_dim_partition(4)
    g = lg.graph
    before = dict(vars(g))
    assert g.edge_id(*reversed(g.edges[-1])) == g.m - 1
    text = serialize_partition(g, part).replace("\n", "\r\n")
    assert parse_partition(text, g) == part
    matching = serialize_matching(g, part.classes[0]).replace("\n", "\r\n")
    assert parse_matching(matching, g) == part.classes[0]
    assert vars(g) == before

    edges = petersen().edges
    two = build_graph(20, edges + tuple((u + 10, v + 10) for u, v in edges))
    before = dict(vars(two))
    assert find_dim_partition(two).num_classes == 5
    assert full_report(two).dim_exists
    assert vars(two) == before


@pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
@pytest.mark.parametrize("n", range(1, 6))
def test_readers_agree_on_small_corpus_graphs(n, fmt):
    for g in connected_graphs(n):
        text = serialize_graph(g, fmt)
        assert parse_graph(text, fmt) == g
        _assert_readers_agree(parse_graph, text, fmt, n, fmt)
