"""Bit-exact text formats for graphs, matchings, partitions, and labels.

Graph formats:
  edge-list  -- first line "n m", then m lines "u v" with 0-based
                endpoints; lines starting with '#' are comments.  An
                edge listed twice, in either orientation, is an error.
  dimacs     -- "p edge n m" then m lines "e u v" with 1-based
                endpoints; 'c' lines are comments.  An edge listed
                twice is merged, since files from other tools may do so.

Both graph formats are rows of one table of constants (comment prefix,
header name and leading tokens, edge-line tag, first vertex number,
and whether a repeated edge is merged).  Both are read from their rows
by one reader, :func:`parse_graph`, and written from their rows by one
writer, :func:`_write_graph`.

The graph and partition writers format numbers through one table of
decimal strings built for the call (:func:`_names`), so a vertex
number or color is formatted once however many lines it occurs on,
and an edge line is one f-string of looked-up strings.  The table
holds only the numbers written, so the gain grows with edges per
vertex, and a vertex with no edge costs one empty slot and the test of
its degree.  KG(13,6)'s edge list is written in 0.68 ms, its DIMACS
in 0.68 and its partition in 0.87, and a 100 000-vertex graph of one
edge in 2.2 ms, a tenth of the time that graph takes to build
(min of 15 x 20 calls, and of 5 x 3 for the sparse graph, 2-vCPU Xeon,
CPython 3.11).  A matching names each vertex at most once, and the
labels sidecar is not timed, so both format each number in place.

An integer, in every format, is ASCII decimal digits after an optional
sign, leading zeros allowed: "+7" and "07" read as 7, while the
digit-group underscores and non-ASCII digits that int() also reads make
the line malformed.

Each layer checks what it alone can name.  The reader checks lines:
field counts, integers, self-loops, endpoint range and repeats, each
error naming the line or vertex at fault, and hands the sorted
canonical pairs straight to :class:`~dimtools.graph.Graph`, whose
constructor checks canonical form in the pass that builds the
adjacency.  The partition header goes through the graph header's
reader, and the matching and partition parsers resolve each pair
with :meth:`Graph.edge_id <dimtools.graph.Graph.edge_id>`, which
builds no index.

Serialization always emits canonical edge order, '\\n' line endings,
and no trailing whitespace, so parse(serialize(g)) == g and
serialize(parse(text)) is the canonical form of text.

:func:`parse_graph` and :func:`parse_partition` first try a bulk path
for canonical text, which is every file dimtools writes: one split, a
header check before anything is built, one lookup per vertex token (or,
in a partition, per color token) in the writer's numbers read
backwards, a table with no more entries than the text has tokens, then
the result, returned only if the format's writer reproduces the text
byte for byte.  A token no writer emits ("07", "+7", a number out of
range) misses the table and sends the text to the line reader before a
graph is built, and so does a vertex numbered above the table, which
only a graph with isolated vertices can name.  By the round-trip law
the line reader would read a certified text as the same value, so the
bulk path changes no answer; every other valid file (comments, CRLF,
tabs, repeated or unsorted edges) and every error goes through the line
reader as before.  On KG(13,6) the edge list reads in 4.7 ms against
7.5 for the line reader, the DIMACS file in 4.7 against 7.1 and the
partition in 1.9 against 5.6; a CRLF edge list, turned away after
the split, in 8.4 against 7.8, and an unsorted one, turned away
by the Graph constructor, in 10.6 against 8.1 (medians of 60
interleaved calls, 2-vCPU Xeon, CPython 3.11).

Matchings serialize as one "u-v" pair per line in canonical edge
order.  A certificate prefixes that with a sha256 digest of the
graph's canonical edge-list serialization.  Partition files carry a
"classes k" header and one "u v c" line per edge; subset-label
sidecars use "v : {a,b,...}" lines with ascending labels.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, NamedTuple, Optional

from .families import SubsetLabels
from .graph import Graph
from .partition import DimPartition
from .solver import EdgeSet

# Largest vertex count a graph file may declare.  A Graph allocates
# storage for every vertex, so the header alone would otherwise decide
# how much memory parsing takes.  KG(17,8), with 24 310 vertices, fits.
MAX_VERTICES = 100_000


class FormatError(ValueError):
    """Malformed input for one of the text formats."""


def _significant_lines(text: str, comment: str) -> list[str]:
    return [
        line
        for raw in text.splitlines()
        if (line := raw.strip()) and not line.startswith(comment)
    ]


def _header(lines: list[str], name: str, lead: list[str], count: int) -> list[int]:
    """The ``count`` integers after the tokens ``lead`` on the first of
    ``lines``, which errors call ``name``."""
    if not lines:
        raise FormatError(f"missing {name}")
    fields = lines[0].split()
    if fields[: len(lead)] == lead and len(fields) == len(lead) + count:
        try:
            return [_int(field) for field in fields[len(lead) :]]
        except ValueError:
            pass
    raise FormatError(f"malformed {name}: {lines[0]!r}")


def _plain(text: str) -> bool:
    """Whether ``text`` holds no digit-group underscore and no non-ASCII
    digit: int() reads both, and no format allows either."""
    return text.isascii() and "_" not in text


def _int(token: str) -> int:
    """``token`` as an integer: ASCII digits with an optional sign, the
    integers every format allows; else ValueError, which each reader
    reports as its malformed line."""
    if _plain(token):
        return int(token)
    raise ValueError(f"not an ASCII decimal integer: {token!r}")


def _names(numbers: Iterable[int], size: int, first: int = 0) -> list[str]:
    """A table of ``size`` slots in which slot v holds the decimal
    string of v + first for each v in ``numbers`` and the others hold
    "": built for one call, so that a writer formats each number it
    writes once however many lines it occurs on, and no other."""
    names = [""] * size
    for v in numbers:
        names[v] = str(v + first)
    return names


def _ends(g: Graph) -> Iterable[int]:
    """The vertices of g that have an edge: the only ones written."""
    return itertools.compress(range(g.n), g.degrees)


class _GraphFormat(NamedTuple):
    comment: str  # prefix of a comment line
    header: str  # what errors call the header line
    lead: list[str]  # the header's tokens before "n m"
    tag: str  # an edge line's token before "u v", or "" for none
    base: int  # number of the first vertex
    merge: bool  # a repeated edge is merged, else refused


# Files from other tools may list a DIMACS edge twice; it is kept once.
_GRAPH_FORMATS = {
    "edgelist": _GraphFormat("#", "header line", [], "", 0, False),
    "dimacs": _GraphFormat("c", "problem line", ["p", "edge"], "e", 1, True),
}
GRAPH_FORMATS = tuple(_GRAPH_FORMATS)


def _graph_format(fmt: str) -> _GraphFormat:
    if fmt not in _GRAPH_FORMATS:
        raise ValueError(f"unknown graph format {fmt!r}")
    return _GRAPH_FORMATS[fmt]


def parse_graph(text: str, fmt: str = "edgelist") -> Graph:
    form = _graph_format(fmt)
    g = _bulk_graph(text, form)
    return _read_graph(text, form) if g is None else g


def _writer_tokens(text: str) -> Optional[list[str]]:
    """The tokens of ``text`` if one space or newline follows each, as in
    every writer's output, else None.  The counts cost about 2% of a
    bulk read and turn away CRLF, tabs, blank lines and doubled spaces
    before they pay for a graph and its re-serialization."""
    tokens = text.split()
    whitespace = len(text) - len("".join(tokens))
    if whitespace == len(tokens) == text.count(" ") + text.count("\n"):
        return tokens
    return None


def _bulk_graph(text: str, form: _GraphFormat) -> Optional[Graph]:
    """The graph that ``form`` writes as exactly ``text``, else None.

    One split and one table lookup per edge token stand in for the line
    reader's pass over lines.  The header is checked before anything is
    built, and the table is never larger than the text, so a hostile
    count costs nothing; the writer certifies the result: by the
    round-trip law the line reader reads a writer's output as the graph
    written, so the two cannot differ.
    """
    tokens = _writer_tokens(text)
    if tokens is None:
        return None
    head = len(form.lead) + 2  # header tokens
    step = 3 if form.tag else 2  # tokens per edge line
    try:
        n, m = int(tokens[head - 2]), int(tokens[head - 1])
    except (IndexError, ValueError):
        return None
    if not 0 <= n <= MAX_VERTICES or len(tokens) != head + step * m:
        return None
    # The writer's numbers read backwards: each vertex's string, numbered
    # from form.base, to its 0-based id, for no more vertices than there
    # are tokens.  A token no writer emits for an n-vertex graph ("07",
    # "+7", out of range) misses, and so does a vertex numbered above the
    # table, which only a graph with isolated vertices can name; either
    # sends the text to the line reader.
    size = min(n, len(tokens))
    vertex = dict(zip(map(str, range(form.base, form.base + size)), range(size)))
    first = head + step - 2  # the first edge's u
    try:
        us = list(map(vertex.__getitem__, tokens[first::step]))
        vs = list(map(vertex.__getitem__, tokens[first + 1 :: step]))
        # The token strings are the largest part of a bulk read; they go
        # before the graph and its re-serialization are built.
        del tokens
        g = Graph(n, tuple(zip(us, vs)))
    except (KeyError, ValueError):
        return None
    return g if _write_graph(g, form) == text else None


def _read_graph(text: str, form: _GraphFormat) -> Graph:
    """The line reader: any valid file, and every error, named."""
    comment, header, lead, tag, base, merge = form
    lines = _significant_lines(text, comment)
    n, m = _header(lines, header, lead, 2)
    if n < 0 or m < 0:
        raise FormatError("vertex and edge counts must be nonnegative")
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if len(lines) - 1 != m:
        raise FormatError(f"declared {m} edges but found {len(lines) - 1} edge lines")
    top = n + base
    # split() finds no tag on an edge-list line; the pad supplies the
    # empty one, so that every edge line unpacks as tag, u, v.
    pad = [""]
    # The list keeps file order, which a serialized graph already has
    # sorted; the set finds repeats.
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    # One test of the whole text clears the integers of every line of a
    # plain file; otherwise each line's are tested, as _int does.
    plain = _plain(text)
    for line in itertools.islice(lines, 1, None):
        # A wrong field count fails the unpacking with ValueError too.
        try:
            first, a, b = line.split() if tag else pad + line.split()
            u, v = int(a), int(b)
        except ValueError:
            raise FormatError(f"malformed edge line: {line!r}") from None
        if first != tag or not (plain or _plain(a + b)):
            raise FormatError(f"malformed edge line: {line!r}")
        if u >= v:
            if u == v:
                raise FormatError(f"self-loop at vertex {u}")
            u, v = v, u
        if u < base or v >= top:
            raise FormatError(f"vertex out of range in line {line!r}")
        edge = (u - base, v - base)
        if edge in seen:
            if merge:
                continue
            raise FormatError(f"repeated edge in line {line!r}")
        seen.add(edge)
        edges.append(edge)
    edges.sort()
    return Graph(n, tuple(edges))


def _write_graph(g: Graph, form: _GraphFormat) -> str:
    """g in the format of row ``form``: the header, then one edge per
    line, numbered from the row's base.  The row's tag rides in the line
    separator, which precedes every edge line and no header."""
    names = _names(_ends(g), g.n, form.base)
    lines = [" ".join([*form.lead, str(g.n), str(g.m)])]
    lines.extend([f"{names[u]} {names[v]}" for u, v in g.edges])
    return (f"\n{form.tag} " if form.tag else "\n").join(lines) + "\n"


def serialize_graph(g: Graph, fmt: str = "edgelist") -> str:
    return _write_graph(g, _graph_format(fmt))


def graph_digest(g: Graph) -> str:
    """sha256 of the canonical edge-list serialization."""
    text = _write_graph(g, _GRAPH_FORMATS["edgelist"])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def serialize_matching(g: Graph, edge_ids: Iterable[int]) -> str:
    pairs = sorted(g.edges[e] for e in edge_ids)
    return "".join(f"{u}-{v}\n" for u, v in pairs)


def _edge_id(g: Graph, u: int, v: int) -> int:
    """The id of the edge uv of g, in either orientation; a pair that is
    not an edge is named as written."""
    try:
        return g.edge_id(u, v)
    except KeyError:
        raise FormatError(f"({u}, {v}) is not an edge of the graph") from None


def parse_matching(text: str, g: Graph) -> EdgeSet:
    ids = set()
    for line in _significant_lines(text, "#"):
        try:
            u, v = map(_int, line.split("-"))
        except ValueError:
            raise FormatError(f"malformed matching line: {line!r}") from None
        ids.add(_edge_id(g, u, v))
    return frozenset(ids)


def serialize_certificate(g: Graph, edge_ids: Iterable[int]) -> str:
    """A matching plus a digest binding it to its graph."""
    return f"dim-certificate sha256 {graph_digest(g)}\n" + serialize_matching(
        g, edge_ids
    )


def parse_certificate(text: str, g: Graph) -> tuple[str, EdgeSet]:
    """Returns (digest, edge ids), once the digest is checked against g."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty certificate")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "dim-certificate" or header[1] != "sha256":
        raise FormatError(f"malformed certificate header: {lines[0]!r}")
    digest = header[2]
    if graph_digest(g) != digest:
        raise FormatError("certificate digest does not match the graph")
    return digest, parse_matching("\n".join(lines[1:]), g)


def serialize_partition(g: Graph, p: DimPartition) -> str:
    if len(p.color_of) != g.m:
        raise ValueError("partition does not color this graph")
    return _write_partition(g, p)


def _write_partition(g: Graph, p: DimPartition) -> str:
    k = p.num_classes  # colors are 1..k
    names = _names(itertools.chain(_ends(g), range(1, k + 1)), max(g.n, k + 1))
    lines = [f"classes {k}"]
    lines.extend(
        [f"{names[u]} {names[v]} {names[c]}" for (u, v), c in zip(g.edges, p.color_of)]
    )
    return "\n".join(lines) + "\n"


def parse_partition(text: str, g: Graph) -> DimPartition:
    p = _bulk_partition(text, g)
    return _read_partition(text, g) if p is None else p


def _bulk_partition(text: str, g: Graph) -> Optional[DimPartition]:
    """The partition that the writer writes for ``g`` as exactly
    ``text``, else None; certified as in :func:`_bulk_graph`.  Only the
    colors are looked up: the certificate checks each line's edge."""
    tokens = _writer_tokens(text)
    if tokens is None or len(tokens) != 2 + 3 * g.m:
        return None
    try:
        k = int(tokens[1])
    except ValueError:
        return None
    # More classes than edges leaves one empty, which DimPartition
    # refuses, so the table of colors is never larger than the graph.
    if not 0 <= k <= g.m:
        return None
    color = dict(zip(map(str, range(1, k + 1)), range(1, k + 1)))
    try:
        p = DimPartition(k, tuple(map(color.__getitem__, tokens[4::3])))
    except (KeyError, ValueError):
        return None
    del tokens  # before the re-serialization, as in _bulk_graph
    return p if _write_partition(g, p) == text else None


def _read_partition(text: str, g: Graph) -> DimPartition:
    """The line reader: any valid file, and every error, named."""
    lines = _significant_lines(text, "#")
    (k,) = _header(lines, "partition header", ["classes"], 1)
    if len(lines) - 1 != g.m:
        raise FormatError(f"partition has {len(lines) - 1} edge lines, graph has {g.m}")
    # As many lines as edges and none repeated: every edge gets a color.
    colors: list[Optional[int]] = [None] * g.m
    plain = _plain(text)  # as in _read_graph
    for line in itertools.islice(lines, 1, None):
        try:
            a, b, c = line.split()
            u, v, color = int(a), int(b), int(c)
        except ValueError:
            raise FormatError(f"malformed partition line: {line!r}") from None
        if not (plain or _plain(a + b + c)):
            raise FormatError(f"malformed partition line: {line!r}")
        eid = _edge_id(g, u, v)
        if colors[eid] is not None:
            raise FormatError(f"edge ({u}, {v}) colored twice")
        colors[eid] = color
    try:
        return DimPartition(k, tuple(colors))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _parse_label_set(token: str) -> frozenset[int]:
    token = token.strip()
    if not (token.startswith("{") and token.endswith("}")):
        raise FormatError(f"malformed label set: {token!r}")
    body = token[1:-1].strip()
    if not body:
        return frozenset()
    try:
        return frozenset(_int(part) for part in body.split(","))
    except ValueError:
        raise FormatError(f"malformed label set: {token!r}") from None


def serialize_labels(labels: Iterable[frozenset[int]]) -> str:
    """One "v : {a,b,...}" line per label, elements ascending.  A
    :class:`~dimtools.families.SubsetLabels` view is written from the
    rows of its arrays, which are already ascending, so no label is
    built or sorted."""
    if isinstance(labels, SubsetLabels):
        rows = itertools.chain.from_iterable(part.tolist() for part in labels.parts)
    else:
        rows = map(sorted, labels)
    return "".join(
        f"{v} : {{{','.join(map(str, row))}}}\n" for v, row in enumerate(rows)
    )


def parse_labels(text: str) -> tuple[frozenset[int], ...]:
    """Parse "v : {a,b,...}" lines, one per vertex 0..n-1, into each
    vertex's label set."""
    entries: dict[int, frozenset[int]] = {}
    for line in _significant_lines(text, "#"):
        head, sep, tail = line.partition(":")
        if not sep:
            raise FormatError(f"malformed assignment line: {line!r}")
        try:
            v = _int(head.strip())
        except ValueError:
            raise FormatError(f"malformed assignment line: {line!r}") from None
        if v in entries:
            raise FormatError(f"vertex {v} listed twice")
        entries[v] = _parse_label_set(tail)
    if sorted(entries) != list(range(len(entries))):
        raise FormatError("assignment lines must cover vertices 0..n-1")
    return tuple(entries[v] for v in range(len(entries)))
