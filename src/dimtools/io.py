"""Bit-exact text formats for graphs, matchings, partitions, and lists.

Graph formats:
  edge-list  -- first line "n m", then m lines "u v" with 0-based
                endpoints; lines starting with '#' are comments.
  dimacs     -- "p edge n m" then m lines "e u v" with 1-based
                endpoints; 'c' lines are comments.

Serialization always emits canonical edge order, '\\n' line endings,
and no trailing whitespace, so parse(serialize(g)) == g and
serialize(parse(text)) is the canonical form of text.

Matchings serialize as one "u-v" pair per line in canonical edge
order.  A certificate prefixes that with a sha256 digest of the
graph's canonical edge-list serialization.  Partition files carry a
"classes k" header and one "u v c" line per edge; list assignments and
label sidecars use "v : {a,b,...}" lines with ascending labels.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

from .graph import Graph, build_graph
from .partition import DimPartition, ListAssignment
from .solver import EdgeSet

GRAPH_FORMATS = ("edgelist", "dimacs")

# Largest vertex count a graph file may declare.  A Graph allocates
# storage for every vertex, so the header alone would otherwise decide
# how much memory parsing takes.  KG(17,8), with 24 310 vertices, fits.
MAX_VERTICES = 100_000


class FormatError(ValueError):
    """Malformed input for one of the text formats."""


def _significant_lines(text: str, comment_prefixes: tuple[str, ...]) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or any(line.startswith(p) for p in comment_prefixes):
            continue
        lines.append(line)
    return lines


def _check_counts(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise FormatError("vertex and edge counts must be nonnegative")
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def _parse_int_fields(line: str, count: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise FormatError(f"malformed {what} line: {line!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise FormatError(f"malformed {what} line: {line!r}") from None


def parse_edgelist(text: str) -> Graph:
    lines = _significant_lines(text, ("#",))
    if not lines:
        raise FormatError("missing header line")
    n, m = _parse_int_fields(lines[0], 2, "header")
    _check_counts(n, m)
    data = lines[1:]
    if len(data) != m:
        raise FormatError(f"declared {m} edges but found {len(data)} edge lines")
    pairs = []
    for line in data:
        u, v = _parse_int_fields(line, 2, "edge")
        if u == v:
            raise FormatError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"vertex out of range in line {line!r}")
        pairs.append((u, v))
    return build_graph(n, pairs)


def serialize_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Graph:
    lines = _significant_lines(text, ("c",))
    if not lines:
        raise FormatError("missing problem line")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "p" or header[1] != "edge":
        raise FormatError(f"malformed problem line: {lines[0]!r}")
    try:
        n, m = int(header[2]), int(header[3])
    except ValueError:
        raise FormatError(f"malformed problem line: {lines[0]!r}") from None
    _check_counts(n, m)
    data = lines[1:]
    if len(data) != m:
        raise FormatError(f"declared {m} edges but found {len(data)} edge lines")
    pairs = []
    for line in data:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise FormatError(f"malformed edge line: {line!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(f"malformed edge line: {line!r}") from None
        if u == v:
            raise FormatError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"vertex out of range in line {line!r}")
        pairs.append((u - 1, v - 1))
    return build_graph(n, pairs)


def serialize_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str, fmt: str = "edgelist") -> Graph:
    if fmt == "edgelist":
        return parse_edgelist(text)
    if fmt == "dimacs":
        return parse_dimacs(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def serialize_graph(g: Graph, fmt: str = "edgelist") -> str:
    if fmt == "edgelist":
        return serialize_edgelist(g)
    if fmt == "dimacs":
        return serialize_dimacs(g)
    raise ValueError(f"unknown graph format {fmt!r}")


def graph_digest(g: Graph) -> str:
    """sha256 of the canonical edge-list serialization."""
    return hashlib.sha256(serialize_edgelist(g).encode("utf-8")).hexdigest()


def serialize_matching(g: Graph, edge_ids: Iterable[int]) -> str:
    pairs = sorted(g.edges[e] for e in edge_ids)
    return "".join(f"{u}-{v}\n" for u, v in pairs)


def parse_matching(text: str, g: Graph) -> EdgeSet:
    ids = set()
    for line in _significant_lines(text, ("#",)):
        parts = line.split("-")
        if len(parts) != 2:
            raise FormatError(f"malformed matching line: {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"malformed matching line: {line!r}") from None
        try:
            ids.add(g.edge_id(u, v))
        except KeyError:
            raise FormatError(f"({u}, {v}) is not an edge of the graph") from None
    return frozenset(ids)


def serialize_certificate(g: Graph, edge_ids: Iterable[int]) -> str:
    """A matching plus a digest binding it to its graph."""
    return f"dim-certificate sha256 {graph_digest(g)}\n" + serialize_matching(
        g, edge_ids
    )


def parse_certificate(text: str, g: Optional[Graph] = None) -> tuple[str, EdgeSet]:
    """Returns (digest, edge ids); verifies the digest when g is given."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty certificate")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "dim-certificate" or header[1] != "sha256":
        raise FormatError(f"malformed certificate header: {lines[0]!r}")
    digest = header[2]
    if g is None:
        raise FormatError("certificate edges cannot be resolved without a graph")
    if graph_digest(g) != digest:
        raise FormatError("certificate digest does not match the graph")
    return digest, parse_matching("\n".join(lines[1:]), g)


def serialize_partition(g: Graph, p: DimPartition) -> str:
    if len(p.color_of) != g.m:
        raise ValueError("partition does not color this graph")
    lines = [f"classes {p.num_classes}"]
    lines.extend(
        f"{u} {v} {p.color_of[eid]}" for eid, (u, v) in enumerate(g.edges)
    )
    return "\n".join(lines) + "\n"


def parse_partition(text: str, g: Graph) -> DimPartition:
    lines = _significant_lines(text, ("#",))
    if not lines:
        raise FormatError("missing partition header")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "classes":
        raise FormatError(f"malformed partition header: {lines[0]!r}")
    try:
        k = int(header[1])
    except ValueError:
        raise FormatError(f"malformed partition header: {lines[0]!r}") from None
    data = lines[1:]
    if len(data) != g.m:
        raise FormatError(f"partition has {len(data)} edge lines, graph has {g.m}")
    colors = [0] * g.m
    seen = set()
    for line in data:
        u, v, c = _parse_int_fields(line, 3, "partition")
        try:
            eid = g.edge_id(u, v)
        except KeyError:
            raise FormatError(f"({u}, {v}) is not an edge of the graph") from None
        if eid in seen:
            raise FormatError(f"edge ({u}, {v}) colored twice")
        seen.add(eid)
        colors[eid] = c
    try:
        return DimPartition(k, tuple(colors))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _format_label_set(labels: frozenset[int]) -> str:
    return "{" + ",".join(str(a) for a in sorted(labels)) + "}"


def _parse_label_set(token: str) -> frozenset[int]:
    token = token.strip()
    if not (token.startswith("{") and token.endswith("}")):
        raise FormatError(f"malformed label set: {token!r}")
    body = token[1:-1].strip()
    if not body:
        return frozenset()
    try:
        return frozenset(int(part) for part in body.split(","))
    except ValueError:
        raise FormatError(f"malformed label set: {token!r}") from None


def serialize_list_assignment(assignment: ListAssignment) -> str:
    return serialize_labels(assignment.lists)


def parse_list_assignment(text: str, num_labels: Optional[int] = None) -> ListAssignment:
    """Parse "v : {a,b,...}" lines.

    The label universe size is taken from ``num_labels`` when given and
    otherwise inferred as the largest label present.
    """
    entries: dict[int, frozenset[int]] = {}
    for line in _significant_lines(text, ("#",)):
        head, sep, tail = line.partition(":")
        if not sep:
            raise FormatError(f"malformed assignment line: {line!r}")
        try:
            v = int(head.strip())
        except ValueError:
            raise FormatError(f"malformed assignment line: {line!r}") from None
        if v in entries:
            raise FormatError(f"vertex {v} listed twice")
        entries[v] = _parse_label_set(tail)
    if sorted(entries) != list(range(len(entries))):
        raise FormatError("assignment lines must cover vertices 0..n-1")
    lists = tuple(entries[v] for v in range(len(entries)))
    if num_labels is None:
        num_labels = max((max(lst) for lst in lists if lst), default=0)
    return ListAssignment(num_labels, lists)


def serialize_labels(labels: Iterable[frozenset[int]]) -> str:
    return "".join(
        f"{v} : {_format_label_set(lab)}\n" for v, lab in enumerate(labels)
    )


def parse_labels(text: str) -> tuple[frozenset[int], ...]:
    assignment = parse_list_assignment(text)
    return assignment.lists
