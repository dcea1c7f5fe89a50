"""Finding, enumerating, and certifying dominating induced matchings.

A dominating induced matching (DIM) of a graph G is an induced matching
that dominates every edge of G.  Equivalently, writing D_e for the set
of edges dominated by e (e itself plus every edge sharing an endpoint
with it), a set M of edges is a DIM exactly when the family
{D_e : e in M} partitions E(G), i.e. every edge is dominated by exactly
one member.

The search is an exact cover: :class:`_ExactCover` is the one engine,
and this module builds every instance it runs: :func:`_dim_search`
the DIM instance of a graph, and :func:`_cover_search` an instance
given as row lists, which the partition search in
:mod:`dimtools.partition` runs with a graph's DIMs as rows and its
edges as columns.  It branches on the uncovered
column with the fewest viable rows (Knuth's Algorithm X, arXiv
cs/0011047) and walks the tree with an explicit stack, so depth is
bounded by memory rather than by the interpreter's recursion limit.
It is one walk with two branching rules, chosen by the number of
columns, and each holds a node in its own form only:

* instances with fewer than ``_COUNTING_MIN_COLUMNS`` columns scan:
  the rows and the columns are int bitmasks, a node is its uncovered
  columns and its viable rows as two ints, and the branching column is
  found by a popcount of each uncovered column;
* larger ones count, as Dancing Links does (Knuth, arXiv cs/0011047),
  on its sparse row and column lists held as two padded index tables:
  a node is its live rows as a numpy bool array and every column's
  count of live rows as an int32 array, updated in a fixed number of
  numpy calls however many rows die.  Most nodes of the paper's
  families are forced moves, a column with one live row, and this rule
  takes the forced rows of a node in one batch with one recount, each
  row still one node, in the way that keeps the tree of the one-row
  walk.  It also applies least-count column dominance, a
  set-partitioning reduction (Balas and Padberg, "Set partitioning: a
  survey", SIAM Review 1976), at every node where no uncovered column
  has fewer than two live rows: if every live row of a column f with
  the least count covers a column g with more, g's other rows die,
  since the cover below takes one of f's rows.  Deletions cost no
  nodes.  On the paper's families it removes all backtracking:
  enumerating the DIMs of KG(11,5) takes 1 386 nodes, 11 DIMs of 126
  edges, instead of 1 889.

Without dominance both rules pick the same column at every node, so
the tree, the solutions and their order, and the node counts would not
depend on which one runs (see :class:`_ExactCover`).  Each rule builds
only its own form of the instance, from a callable.
In the DIM instance the rows are the sets D_e and, because D is
symmetric (f in D_e iff e in D_f), the columns are the same sets.
Every row tried is one search node, drawn from a :class:`_Nodes`
counter.  Every search has a node budget, ``DEFAULT_BUDGET`` unless the
caller gives one; a search that tries more rows than its budget raises
:class:`SearchBudgetExceeded` instead of answering.  Searches that
share one budget share one counter.
:func:`brute_force_dims` is the independent oracle that scans all 2^m
edge subsets against the definitional check instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .graph import EdgeId, Graph

EdgeSet = frozenset[EdgeId]


# The node budget of every search that is not given one: the solver's
# entry points, the partition search, a report's Budgets and the CLI.
DEFAULT_BUDGET = 10_000_000


class SearchBudgetExceeded(RuntimeError):
    """Raised when a search exceeds its node-expansion budget."""


def _over_budget(limit: int) -> SearchBudgetExceeded:
    return SearchBudgetExceeded(f"exceeded search budget of {limit} nodes")


class _Nodes:
    """A node budget and the nodes drawn on it so far; every search on
    one budget draws on the same counter."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0


class DimClass(enum.Enum):
    VALID_DIM = "valid-dim"
    NOT_MATCHING = "not-matching"
    NOT_INDUCED = "not-induced"
    NOT_DOMINATING = "not-dominating"


@dataclass(frozen=True)
class DimWitness:
    """Diagnostic classification of a candidate edge set.

    ``counterexample`` pins down the failure: the pair of members
    sharing a vertex (not-matching), the edge joining two members
    (not-induced), or the edge left undominated (not-dominating).  It
    is None exactly when the candidate is a valid DIM.
    """

    edges: EdgeSet
    classification: DimClass
    counterexample: Optional[EdgeId | tuple[EdgeId, EdgeId]] = None

    @property
    def is_valid(self) -> bool:
        return self.classification is DimClass.VALID_DIM


def dominated_set(g: Graph, e: EdgeId) -> EdgeSet:
    """Edges dominated by e: e itself plus all edges sharing an endpoint."""
    if not (0 <= e < g.m):
        raise ValueError(f"edge id {e} out of range")
    u, v = g.edges[e]
    return frozenset(g.incident[u]) | frozenset(g.incident[v])


def _domination_masks(g: Graph) -> list[int]:
    """Bitmask of D_e per edge (bit f set iff f is dominated by e).

    D_e for e = uv is the union of the incidence masks of u and v.
    """
    inc = []
    for ids in g.incident:
        mask = 0
        for e in ids:
            mask |= 1 << e
        inc.append(mask)
    return [inc[u] | inc[v] for u, v in g.edges]


def _padded(lists: Sequence[Sequence[int]], pad: int) -> np.ndarray:
    """The lists as the rows of an int array, each filled out with ``pad``
    to the length of the longest.

    ``zip_longest`` pads and transposes in C; numpy reads its columns in
    one pass and transposes them back, about twice as fast as assigning
    the rows one at a time.
    """
    width = max(map(len, lists), default=0)
    flat = np.fromiter(
        chain.from_iterable(zip_longest(*lists, fillvalue=pad)),
        dtype=np.int32,
        count=width * len(lists),
    )
    return np.ascontiguousarray(flat.reshape(width, len(lists)).T)


def _domination_table(g: Graph) -> np.ndarray:
    """D_e per edge as a row of edge ids, padded with m.

    Row e = uv is u's incident edges followed by v's, each padded to the
    maximum degree, with e's second occurrence (among v's) padded too, so
    no edge appears twice in a row.
    """
    m = g.m
    inc = _padded(g.incident, m)
    ends = np.fromiter(
        chain.from_iterable(g.edges), dtype=np.intp, count=2 * m
    ).reshape(m, 2)
    # One gather builds the table, with no half tables to join: row e of
    # the (m, 2, width) result is u's row of inc then v's, which laid out
    # flat is the padded row.
    table = inc[ends]
    at_v = table[:, 1]
    at_v[at_v == np.arange(m)[:, None]] = m
    return table.reshape(m, 2 * inc.shape[1])


def classify_dim(g: Graph, edge_ids: Iterable[EdgeId]) -> DimWitness:
    """Classify an edge set via the definitional three-part check.

    Checks, in order: mutually non-adjacent (matching), no graph edge
    joining two members (induced), every edge dominated.  Scans run in
    canonical edge order, so the reported counterexample is
    deterministic.
    """
    members = frozenset(edge_ids)
    for e in members:
        if not (0 <= e < g.m):
            raise ValueError(f"edge id {e} out of range")
    owner: dict[int, EdgeId] = {}
    for e in sorted(members):
        for w in g.edges[e]:
            if w in owner:
                return DimWitness(members, DimClass.NOT_MATCHING, (owner[w], e))
            owner[w] = e
    for f, (u, v) in enumerate(g.edges):
        if f not in members and u in owner and v in owner:
            # owner[u] != owner[v] is automatic: equal owners would make
            # f a parallel copy of that member.
            return DimWitness(members, DimClass.NOT_INDUCED, f)
    for f, (u, v) in enumerate(g.edges):
        if u not in owner and v not in owner:
            return DimWitness(members, DimClass.NOT_DOMINATING, f)
    return DimWitness(members, DimClass.VALID_DIM, None)


# Instances with at least this many columns take the counting rule, with
# its per-column counts of live rows and its column dominance (see
# _ExactCover); smaller ones scan.  The counting rule builds its index
# tables up front and pays a fixed few numpy calls per recount, the
# recount itself over all columns, which the scan's early exit beats on
# small instances and on short searches; its batch step takes a node's
# forced rows with one recount, read off whichever index table is the
# smaller gather.  Measured on Python 3.11 (2-vCPU VM), counting
# over scanning, both without dominance, each including the instance's
# set-up, median of 21 (then the median of three such runs):
#
#   instance     columns  all DIMs  first DIM (or none)
#   Petersen          15     6.7x      4.8x
#   KG(7,3)           70     1.9x      1.9x
#   prism C30         90     3.7x      3.6x  (8 nodes, no DIM)
#   BG(3,3)          140     1.5x      1.2x
#   BG(2,5)          168     1.06x     0.84x
#   prism C60        180     2.8x      2.9x  (8 nodes, no DIM)
#   BG(2,6)          252     0.56x     0.64x
#   prism C90        270     2.7x      2.8x  (8 nodes, no DIM)
#   BG(3,4)          280     0.89x     0.79x
#   KG(9,4)          315     0.56x     0.58x
#   prism C120       360     2.4x      2.5x  (8 nodes, no DIM)
#   KG(11,5)       1 386     0.13x     0.12x
#
# On searches of 20 nodes or more the crossover still lies between 140
# and 252 columns: BG(2,5) at 168 is a tie on enumeration and a first
# solution 16% faster counting.  An 8-node search is 2.4-3.7x slower
# counting at every width up to 360, since it has few forced rows to
# batch.  256 sits above the crossover; a lower threshold would also
# send the short searches of 200-odd columns to counting.
#
# Dominance rides on the counting rule because a pass costs a few numpy
# calls over the columns of least count and their rows, on the tables
# and counts that rule already holds; the scan would have to build both.
# Measured as above, search time with dominance over without it under
# the counting rule, with the nodes without -> with:
#
#   instance     columns  all DIMs (nodes)         first DIM (or none)
#   prism C90        270   0.94x     8 ->     8     0.93x    8
#   BG(3,4)          280   1.83x   373 ->   280     1.16x   35
#   KG(9,4)          315   1.70x   402 ->   315     1.00x   35
#   prism C120       360   0.96x     8 ->     8     0.95x    8
#   cubic n=400      600  12.2x   6545 ->   280    12.8x  6545 -> 280
#   KG(11,5)       1 386   1.90x  1889 ->  1386     0.92x  126
#
# (The cubic graph is networkx.random_regular_graph(3, 400, seed=1).)
# Every enumeration gains 1.7-2.1x and a search of 8 nodes loses about
# 5%.  Below 256 columns the scan with dominance paid 2-3x on short
# searches and first solutions, and only the enumerations from about
# 170 columns gained.  So lowering this gate sends more instances to
# dominance too, which changes their trees.  Sweep graphs on at most 8
# vertices have at most 28 edges, so their searches never apply it.
_COUNTING_MIN_COLUMNS = 256

# A search frame, one per node: the node's viable rows and uncovered
# columns, as int masks under the scan and as the live rows and the counts
# under the counting rule, then the rows still to try and how many rows
# are chosen at the node.
_Frame = tuple[object, object, int, int]
# The counting rule's node to walk a dead chain again from: live rows,
# counts and nodes used.
_Replay = tuple[np.ndarray, np.ndarray, int]


class _ExactCover:
    """Exact cover by ``nrows`` rows over ``ncols`` columns, searched
    without recursion.

    A solution is a set of rows that covers every column exactly once.
    The instance comes as two callables, and a search calls only the one
    its branching rule needs:

    * ``masks()`` gives ``(rows, cols)``: ``rows[i]`` is the column
      bitmask of row i and ``cols[c]`` the row bitmask of column c;
    * ``tables()`` gives ``(table, col_table)``: row i's columns, each
      once, as an int32 row padded with ``ncols``, and column c's rows,
      each once, as an intp row padded with ``nrows``.

    A search node branches on the uncovered column with the fewest
    viable rows (those disjoint from every chosen row), as in Knuth's
    Algorithm X, and tries those rows in ascending order, given as an
    int row mask.  Every row tried counts as one node on the ``budget``
    counter.  The walk's stack holds one frame per node on the path from
    the root: its state, its rows still to try and its depth, the number
    of rows chosen at it.  Trying a row cuts the chosen rows back to the
    frame's depth and appends the row; a solution is yielded and not
    pushed, and a frame with no row left to try is popped.

    The branching column is the lowest-index uncovered column with at
    most one viable row if there is one, and otherwise the lowest-index
    uncovered column of minimum count.  One walk finds it by one of two
    rules, chosen by the number of columns (``_COUNTING_MIN_COLUMNS``):

    * scanning (:meth:`_branch_rows`): a node is its uncovered columns
      and its viable rows as ints.  Choosing row i removes its columns
      from the first and every row sharing a column with it,
      ``kill[i]``, from the second; ``kill[i]`` is built the first time
      row i is chosen.  The scan counts every uncovered column's viable
      rows with a popcount, stopping at the first count <= 1.
    * counting (:meth:`_recount`, :func:`_counted_branch`): a node is its
      live rows, one bool per row and a last one, False, that the column
      table's padding reads, and every column's count of live rows in an
      int32 array, as Knuth's Dancing Links keeps column sizes, plus one
      spare slot that the row table's padding points at.  A chosen row's
      columns are counted ``nrows + 1``, above every uncovered column, so
      a node is a solution when its least count exceeds ``nrows``.
      Choosing row i kills the live rows of its columns in
      ``col_table``, each once by one bool scatter over ``live``; their
      columns are gathered from ``table`` and subtracted as one
      ``np.bincount``.  A frame that still has untried
      rows keeps its arrays and its child gets copies; a frame trying its
      last row hands them down to be updated in place.

    Both rules pick the same column at every node of the same state: the
    scan visits columns in ascending order, stops at the first count <= 1
    and otherwise keeps the first column of smallest count, which is how
    :func:`_counted_branch` reads the counts.

    The counting rule takes forced rows in batches (:meth:`_settle`).  A
    row is forced when it is the one live row of an uncovered column.
    After each recount, if the least count is 1 and at least two
    distinct rows are forced, it takes them all with one recount, each
    still one node on the budget but with no frame of its own: they are
    chosen at the node the batch reaches, provided that

    1. no uncovered column has 0 live rows;
    2. the forced rows are pairwise disjoint: one ``np.bincount`` of
       their columns in the row table hits no column twice;
    3. the budget has room for all of them;
    4. after them no uncovered column has 0 live rows, read off a copy
       of the counts.

    The batch is found on whichever index table gathers fewer entries
    at the node (:meth:`_forced_rows`): the live rows' columns in
    ``table``, where the forced rows are the live rows that cover a
    column counted 1 and the rows that die are those that share a column
    with the batch, or the count-1 columns' rows in ``col_table``, where
    the forced rows are their live entries and the rows that die are the
    live entries of the covered columns' rows.  Late in a chain few rows
    are live and many columns are counted 1, so the row table is read.

    Otherwise the node branches as it would without batches, which at
    a forced node is the single step: the lowest forced column's row.
    It repeats until no batch applies.  The tree stays the one
    the single steps would grow.  A forced row is in every cover below
    its node.  Counts only fall, and a column with no live row can
    never be covered.  So a chain of forced moves that ends at a
    solution, or at a node with no column counted <= 1, ends at the same
    node after the same number of nodes, whatever order it takes its
    rows in.  A chain that dies is different.  The single steps take the
    lowest forced column first, so they may take a row from outside the
    batch, and that row may empty a column before they reach the rest of
    the batch.  The batch walk then counts rows they never try.  So when
    a chain that took a batch dies, or runs out of budget, it is walked
    again from the node before its first batch, one row per recount
    (:meth:`_single_steps`).  The budget is left at that walk's count.
    On the paper's families and their relabellings it has not been
    seen to run; the tests build an instance where it does.

    The counting rule also applies least-count column dominance
    (:meth:`_dominated`) in :meth:`_settle`, one pass at a time, at a
    node whose least count is 2 or more.  Let l be the least count.  For
    each column f with exactly l live rows, every uncovered column g
    with more than l that all of f's live rows cover loses its live rows
    outside f's, and the counts are recounted.  Each round of
    :meth:`_settle` takes a batch or makes one pass, whichever the least
    count calls for, until neither changes the node, and the node then
    branches as above; this is the engine's one propagation loop.  This
    is sound:
    every cover below the node takes exactly one of f's rows, which
    covers g, so any other row of g would cover g twice.  The deletions
    are not nodes.  The batch walk and the single steps reach such a
    node in the same state, since a forced chain that ends at a node
    with no column counted <= 1 ends there whatever order it takes its
    rows in, and the pass depends only on that state.  For the same
    reason a dominance kill ends the forced chain that
    :meth:`_single_steps` would walk again: the two walks meet at the
    node where it fires, so a chain that dies after it is walked again
    from the first batch after it, never from before it.

    So the tree, the node counts and the point of budget exhaustion do
    not depend on the batches, and without dominance not on the rule
    either.  Nor do the solutions and their order, each yielded as an
    ascending list.
    """

    # The scan sets rows, cols and kill when it starts, the counting rule
    # table and col_table.
    __slots__ = (
        "nrows", "ncols", "masks", "tables", "budget", "rows", "cols", "kill", "table", "col_table"
    )

    def __init__(
        self,
        nrows: int,
        ncols: int,
        masks: Callable[[], tuple[list[int], list[int]]],
        tables: Callable[[], tuple[np.ndarray, np.ndarray]],
        budget: _Nodes,
    ) -> None:
        self.nrows = nrows
        self.ncols = ncols
        self.masks = masks
        self.tables = tables
        self.budget = budget

    def _kill(self, i: int) -> int:
        """Row i and every row sharing a column with it, as a row mask,
        built the first time the scan chooses row i."""
        # Rebuilding the mask at every choice instead of caching it made an
        # enumeration of KG(7,3) 3-5% slower (Python 3.11, 2 vCPUs, median
        # of 60 in one process).
        k = self.kill[i]
        if k is None:
            cols, k = self.cols, 0
            # The scan's masks are short; walking their bits inline beats
            # building a list of them.
            mask = self.rows[i]
            while mask:
                low = mask & -mask
                k |= cols[low.bit_length() - 1]
                mask ^= low
            self.kill[i] = k
        return k

    def solutions(self) -> Iterator[list[int]]:
        """Each exact cover as a new ascending list of its rows."""
        nodes = self.budget
        limit = nodes.limit
        if not self.ncols:
            yield []
            return
        # The rows chosen on the path to the node being tried: a frame's
        # depth is how many of them its node holds.
        chosen: list[int] = []
        # The counting rule's node before the first batch of the current
        # forced chain since its last dominance kill, or None (see
        # _settle).
        replay = None
        counting = self.ncols >= _COUNTING_MIN_COLUMNS
        if counting:
            self.table, self.col_table = self.tables()
            counts = np.bincount(self.table.ravel(), minlength=self.ncols + 1).astype(np.int32)
            live = np.ones(self.nrows + 1, dtype=np.bool_)
            live[-1] = False
            counts, cand, replay, solved = self._settle(live, counts, chosen, None)
            if solved:
                yield sorted(chosen)
            stack: list[_Frame] = [(live, counts, cand, len(chosen))]
        else:
            rows, self.cols = self.masks()
            self.rows, self.kill = rows, [None] * self.nrows
            viable, uncovered = (1 << self.nrows) - 1, (1 << self.ncols) - 1
            stack = [(viable, uncovered, self._branch_rows(uncovered, viable), 0)]
        while stack:
            viable, uncovered, cand, depth = stack[-1]
            if not cand:
                stack.pop()
                continue
            low = cand & -cand
            cand ^= low
            stack[-1] = (viable, uncovered, cand, depth)
            nodes.used += 1
            if nodes.used > limit:
                if replay is None:
                    raise _over_budget(limit)
                # The chain may die within the budget one row at a time.
                self._single_steps(*replay)
                replay = None
                continue
            i = low.bit_length() - 1
            del chosen[depth:]
            chosen.append(i)
            if counting:
                live, counts = viable, uncovered
                if cand:
                    live, counts = live.copy(), counts.copy()
                self._choose(live, counts, i)
                counts, cand, replay, solved = self._settle(live, counts, chosen, replay)
                viable, uncovered = live, counts
            else:
                uncovered &= ~rows[i]
                solved = not uncovered
                if uncovered:
                    viable &= ~self._kill(i)
                    cand = self._branch_rows(uncovered, viable)
            if solved:
                yield sorted(chosen)
                continue
            stack.append((viable, uncovered, cand, len(chosen)))

    def _settle(
        self,
        live: np.ndarray,
        counts: np.ndarray,
        chosen: list[int],
        replay: Optional[_Replay],
    ) -> tuple[np.ndarray, int, Optional[_Replay], bool]:
        """The counting rule's work at a node: its propagation, then the
        rows of the branching column.

        Each round applies a batch step or one dominance pass, until
        neither changes the node.  Each batch row is appended to
        ``chosen`` and counts one node; a batch recounts into a copy of
        ``counts`` and leaves the array it was given unchanged, dominance
        updates it in place, and both clear the rows they kill in
        ``live``, in place.  ``replay`` is the node before the first batch
        of the forced chain this node is on since its last dominance
        kill, or None if there is none.  Returns the node's counts, its
        branching rows (0 at a solution or a dead end), the chain's
        ``replay`` onward (None once the chain has ended) and whether the
        node is a solution.  A dead end after a batch is first walked
        again from ``replay``.
        """
        nodes, nrows = self.budget, self.nrows
        c, least = _counted_branch(counts[:-1])
        while 1 <= least <= nrows:
            if least > 1:
                if not self._dominated(live, counts):
                    break
                # The single steps reach this node in the state the batches
                # do, so a dead chain is walked again from here on.
                replay = None
                c, least = _counted_branch(counts[:-1])
                continue
            # Some uncovered column has one live row and none has 0.
            forced = self._forced_rows(counts[:-1], live)
            if forced is None:
                break
            batch, dead = forced
            if nodes.used + len(batch) > nodes.limit:
                break
            after = self._recount(counts.copy(), dead, batch)
            c_after, least_after = _counted_branch(after[:-1])
            if least_after == 0:
                break
            if replay is None:
                replay = (live.copy(), counts, nodes.used)
            nodes.used += len(batch)
            chosen.extend(batch)
            live[dead] = False
            counts, c, least = after, c_after, least_after
        if least > nrows:
            return counts, 0, None, True
        rows = self.col_table[c]
        cand = sum(1 << r for r in rows[live[rows]].tolist())
        if not cand:
            if replay is not None:
                self._single_steps(*replay)
            return counts, 0, None, False
        # A node with one row to try goes on with the chain.
        return counts, cand, None if cand & (cand - 1) else replay, False

    def _choose(self, live: np.ndarray, counts: np.ndarray, i: int) -> None:
        """Choose row i on the counting rule: the live rows that share a
        column with it, itself included, die in ``live`` and ``counts``.
        They are the live entries of its columns' rows in the column
        table, each once and in ascending order by one bool scatter."""
        cols = self.table[i]
        rows = self.col_table[cols[cols < self.ncols]]
        dying = np.zeros_like(live)
        dying[rows] = True
        dying &= live
        dead = dying.nonzero()[0]
        live[dead] = False
        self._recount(counts, dead, i)

    def _forced_rows(
        self, free: np.ndarray, live: np.ndarray
    ) -> Optional[tuple[list[int], np.ndarray]]:
        """A batch: the one live row of each column counted 1 in ``free``,
        each row once and in ascending order, with the live rows that
        share a column with them, themselves included, as row indices;
        None unless there are at least two such rows and they are
        pairwise disjoint.

        A fixed number of numpy calls on whichever index table gathers
        fewer entries: the live rows' columns in the row table
        (:meth:`_forced_by_rows`) or the count-1 columns' rows in the
        column table (:meth:`_forced_by_columns`).  Both give the same
        batch and the same dying rows.
        """
        ones = (free == 1).nonzero()[0]
        if len(ones) < 2:
            return None
        rows = live.nonzero()[0]
        # The two gathers: a row-table row per live row, or a column-table
        # row per column counted 1.
        if len(rows) * self.table.shape[1] < len(ones) * self.col_table.shape[1]:
            return self._forced_by_rows(ones, rows)
        return self._forced_by_columns(ones, live)

    def _forced_by_rows(
        self, ones: np.ndarray, rows: np.ndarray
    ) -> Optional[tuple[list[int], np.ndarray]]:
        """:meth:`_forced_rows` read off the row table of the live rows
        ``rows``, ascending: the batch is the rows that cover one of the
        columns ``ones``, those counted 1, and the rows that die are
        those that cover a column of the batch."""
        ncols = self.ncols
        cols = np.take(self.table, rows, axis=0)
        # One more slot, False, for the padding.
        marked = np.zeros(ncols + 1, dtype=np.bool_)
        marked[ones] = True
        # take reads the int32 table as indices about twice as fast as
        # fancy indexing (KG(11,5)'s last batch, 100 rows: 2.0 against
        # 4.6 us).
        forced = marked.take(cols).any(axis=1)
        batch = rows[forced]
        if len(batch) < 2:
            return None
        hits = np.bincount(cols[forced].ravel(), minlength=ncols + 1)
        hits[-1] = 0  # the padding's slot
        if hits.max() > 1:
            return None
        return batch.tolist(), rows[hits.astype(np.bool_).take(cols).any(axis=1)]

    def _forced_by_columns(
        self, ones: np.ndarray, live: np.ndarray
    ) -> Optional[tuple[list[int], np.ndarray]]:
        """:meth:`_forced_rows` read off the column table of the columns
        ``ones``, those counted 1: the batch is their live entries, their
        repeats merged by one bool scatter, and the rows that die are the
        live entries of the batch's columns."""
        table, col_table = self.table, self.col_table
        entries = np.take(col_table, ones, axis=0)
        picked = np.zeros_like(live)
        picked[entries[live[entries]]] = True
        batch = picked.nonzero()[0]
        if len(batch) < 2:
            return None
        hits = np.bincount(np.take(table, batch, axis=0).ravel(), minlength=self.ncols + 1)[:-1]
        if hits.max() > 1:
            return None
        dying = np.zeros_like(live)
        dying[np.take(col_table, hits.nonzero()[0], axis=0)] = True
        dying &= live
        return batch.tolist(), dying.nonzero()[0]

    def _single_steps(self, live: np.ndarray, counts: np.ndarray, used: int) -> None:
        """Walk a dead forced chain again from the node before its first
        batch since its last dominance kill, one row per recount as the
        single steps would, and leave the budget at their node count;
        raises SearchBudgetExceeded where they would.  ``live`` and
        ``counts`` are updated in place.  No node on the way has every
        column counted 2 or more, so dominance never fires here.
        """
        nodes, col_table = self.budget, self.col_table
        nodes.used = used
        while True:
            rows = col_table[_counted_branch(counts[:-1])[0]]
            rows = rows[live[rows]]
            if not len(rows):
                return
            nodes.used += 1
            if nodes.used > nodes.limit:
                raise _over_budget(nodes.limit)
            self._choose(live, counts, int(rows[0]))

    def _dominated(self, live: np.ndarray, counts: np.ndarray) -> bool:
        """One pass of least-count column dominance at a node whose
        uncovered columns all have two live rows or more: whether it
        killed rows.

        The rows that die are cleared in ``live`` and their columns taken
        off ``counts``, in place.  Let l be the least count.  For each
        column f with l live rows, every uncovered column g that has more
        and is covered by all of f's live rows loses its live rows
        outside f's.  Every cover below the node takes one of f's rows,
        which covers g, so another row of g would cover g twice.  No pass
        runs when every uncovered column has l live rows.

        A pass is a fixed number of numpy calls.  f's l rows are read off
        the column table and their columns off the row table, sorted per
        f: a column that all of f's rows cover is a run of l equal
        entries, found by one compare of the sorted entries with
        themselves shifted by l - 1.  Those counted above l are the
        columns g.  f's rows are among g's, so a live row dies exactly
        when more of the pairs (f, g) have it among g's rows than among
        f's: one ``np.bincount`` over the pairs' g rows and one over
        their f rows, compared.
        """
        table, col_table = self.table, self.col_table
        n, ncols = self.nrows, self.ncols
        free = counts[:-1]
        least = int(free.min())
        # Covered columns are counted n + 1, uncovered ones at most n.
        if least == int(free[free <= n].max()):
            return False
        fs = (free == least).nonzero()[0]
        f_rows = np.take(col_table, fs, axis=0)
        f_rows = f_rows[live[f_rows]].reshape(len(fs), least)
        f_cols = np.take(table, f_rows, axis=0).reshape(len(fs), -1)
        f_cols.sort(axis=1)
        width = f_cols.shape[1] - least + 1
        run = (f_cols[:, least - 1 :] == f_cols[:, :width]).ravel().nonzero()[0]
        f_at, at = np.divmod(run, width)
        g = f_cols[f_at, at]
        dominated = (g != ncols) & (np.take(counts, g) > least)
        in_g = np.bincount(np.take(col_table, g[dominated], axis=0).ravel(), minlength=n + 1)
        in_f = np.bincount(f_rows[f_at[dominated]].ravel(), minlength=n + 1)
        dying = ((in_g > in_f) & live).nonzero()[0]
        if not len(dying):
            return False
        live[dying] = False
        dropped = np.bincount(np.take(table, dying, axis=0).ravel(), minlength=ncols + 1)
        counts -= dropped.astype(counts.dtype)
        return True

    def _branch_rows(self, uncovered: int, viable: int) -> int:
        """Viable rows of the uncovered column with the fewest of them."""
        cols = self.cols
        best, best_count = 0, self.nrows + 1
        while uncovered:
            low = uncovered & -uncovered
            cand = cols[low.bit_length() - 1] & viable
            count = cand.bit_count()
            if count < best_count:
                best, best_count = cand, count
                if count <= 1:
                    break
            uncovered ^= low
        return best

    def _recount(self, counts: np.ndarray, dead: np.ndarray, chosen: int | list[int]) -> np.ndarray:
        """counts, updated in place, once the rows ``dead``, an array of
        row indices, have died because ``chosen``, a row or a list of
        rows (all among them), was chosen.

        One ``np.bincount`` of the dead rows' columns is subtracted, and
        the chosen rows' columns are set to a sentinel above every real
        count.  The padding lands in the spare last slot, which is never
        read.
        """
        table = self.table
        dying = np.bincount(table[dead].ravel(), minlength=len(counts))
        # int32 counts halve the copies the stack holds; subtracting the
        # int64 bincount in place would cast element by element, about
        # twice as slow as one astype.
        counts -= dying.astype(np.int32)
        # One row indexes the table as a view, 2 us faster than a list.
        counts[table[chosen]] = self.nrows + 1
        return counts


def _column_table(table: np.ndarray, ncols: int) -> np.ndarray:
    """Column c's rows, each once, as intp, padded with the number of
    rows: the transpose of the row table.

    intp indices gather and scatter about 3x faster than int32 ones.
    """
    nrows, width = table.shape
    flat = table.ravel()
    sizes = np.bincount(flat, minlength=ncols + 1)[:ncols]
    cols = np.full((ncols, sizes.max(initial=0)), nrows, dtype=np.intp)
    # Sorted by column, the entries of column c start at the sum of the
    # sizes before it; the padding sorts last and is cut off.
    order = np.argsort(flat, kind="stable")[: int(sizes.sum())]
    col = flat[order]
    cols[col, np.arange(len(order)) - (np.cumsum(sizes) - sizes)[col]] = order // width
    return cols


def _counted_branch(counts: np.ndarray) -> tuple[int, int]:
    """The branching column read off the counts, with the least count:
    the lowest uncovered column with at most one viable row, else the
    first of fewest.

    ``argmin`` finds the first column of fewest rows, which is also the
    first with at most one unless the fewest is 0: then a column with
    one row may come before it.
    """
    c = int(counts.argmin())
    least = int(counts[c])
    return (int((counts <= 1).argmax()) if least == 0 else c), least


def _dim_search(g: Graph, budget: _Nodes) -> _ExactCover:
    """The DIM instance: rows and columns are both the sets D_e.

    D is symmetric (f in D_e iff e in D_f), so the column masks are the
    row masks and the column table is the row table, as intp.
    """

    def masks() -> tuple[list[int], list[int]]:
        rows = _domination_masks(g)
        return rows, rows

    # The int32 row table and its intp copy both stay: one intp table for
    # both made the first DIM of KG(15,7) 4-11% slower (25.0 -> 26.0 ms and
    # 29.4 -> 32.8 ms; Python 3.11, 2 vCPUs, medians of 20 in one process).
    def tables() -> tuple[np.ndarray, np.ndarray]:
        table = _domination_table(g)
        return table, table.astype(np.intp)

    return _ExactCover(g.m, g.m, masks, tables, budget)


def _cover_search(rows: Sequence[Sequence[int]], ncols: int, budget: _Nodes) -> _ExactCover:
    """The instance over ``ncols`` columns whose row i covers the
    columns ``rows[i]``, each listed once; the lists are its row table.
    """

    def masks() -> tuple[list[int], list[int]]:
        cols = [0] * ncols
        for i, row in enumerate(rows):
            for c in row:
                cols[c] |= 1 << i
        return [sum(1 << c for c in row) for row in rows], cols

    def tables() -> tuple[np.ndarray, np.ndarray]:
        table = _padded(rows, ncols)
        return table, _column_table(table, ncols)

    return _ExactCover(len(rows), ncols, masks, tables, budget)


def find_dim(g: Graph, budget: int = DEFAULT_BUDGET) -> Optional[EdgeSet]:
    """Some valid DIM of g, or None if no DIM exists.

    The empty matching is a DIM of any edgeless graph.  Raises
    SearchBudgetExceeded once the search expands more than ``budget``
    nodes.
    """
    for sol in _dim_search(g, _Nodes(budget)).solutions():
        return frozenset(sol)
    return None


def enumerate_dims(g: Graph, budget: int = DEFAULT_BUDGET) -> list[EdgeSet]:
    """All DIMs of g, in lexicographic order of sorted edge-id tuples.

    Raises SearchBudgetExceeded once the search expands more than
    ``budget`` nodes; results are never silently truncated.
    """
    return [frozenset(sol) for sol in sorted(_dim_search(g, _Nodes(budget)).solutions())]


def brute_force_dims(g: Graph) -> list[EdgeSet]:
    """Oracle: scan all 2^m edge subsets with the definitional check.

    Evaluates matching, induced, and dominating independently for every
    subset using vectorized subset-DP over bitmasks; shares nothing
    with the exact cover search, not even its D_e masks, which are
    built here from the edge list alone.  Requires m <= 20.
    """
    m = g.m
    if m > 20:
        raise ValueError(f"brute force limited to 20 edges, got {m}")
    if m == 0:
        return [frozenset()]

    dom = np.array(
        [
            sum(1 << f for f, (a, b) in enumerate(g.edges) if {a, b} & {u, v})
            for u, v in g.edges
        ],
        dtype=np.int64,
    )
    adjacent = dom & ~(np.int64(1) << np.arange(m, dtype=np.int64))
    vertex_of = sorted({w for e in g.edges for w in e})
    vid = {w: i for i, w in enumerate(vertex_of)}
    endpoint_masks = np.array(
        [(1 << vid[u]) | (1 << vid[v]) for u, v in g.edges], dtype=np.int64
    )

    size = 1 << m
    conflict = np.zeros(size, dtype=np.int64)
    dominated = np.zeros(size, dtype=np.int64)
    vcover = np.zeros(size, dtype=np.int64)
    for i in range(m):
        lo = 1 << i
        conflict[lo : 2 * lo] = conflict[:lo] | adjacent[i]
        dominated[lo : 2 * lo] = dominated[:lo] | dom[i]
        vcover[lo : 2 * lo] = vcover[:lo] | endpoint_masks[i]

    subset = np.arange(size, dtype=np.int64)
    is_matching = (conflict & subset) == 0
    is_dominating = dominated == (1 << m) - 1
    spanned = np.zeros(size, dtype=np.int64)
    for f in range(m):
        inside = (vcover & endpoint_masks[f]) == endpoint_masks[f]
        spanned |= inside.astype(np.int64) << np.int64(f)
    is_induced = (spanned & ~subset) == 0

    valid = np.flatnonzero(is_matching & is_induced & is_dominating)
    out = [
        frozenset(e for e in range(m) if mask >> e & 1) for mask in valid.tolist()
    ]
    out.sort(key=lambda s: tuple(sorted(s)))
    return out
