"""Per-layer spans for the traced benchmark run.

``Tracer.install`` replaces each public function of each ``dimtools``
module with a wrapper, at every module attribute that binds it, so calls
made through ``from .solver import find_dim`` style imports are seen too.
Each call records one span (name, start, end, parent span) in flat
in-memory arrays; the spans are written out when the run ends.  A span's
self time is its duration minus the durations of its direct children,
which nest inside it because everything runs in one thread.  Metrics are
reported for the functions in ``LAYERS``; the other public functions are
wrapped too, so that their time is not counted as their callers' self
time (``checks.full_report`` self time is then its orchestration).
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, function, outcome count or None, what it should move).  The last
# field names the end-to-end metric and workload the layer metric is
# expected to move; traced runs print it beside the function's self time.
LAYERS = (
    ("graph", "build_graph", None, "sweep ops_per_s, op_p50_ms"),
    ("graph", "components", None, "sweep ops_per_s, op_p50_ms (includes is_connected)"),
    ("graph", "degree_profile", None, "sweep ops_per_s, op_p50_ms"),
    ("graph", "enumerate_cycles", "cycles", "sweep ops_per_s, op_p50_ms"),
    ("corpus", "connected_graphs", "graphs", "sweep setup_s"),
    ("checks", "full_report", None, "sweep ops_per_s, op_p50_ms"),
    ("checks", "check_cycle_intersections", None, "sweep ops_per_s, op_p50_ms"),
    ("checks", "check_dim_bounds", None, "sweep ops_per_s, op_p50_ms"),
    ("checks", "check_edge_bound", None, "sweep ops_per_s, op_p50_ms"),
    ("solver", "find_dim", "found", "family-search ops_per_s, ok_ratio, op_tail_ms; sweep per-call set-up"),
    ("solver", "enumerate_dims", "dims", "family-search ops_per_s, ok_ratio, op_tail_ms"),
    ("solver", "classify_dim", None, "closed-form ops_per_s"),
    ("partition", "find_dim_partition", "found", "partition-search ops_per_s, ok_ratio"),
    ("partition", "verify_dim_partition", None, "closed-form ops_per_s"),
    ("partition", "list_assignment", None, "closed-form ops_per_s"),
    ("partition", "verify_list_properties", None, "closed-form ops_per_s"),
    ("partition", "check_kneser_isomorphism", None, "closed-form ops_per_s"),
    ("families", "kneser", None, "closed-form ops_per_s; setup_s elsewhere"),
    ("families", "bipartite_kneser", None, "closed-form ops_per_s; setup_s elsewhere"),
    ("io", "serialize_graph", "bytes", "closed-form ops_per_s"),
    ("io", "parse_graph", "bytes", "closed-form ops_per_s"),
    ("io", "serialize_partition", "bytes", "closed-form ops_per_s"),
    ("io", "parse_partition", "bytes", "closed-form ops_per_s"),
)

# Counts that are not a per-function outcome.  calls_per_report is
# find_dim calls per full_report call (useful-to-attempted: 1 is ideal).
EXTRA = (
    ("solver.find_dim.calls_per_report", "ratio", "lower"),
    ("solver.budget_exceeded", "count", "lower"),
    ("partition.find_dim_partition.limit_hits", "count", "lower"),
    ("partition.find_dim_partition.errors", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

OUTCOME_UNITS = {"cycles": "count", "graphs": "count", "found": "count", "dims": "count", "bytes": "bytes"}
OUTCOME_BETTER = {"found": "higher", "dims": "higher"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, fn, outcome, _ in LAYERS:
        base = f"{module}.{fn}"
        specs.append((f"{base}.calls", "count", "lower"))
        specs.append((f"{base}.self_s", "s", "lower"))
        if outcome:
            specs.append((f"{base}.{outcome}", OUTCOME_UNITS[outcome], OUTCOME_BETTER.get(outcome, "lower")))
    return specs + list(EXTRA)


class Tracer:
    def __init__(self, budget_error: type, limit_error: type) -> None:
        self.budget_error = budget_error
        self.limit_error = limit_error
        self.names: list[str] = ["op"]
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.active = False

    def install(self) -> None:
        """Wrap every binding of every public dimtools function."""
        modules = [m for k, m in sys.modules.items() if k == "dimtools" or k.startswith("dimtools.")]
        outcomes = {f"{module}.{fn}": outcome for module, fn, outcome, _ in LAYERS}
        wrappers = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{mod.__name__.removeprefix('dimtools.')}.{attr}"
                    wrappers[id(value)] = self._wrap(value, name, outcomes.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str, outcome):
        name_id = len(self.names)
        self.names.append(name)
        counts = self.counts
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # The span runs from the first item to exhaustion; the consumer's
            # time between items falls inside it, which is negligible for the
            # list() calls that consume the corpus here.
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                it = fn(*args, **kwargs)
                i = tracer._open(name_id)
                tracer.stack.pop()
                while True:
                    tracer.stack.append(i)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(i)
                        return
                    tracer.stack.pop()
                    counts[f"{name}.{outcome}"] += 1
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(i)
                tracer._count_error(name, exc)
                raise
            tracer._close(i)
            if outcome == "found":
                counts[f"{name}.found"] += result is not None
            elif outcome == "bytes":
                counts[f"{name}.bytes"] += len(result if name.startswith("io.serialize") else args[0])
            elif outcome:
                counts[f"{name}.{outcome}"] += len(result)
            return result

        return wrapper

    def _count_error(self, name: str, exc: BaseException) -> None:
        if name in ("solver.find_dim", "solver.enumerate_dims") and isinstance(exc, self.budget_error):
            self.counts["solver.budget_exceeded"] += 1
        if name == "partition.find_dim_partition":
            kind = "limit_hits" if isinstance(exc, self.limit_error) else "errors"
            self.counts[f"{name}.{kind}"] += 1

    @contextmanager
    def op_span(self):
        """One benchmark op: a root span that the op's calls hang from."""
        i = self._open(0)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._close(i)

    def metrics(self, overhead_s: float) -> dict[str, float]:
        n = len(self.start)
        parent, name_of = np.asarray(self.parent), np.asarray(self.name_of)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_time = dur - child_time
        calls = np.bincount(name_of, minlength=len(self.names))
        self_by_name = np.bincount(name_of, weights=self_time, minlength=len(self.names))
        index = {name: i for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for name, unit, _ in metric_specs():
            base, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = int(calls[index[base]])
            elif stat == "self_s":
                out[name] = float(self_by_name[index[base]])
            else:
                out[name] = self.counts.get(name, 0)
        reports = int(calls[index["checks.full_report"]])
        finds = int(calls[index["solver.find_dim"]])
        out["solver.find_dim.calls_per_report"] = finds / reports if reports else 0.0
        out["trace.spans"] = n
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: Path) -> None:
        """Write every span, with its parent link, as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.asarray(self.name_of),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            names=np.array(self.names),
        )
