#!/usr/bin/env python3
"""Benchmark of the dimtools pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep [--seed 42] [--seconds 25] [--trace 0]
    python3 perfbench/run.py --workload all

Workloads (see workloads.py): sweep, family-search, partition-search,
closed-form.  One process, one thread, closed loop: each op is one public
dimtools call, issued after the previous one returned, timed on its own
and then checked with the clock stopped; a wrong answer aborts the run
with exit code 1.  Solver calls carry a node budget and every call runs
under an in-process wall limit (SIGALRM), so an op that runs out of
budget, passes its limit or raises counts as failed, never as wrong.

Passes over the workload's op list repeat until about ``--seconds`` of
wall time have gone by.  Times are scaled to a reference machine speed
(see ``Meter``) and each op's latency is the median over the passes.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` one pass runs untraced (after a
warm-up pass) and then again with every layer function wrapped
(tracing.py), and the JSON carries the per-layer metrics and the tracing
overhead.  Spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-up repeats: at least 3, then until 1 s has gone by, at most 15.
SETUP_REPEATS = (3, 1.0, 15)
PROBE_EVERY_S = 0.2
# Probe duration that defines the reference speed all times are scaled to.
PROBE_REF_S = 0.003
# An op that runs longer than this pays for a full garbage collection
# before its clock stops.  The cyclic garbage a long search leaves (frames
# held by a budget exception's traceback, say) is then charged to it, not
# to whichever short op the collector happens to interrupt next; measured
# here, that moved a 4 ms find_dim by up to 45%.
GC_AFTER_S = 0.01


class WallLimit(BaseException):
    """Raised by SIGALRM inside an op that outlived its wall limit."""


def _alarm(signum, frame):
    raise WallLimit()


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work: the speed probe."""
    t0 = time.perf_counter()
    acc = 0
    seen: dict = {}
    items = []
    for i in range(4000):
        x = (i * 2654435761) & 0xFFFFF
        m = x | (x << 7)
        acc ^= (m & -m).bit_length()
        key = (x & 255, i & 7)
        seen[key] = seen.get(key, 0) + 1
        items.append(frozenset((x & 15, x >> 16)))
    items.sort(key=len)
    return time.perf_counter() - t0


class Meter:
    """Op records, with wall times scaled to the reference machine speed.

    The virtual CPUs this benchmark was tuned on change speed by a third
    within seconds and by a fifth between runs, so raw times spread
    beyond any usable bound.  Between ops, at least every PROBE_EVERY_S,
    the meter times the probe; each op's scaled time is its wall time
    times PROBE_REF_S over the mean of the probes just before and just
    after it.  Ops stopped by the wall limit keep their wall time.

    Records are kept column by column, so that their memory does not
    grow peak_rss_mb with the number of passes.
    """

    KINDS = (None, "budget", "limit", "error")

    def __init__(self) -> None:
        self.keys: dict[int, str] = {}
        self.position = array("i")
        self.kind = array("b")
        self.wall = array("d")
        self.scaled = array("d")
        self.last_probe = probe()
        self.last_at = time.perf_counter()

    def add(self, key: str, position: int, kind: str | None, wall: float) -> None:
        self.keys[position] = key
        self.position.append(position)
        self.kind.append(self.KINDS.index(kind))
        self.wall.append(wall)

    def probe(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self.last_at < PROBE_EVERY_S:
            return
        p = probe()
        factor = 2 * PROBE_REF_S / (self.last_probe + p)
        limit = self.KINDS.index("limit")
        for i in range(len(self.scaled), len(self.wall)):
            self.scaled.append(self.wall[i] if self.kind[i] == limit else self.wall[i] * factor)
        self.last_probe, self.last_at = p, time.perf_counter()

    def failures(self) -> Counter:
        """(op key, failure kind) -> count."""
        return Counter(
            (self.keys[pos], self.KINDS[kind]) for pos, kind in zip(self.position, self.kind) if kind
        )


def import_fresh():
    """Import dimtools from this checkout's src/, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "dimtools" or m.startswith("dimtools.")]:
        del sys.modules[name]
    dt = importlib.import_module("dimtools")
    if Path(dt.__file__).resolve().parent != SRC / "dimtools":
        raise SystemExit(f"error: imported dimtools from {dt.__file__}, not {SRC}")
    return dt


def set_up(workload_cls, seed: int, quick: bool):
    """Import dimtools and build the fixed inputs, repeatedly.

    Returns the last workload, the median scaled set-up time and the
    number of repeats.
    """
    least, enough_s, most = SETUP_REPEATS
    scaled, spent, wl = [], 0.0, None
    while len(scaled) < least or (spent < enough_s and len(scaled) < most):
        wl = None
        gc.collect()
        before = probe()
        t0 = time.perf_counter()
        wl = workload_cls(import_fresh(), seed, quick)
        wall = time.perf_counter() - t0
        spent += wall
        scaled.append(wall * 2 * PROBE_REF_S / (before + probe()))
    return wl, statistics.median(scaled), len(scaled)


def run_pass(wl, ops, meter: Meter, tracer=None) -> None:
    """Run one pass of ops, recording each in ``meter``."""
    budget_error = wl.dt.SearchBudgetExceeded
    for position, (key, fn, args, check) in enumerate(ops):
        meter.probe()
        kind = None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, wl.limit_s)
        try:
            if tracer is None:
                result = fn(*args)
            else:
                with tracer.op_span():
                    result = fn(*args)
        except WallLimit:
            kind = "limit"
        except budget_error:
            kind = "budget"
        except Exception:  # RecursionError and any other raise: an error op
            kind = "error"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if time.perf_counter() - t0 > GC_AFTER_S:
            gc.collect()
        meter.add(key, position, kind, time.perf_counter() - t0)
        if kind is None:
            check(result)
    meter.probe(force=True)
    wl.finish_pass()


def latency_at(ranked: list[float], per_mille: int) -> float:
    """Nearest-rank percentile of an already ranked list."""
    return ranked[max(0, math.ceil(per_mille * len(ranked) / 1000) - 1)]


def percentiles(meter: Meter, times, tail: int) -> tuple[float, float]:
    """(median, tail percentile) of per-op medians over the passes.

    Ops are the positions of a pass; a position whose runs mostly failed
    ranks slower than every success.
    """
    runs = defaultdict(list)
    for pos, kind, t in zip(meter.position, meter.kind, times):
        runs[pos].append((kind, t))
    per_op = sorted(
        (2 * sum(kind != 0 for kind, _ in r) > len(r), statistics.median(t for _, t in r))
        for r in runs.values()
    )
    ranked = [t for _, t in per_op]
    return statistics.median(ranked), latency_at(ranked, tail)


def end_to_end(meter: Meter, setup_s: float, setup_runs: int, tail: int) -> tuple[dict, dict]:
    """The end-to-end metrics and the details printed beside them."""
    n = len(meter.wall)
    failures = meter.failures()
    ok = n - sum(failures.values())
    p50, p_tail = percentiles(meter, meter.scaled, tail)
    wall_p50, wall_tail = percentiles(meter, meter.wall, tail)
    metrics = {
        "ops_per_s": (ok / sum(meter.scaled), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (p_tail * 1e3, "ms"),
        "ok_ratio": (ok / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    kinds = Counter()
    for (_, kind), count in failures.items():
        kinds[kind] += count
    positions = len(meter.keys)
    passes = n // positions
    details = {
        "ops_per_s": f"wall {ok / sum(meter.wall):.6g}",
        "op_p50_ms": f"wall {wall_p50 * 1e3:.6g}",
        "op_tail_ms": f"p{tail / 10:g} of {positions} ops x {passes} passes, "
        f"{(positions - math.ceil(tail * positions / 1000)) * passes} runs beyond; "
        f"wall {wall_tail * 1e3:.6g}",
        "ok_ratio": f"fail_ratio {1 - ok / n:.4f}: budget {kinds['budget']}, "
        f"limit {kinds['limit']}, error {kinds['error']}",
        "setup_s": f"median of {setup_runs}",
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def failure_lines(workload: str, meter: Meter, known: dict) -> list[str]:
    """One line per failing op key, marked known or NEW, plus known ones not seen."""
    seen = meter.failures()
    expected = known.get(workload, {})
    lines = []
    for (key, kind), count in sorted(seen.items()):
        tag = "known" if expected.get(key) == kind else "NEW"
        lines.append(f"failed {key} kind={kind} count={count} {tag}")
    for key, kind in sorted(expected.items()):
        if (key, kind) not in seen:
            lines.append(f"known failure not seen: {key} kind={kind}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, meter: Meter, quick: bool = False) -> dict:
    import tracing
    from workloads import WORKLOADS

    signal.signal(signal.SIGALRM, _alarm)
    reference = json.loads((HERE / "sweep_reference.json").read_text())
    known = json.loads((HERE / "known_failures.json").read_text())
    wl, setup_s, setup_runs = set_up(WORKLOADS[name], seed, quick)
    gc.collect()
    gc.freeze()
    wl.prepare(reference)

    if trace:
        # The first pass warms caches and the allocator; the second is the
        # untraced pass that the traced one is compared with.
        for _ in range(2):
            untraced = Meter()
            run_pass(wl, wl.ops(0), untraced)
        tracer = tracing.Tracer(wl.dt.SearchBudgetExceeded, WallLimit)
        tracer.install()
        with tracer.op_span():
            type(wl)(wl.dt, seed, quick)
        run_pass(wl, wl.ops(0), meter, tracer)
        overhead = sum(meter.scaled) - sum(untraced.scaled)
        units = {n: u for n, u, _ in tracing.metric_specs()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in tracer.metrics(overhead).items()}
        tracer.write(HERE / "out" / f"spans-{name}-seed{seed}.npz")
        details = {f"{module}.{fn}.self_s": f"should move {moves}" for module, fn, _, moves in tracing.LAYERS}
        passes = 1
    else:
        passes = 0
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            run_pass(wl, wl.ops(passes), meter)
            passes += 1
            now = time.perf_counter()
            if now - start + (now - t0) / 2 >= seconds:
                break
        metrics, details = end_to_end(meter, setup_s, setup_runs, wl.tail_per_mille)

    attempted = len(meter.wall)
    print(f"workload {name} seed {seed} passes {passes} ops {attempted} trace {int(trace)}")
    for key, m in metrics.items():
        note = f"  ({details[key]})" if key in details else ""
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']}{note}")
    for line in failure_lines(name, meter, known):
        print(f"  {line}")
    failed = sum(meter.failures().values())
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "family-search", "partition-search", "closed-form", "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dimtools" / "__init__.py").is_file():
        print(f"error: no dimtools sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One child per workload, one at a time, so peak_rss_mb stays per workload.
        status = 0
        for name in ("sweep", "family-search", "partition-search", "closed-form"):
            child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--trace", str(args.trace)])
            status = status or child.returncode
        return status

    from oracle import WrongAnswer

    meter = Meter()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), meter)
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        failed = sum(meter.failures().values())
        print(json.dumps({"correct": False, "attempted": max(1, len(meter.wall)), "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
