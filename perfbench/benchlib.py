"""Shared machinery of the benchmark: timing statistics, the in-memory
span tracer, the probes that time calls into the program's public
functions, and process facts (peak RSS, environment).

Nothing here imports :mod:`repro` at module level: ``run.py`` pins the
environment first and only then imports the program.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """The highest percentile with at least :data:`TAIL_SAMPLES` samples
    beyond it; below ``2 * TAIL_SAMPLES`` samples the median is the tail."""
    return max(50.0, 100.0 * (1.0 - TAIL_SAMPLES / count)) if count else 50.0


def timing_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail and the facts needed to read the tail."""
    tail_pct = tail_percentile(len(values))
    return {"p50": percentile(values, 50.0),
            "tail": percentile(values, tail_pct),
            "tail_pct": round(tail_pct, 2),
            "samples": len(values)}


# --------------------------------------------------------------------------- #
# process facts
# --------------------------------------------------------------------------- #
def peak_rss_mib(pid: Optional[int] = None) -> float:
    """Peak resident set size of this process (or of ``pid``) in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def environment_record() -> Dict[str, object]:
    """What a result depends on besides the code: CPUs and versions."""
    import numpy
    import scipy

    return {"cpus": cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
class Tracer:
    """Spans kept in memory: ``(name, start_s, end_s, parent, run_id)``.

    ``parent`` is the index of the enclosing span (``-1`` at the root) and
    ``run_id`` the index of the timed operation the span belongs to
    (``-1`` during set-up).  The benchmark drives the program from one
    thread, so a single stack gives every span its parent.
    """

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.run_id = -1
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), math.nan, parent,
                           self.run_id))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            entry = self.spans[index]
            self.spans[index] = (entry[0], entry[1], time.perf_counter(),
                                 entry[3], entry[4])

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. from server timestamps)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent, self.run_id))

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    # -- derived views -------------------------------------------------- #
    def busy(self, name: str, run_ids: Optional[set] = None) -> float:
        """Wall time inside ``name`` spans, counting nested repeats once."""
        total = 0.0
        for index, span in enumerate(self.spans):
            if span[0] != name or (run_ids is not None
                                   and span[4] not in run_ids):
                continue
            if not self._has_ancestor(index, name):
                total += span[2] - span[1]
        return total

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def _covered(self) -> List[float]:
        """Per span: the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def self_times(self, run_ids: Optional[set] = None) -> Dict[str, float]:
        """Per span name: duration minus the part its children cover."""
        totals: Dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, self._covered()):
            if run_ids is None or span[4] in run_ids:
                totals[span[0]] += (span[2] - span[1]) - covered
        return dict(totals)

    def coverage(self, root: str) -> float:
        """Share of the ``root`` spans' wall time their children cover."""
        wall = covered = 0.0
        for span, child_time in zip(self.spans, self._covered()):
            if span[0] == root:
                wall += span[2] - span[1]
                covered += child_time
        return covered / wall if wall else 0.0

    def durations(self, name: str) -> List[float]:
        return [span[2] - span[1] for span in self.spans if span[0] == name]

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """Chrome trace-event JSON (complete events, microseconds); opens in
        Perfetto or chrome://tracing as is."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": process_name}}]
        for index, (name, start, end, parent, run_id) in enumerate(self.spans):
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "pid": 1, "tid": 1,
                           "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6,
                           "args": {"span": index, "parent": parent,
                                    "run_id": run_id}})
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


class Probes:
    """Time calls into public functions and methods, restoring them on exit.

    Each probe opens a span named after the layer around the original call
    and may add counts computed from the call's arguments and result.  The
    original runs unchanged, so traced output is the untraced output.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, original: Callable, name: str, counts: Optional[Callable],
              before: Optional[Callable]) -> Callable:
        """``counts(args, result, state, elapsed)`` returns ``{counter:
        amount}``; ``state`` is what ``before(args)`` saw ahead of the call."""
        tracer = self.tracer

        @functools.wraps(original)
        def probe(*args, **kwargs):
            state = before(args) if before is not None else None
            with tracer.span(name) as index:
                result = original(*args, **kwargs)
            if counts is not None:
                span = tracer.spans[index]
                for key, amount in counts(args, result, state,
                                          span[2] - span[1]).items():
                    tracer.count(key, amount)
            return result

        return probe

    def method(self, owner: type, attr: str, name: str,
               counts: Optional[Callable] = None,
               before: Optional[Callable] = None) -> None:
        """Probe ``owner.attr`` (looked up on the class itself)."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, counts, before))

    def function(self, module, attr: str, name: str,
                 counts: Optional[Callable] = None) -> None:
        """Probe ``module.attr`` everywhere the program imported it by name."""
        original = getattr(module, attr)
        probe = self._wrap(original, name, counts, None)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and \
                    getattr(loaded, attr, None) is original:
                self._undo.append((loaded, attr, original))
                setattr(loaded, attr, probe)

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #
class Phase:
    """What one measured phase produced: latencies, checked outcomes and the
    workload-specific figures derived from them."""

    def __init__(self):
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.figures: Dict[str, Tuple[float, str]] = {}
        self.problems: List[str] = []

    def outcome(self, ok: bool, problem: str = "") -> None:
        """Count one attempted operation; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem and len(self.problems) < 5:
                self.problems.append(problem)
