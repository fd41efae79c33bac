"""In-memory spans around the calls that cross decolab's module boundaries.

Spans are recorded by replacing module attributes with timing wrappers, so
the program itself is never edited; :meth:`Tracer.installed` restores every
attribute on exit.  A layer's self time is its span's duration minus the
durations of its direct children (calls are single-threaded, so children
never overlap each other).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

#: span name -> the (module, attribute) pairs through which callers reach it
WRAPPED = {
    "cli.main": [("decolab.cli", "main")],
    "circuit.parse_circuit_file": [("decolab.cli", "parse_circuit_file")],
    "analysis.distance_report": [("decolab.analysis", "distance_report")],
    "analysis.pairwise_profiles": [("decolab.analysis", "pairwise_profiles")],
    "analysis.practically_worthless": [("decolab.analysis", "practically_worthless")],
    "analysis.worthless": [("decolab.analysis", "worthless")],
    "circuit.run_noisy": [("decolab.analysis", "run_noisy"), ("decolab.circuit", "run_noisy")],
    "circuit.apply_layer": [("decolab.circuit", "apply_layer")],
    "channels.depolarize_all": [("decolab.circuit", "depolarize_all")],
    "linalg.permute_matrix": [("decolab.circuit", "permute_matrix")],
    "linalg.settle": [("decolab.circuit", "settle")],
    "linalg.trace_distance": [("decolab.analysis", "trace_distance")],
}

TASK_SPAN = "bench.task"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    task: int
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.task = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, perf_counter(), 0.0, parent, self.task)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        except BaseException:
            record.error = True
            raise
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every attribute in :data:`WRAPPED`; yields the span names that
        could not be installed because their attribute no longer exists."""
        saved = []
        missing = []
        try:
            for name, targets in WRAPPED.items():
                for module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if original is None:
                        missing.append(name)
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
            yield sorted(set(missing))
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def nesting_violations(self) -> int:
        """Spans whose interval is not inside their parent's interval."""
        bad = 0
        for s in self.spans:
            if s.parent >= 0:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    bad += 1
        return bad

    def summary(self, tasks: int) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds per task, median call in
        microseconds, and the number of calls that raised."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        grouped: dict[str, list[tuple[float, float, bool]]] = {}
        for s, children in zip(self.spans, child_time):
            grouped.setdefault(s.name, []).append((s.duration, s.duration - children, s.error))
        out = {}
        for name in list(WRAPPED) + [TASK_SPAN]:
            rows = grouped.get(name, [])
            out[name] = {
                "calls": len(rows) / tasks,
                "self_s": sum(r[1] for r in rows) / tasks,
                "p50_us": statistics.median(r[0] for r in rows) * 1e6 if rows else 0.0,
                "errors": float(sum(r[2] for r in rows)),
            }
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.task, s.error]))
                fh.write("\n")
