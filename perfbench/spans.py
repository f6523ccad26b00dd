"""In-memory span recorder for the benchmark's own layer timing.

Every timed call into a layer runs inside :meth:`Tracer.span`, which
records name, start, end, parent span and run id.  Spans stay in memory
until the run ends.  An untraced operation records only the benchmark's
sequential top-level calls; a traced one also wraps the library's inner
layer functions (:data:`TRACE_POINTS`) by patching each name where it
is looked up, and restores them afterwards.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "TRACE_POINTS"]

#: (module, attribute path, span name) of each inner layer boundary.  The
#: module is the one whose globals (or class) the caller resolves the
#: name through, so the patch is seen by the library's own call sites.
TRACE_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.partitioning.recursive", "multilevel_bisection",
     "partitioning.multilevel"),
    ("repro.partitioning.bisect", "coarsen_until", "partitioning.coarsen"),
    ("repro.partitioning.bisect", "gggp_bisection", "partitioning.initial"),
    ("repro.partitioning.bisect", "fm_refine", "partitioning.fm"),
    ("repro.propagation.engine", "PropagationEngine.run_iteration",
     "propagation.superstep"),
    ("repro.mapreduce.engine", "MapReduceEngine.run_round",
     "mapreduce.round"),
    ("repro.runtime.scheduler", "StageScheduler.run_stage", "runtime.stage"),
)


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span in
    the same tracer (-1 for a top-level call)."""

    name: str
    start: float
    end: float
    parent: int
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one operation, all sharing the run id ``run``."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), float("nan"), parent,
                               self.run))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def wrap(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Wrap every :data:`TRACE_POINTS` entry for the duration."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for module_name, path, name in TRACE_POINTS:
                owner: Any = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time child spans cover.

        Children of one span run sequentially inside it, so the covered
        time is the sum of their durations.
        """
        out = self.totals()
        for s in self.spans:
            if s.parent >= 0:
                out[self.spans[s.parent].name] -= s.duration
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)

    def covered(self) -> float:
        """Seconds inside any span (the sum of all self times)."""
        return sum(s.duration for s in self.spans if s.parent < 0)

    def dump(self) -> list[dict[str, Any]]:
        return [asdict(s) for s in self.spans]
