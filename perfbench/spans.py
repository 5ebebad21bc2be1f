"""In-memory span recorder for the benchmark's traced runs.

A span is recorded around each call the benchmark makes into a layer of
the package; nothing inside the package is instrumented.  Each span keeps
its name, start, end, parent and an optional tag (the |c| decade of a
Dedekind or rho call).  Spans stay in memory until the run ends, when
:meth:`Tracer.dump` writes them out.

The untraced runs use :class:`NullTracer`, whose ``call`` only forwards,
so the same workload code serves both.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def decade(c: int) -> str:
    """``c1eK`` for 10^K <= |c| < 10^(K+1)."""
    return f"c1e{len(str(abs(c))) - 1}"


class NullTracer:
    """Forwards calls unchanged; counters are kept so results still add up."""

    enabled = False

    def __init__(self) -> None:
        self.counters: Dict[str, float] = defaultdict(float)

    def call(self, name: str, fn: Callable, *args, tag: Optional[str] = None, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, tag: Optional[str] = None):
        yield

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount


class Tracer(NullTracer):
    """Records spans as ``[name, start_ns, end_ns, parent, tag]`` lists."""

    enabled = True

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, tag: Optional[str] = None):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, tag]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args, tag: Optional[str] = None, **kwargs):
        with self.span(name, tag):
            return fn(*args, **kwargs)

    def self_times_ns(self) -> List[int]:
        """Duration of each span minus the time its children cover.

        Spans nest on one thread, so children never overlap and the time
        they cover is the sum of their durations.
        """
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self) -> Dict[str, float]:
        """``<span>.calls``, ``.self_s``, ``.p50_us`` and ``.<decade>.p50_us``."""
        self_ns = self.self_times_ns()
        durations: Dict[str, List[int]] = defaultdict(list)
        by_decade: Dict[str, List[int]] = defaultdict(list)
        self_total: Dict[str, int] = defaultdict(int)
        for (name, start, end, _, tag), own in zip(self.spans, self_ns):
            durations[name].append(end - start)
            self_total[name] += own
            if tag is not None:
                by_decade[f"{name}.{tag}"].append(end - start)
        out: Dict[str, float] = {}
        for name, values in durations.items():
            out[f"{name}.calls"] = len(values)
            out[f"{name}.self_s"] = self_total[name] / 1e9
            out[f"{name}.p50_us"] = statistics.median(values) / 1e3
        for key, values in by_decade.items():
            out[f"{key}.p50_us"] = statistics.median(values) / 1e3
        out.update(self.counters)
        return out

    def dump(self, path: str) -> None:
        """Write every span, gzip-compressed JSON, once the run is over."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "tag"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
