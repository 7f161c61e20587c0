"""In-memory span tracer for the benchmark.

Spans are recorded around calls made from the benchmark's own code:
either directly (``with tracer.span(name):``) or by temporarily
replacing a public function in the namespace of the module that calls
it (``tracer.wrap``), so that a call made inside the library shows up
as a child span without any tracing code in the library itself.

Each span has a name, a start and an end (``time.perf_counter``
seconds), the index of its parent span (or None) and the run id.
Spans stay in memory until ``write`` dumps them as JSON.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": 0.0, "end": 0.0,
               "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
        self._stack.append(rec["id"])
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrap(self, module, attr: str, name: str):
        """Trace every call of ``module.attr`` made while the block runs."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children.get(i, [])):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            out.append(s["end"] - s["start"] - covered)
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total and median duration, total self time."""
        selfs = self.self_times()
        groups: dict[str, list[tuple[float, float]]] = {}
        for s, st in zip(self.spans, selfs):
            groups.setdefault(s["name"], []).append((s["end"] - s["start"], st))
        return {
            name: {
                "count": len(v),
                "total_s": sum(d for d, _ in v),
                "median_s": statistics.median(d for d, _ in v),
                "self_s": sum(st for _, st in v),
            }
            for name, v in groups.items()
        }

    def span_cost(self, n: int = 2000) -> float:
        """Seconds one empty span costs, measured on a scratch tracer."""
        probe = Tracer(self.run_id)
        t0 = time.perf_counter()
        for _ in range(n):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - t0) / n

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)
