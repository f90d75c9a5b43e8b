"""In-memory spans around the benchmark's calls into funcbin.

A span records its name, start, end, parent span and a few attributes
(such as the kernel taps of a binning call). Spans stay in memory while the
benchmark runs and are written once, at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; yields the span's attribute dict for the caller to fill."""
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "attrs": attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover (one thread, so children never overlap)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, covered)]

    def by_name(self) -> dict[str, list[tuple[float, dict]]]:
        """Self time and attributes of every span, grouped by span name."""
        out: dict[str, list[tuple[float, dict]]] = {}
        for s, t in zip(self.spans, self.self_times()):
            out.setdefault(s["name"], []).append((t, s["attrs"]))
        return out

    def write(self, path, **header) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)
            fh.write("\n")
