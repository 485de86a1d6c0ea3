"""In-memory spans for the traced run.

A span records a name, start, end, the span that caused it and the
request it belongs to; spans stay in memory and are written as JSON once
the run ends.  A layer's self time is its span's duration minus the part
of that interval its child spans cover.  The client is single-threaded,
so one stack of open spans is enough.
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
    def span(self, name: str, req: int | None = None, **counts):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "req": req, "start": time.perf_counter(), "end": None}
        rec.update(counts)
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds.  Children of one
        span run one after another (single thread), so their durations
        add up without overlap."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            own = (s["end"] - s["start"]) - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + max(own, 0.0)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "self_s": self.self_times()}, f)
