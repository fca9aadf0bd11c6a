"""Spans around the benchmark's own calls into each platkit module.

A span is (id, parent id, operation id, name, start, end).  Spans stay in
a list in memory and are written out once, when the run ends.  Names are
``<module>.<function>`` for library calls and ``op.<kind>`` for the
operation that encloses them, so the module is the text before the dot.
"""

from __future__ import annotations

import json
from time import perf_counter

LAYERS = ("words", "laurent", "plats", "hilden", "stabilize", "systems", "bands", "motion", "cli")


class NullTracer:
    """Untraced runs: call straight through."""

    def call(self, layer: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op_id: int, kind: str) -> None:
        pass

    def end_op(self) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._op: tuple[int, int, str, float] | None = None

    def begin_op(self, op_id: int, kind: str) -> None:
        span_id = len(self.spans)
        self.spans.append(None)  # filled in by end_op
        self._op = (span_id, op_id, kind, perf_counter())

    def end_op(self) -> None:
        span_id, op_id, kind, start = self._op
        self.spans[span_id] = (span_id, None, op_id, f"op.{kind}", start, perf_counter())
        self._op = None

    def call(self, layer: str, fn, *args, **kwargs):
        parent, op_id = (self._op[0], self._op[1]) if self._op else (None, None)
        name = f"{layer}.{fn.__name__}"
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((len(self.spans), parent, op_id, name, start, perf_counter()))

    def times(self) -> dict[str, dict[str, float]]:
        """Busy and self time per module, plus per-name busy time and call counts."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span[1] is not None:
                covered[span[1]] = covered.get(span[1], 0.0) + span[5] - span[4]
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        by_name: dict[str, float] = {}
        calls: dict[str, int] = {}
        for sid, _parent, _op, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            length = end - start
            busy[layer] = busy.get(layer, 0.0) + length
            own[layer] = own.get(layer, 0.0) + length - covered.get(sid, 0.0)
            by_name[name] = by_name.get(name, 0.0) + length
            calls[name] = calls.get(name, 0) + 1
        return {"busy": busy, "self": own, "by_name": by_name, "calls": calls}

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
