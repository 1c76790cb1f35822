"""In-memory spans around calls into the program's layers.

A span is (id, name, op, start, end, parent). Spans of one op share the
op's number; ``parent`` is the span open when it began. The traced run
also wraps functions that the program looks up by module attribute at
call time (``Tracer.wrap``); untraced runs use ``NULL`` and wrap nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.returned: dict[str, object] = {}   # last result per wrapped name

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @contextlib.contextmanager
    def in_op(self, op: int):
        self.op = op
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def wrap(self, module, attr: str, name: str) -> None:
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*a, **kw):
            with self.span(name):
                result = orig(*a, **kw)
            self.returned[name] = result
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def unwrap_all(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def totals(self, op: int) -> dict[str, float]:
        """Seconds per span name within one op, summed over calls."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["op"] == op and s["end"] is not None:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


class _NullTracer:
    """Untraced runs: spans and ops cost one no-op context manager."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def in_op(self, op: int):
        return contextlib.nullcontext()


NULL = _NullTracer()
