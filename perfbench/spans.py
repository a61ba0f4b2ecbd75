"""In-memory spans around the program's public functions, for the traced run.

``Tracer.install`` replaces each named function or method, in place and in
every ``mcarules`` module that imported it, with a wrapper that records a
span (name, start, end, parent). ``uninstall`` puts the originals back.
Spans stay in memory until ``write`` dumps them as JSON lines. Work done in
the sampler's worker processes is not recorded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span opened by the benchmark itself around the ``with`` body."""
        span_id = self._open(name)
        try:
            yield
        finally:
            self._close(span_id)

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = Span(len(self.spans), name, 0.0, 0.0, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter()
        return span.id

    def _close(self, span_id: int) -> None:
        self.spans[span_id].end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id)

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(owner, attribute, span name)``; owners are modules or classes."""
        modules = [m for n, m in sys.modules.items() if n == "mcarules" or n.startswith("mcarules.")]
        for owner, attribute, name in targets:
            original = getattr(owner, attribute)
            wrapped = self._wrap(original, name)
            holders = [owner] + [m for m in modules if m is not owner and getattr(m, attribute, None) is original]
            for holder in holders:
                self._patched.append((holder, attribute, original))
                setattr(holder, attribute, wrapped)

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._patched):
            setattr(holder, attribute, original)
        self._patched.clear()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, span: Span) -> float:
        """Duration minus the time covered by child spans (children never overlap)."""
        return span.seconds - sum(c.seconds for c in self.children(span))

    def under(self, name: str, root: str) -> list[Span]:
        """Spans called ``name`` that have an ancestor called ``root``."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and self.spans[p].name != root:
                p = self.spans[p].parent
            if p is not None:
                out.append(s)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
