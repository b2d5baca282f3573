"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into lunet from the benchmark's own files:
the bound `forward`/`backward` of each layer instance and module-level
functions are replaced by timing wrappers for the duration of a run and put
back afterwards. Nothing inside `lunet` is edited.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


_MISSING = object()


class Tracer:
    """Spans as [name, start, end, parent index, attrs], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name: str, start: float | None = None, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter() if start is None else start,
                           None, parent, attrs])
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        """End span `sid`, and any span still open inside it (left open when
        an exception unwound past its closing hook)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == sid:
                return
        raise RuntimeError(f"span {self.spans[sid][0]!r} is not open")

    def close_current(self):
        self.close(self._stack[-1])

    @property
    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace `owner.attr` with a wrapper that records a span `name`.

        `before(args)` may return extra span attributes; `after(attrs, args,
        result)` may add more once the call returns. `restore()` undoes it.
        """
        original = getattr(owner, attr)
        # an attribute the owner holds itself is put back as it was; one it
        # only looks up (a bound method on an instance) is deleted again
        saved = vars(owner).get(attr, _MISSING)
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = before(args) if before else {}
            sid = tracer.open(name, **attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after:
                after(tracer.spans[sid][4], args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, saved))
        return wrapper

    def mark(self) -> int:
        return len(self._patches)

    def restore(self, mark: int = 0):
        """Undo the wraps made since `mark` (all of them by default)."""
        while len(self._patches) > mark:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # ---- analysis -------------------------------------------------------

    def duration(self, sid: int) -> float:
        s = self.spans[sid]
        return s[2] - s[1]

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for sid, s in enumerate(self.spans):
            if s[3] >= 0:
                kids[s[3]].append(sid)
        return kids

    def self_times(self) -> list[float]:
        """Span duration minus the part of it its child spans cover."""
        kids = self.children()
        out = []
        for sid, s in enumerate(self.spans):
            covered = sum(min(self.spans[k][2], s[2]) - max(self.spans[k][1], s[1])
                          for k in kids[sid])
            out.append(s[2] - s[1] - covered)
        return out

    def roots_under(self, op_name: str) -> dict[int, int]:
        """Map each span id to the id of its nearest ancestor named `op_name`
        (or itself); spans outside any such op are left out."""
        owner: dict[int, int] = {}
        for sid, s in enumerate(self.spans):
            if s[0] == op_name:
                owner[sid] = sid
            elif s[3] in owner:
                owner[sid] = owner[s[3]]
        return owner

    def named(self, name: str) -> list[int]:
        return [sid for sid, s in enumerate(self.spans) if s[0] == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                        **({"attrs": s[4]} if s[4] else {})} for s in self.spans],
                      fh, default=str)


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default
