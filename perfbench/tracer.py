"""Outside-in tracer: wraps public functions of `prismal` from outside.

`Tracer.install` replaces every binding of each target function, in every
`prismal` module namespace (and, for methods, under every alias in the
owning class), by a wrapper that records a span; `Tracer.uninstall` puts
every original binding back, so code run afterwards is unpatched.

For each wrapped name the tracer keeps the call count, the inclusive
seconds of outermost frames only (a recursive call is not counted twice)
and the self seconds, which is a span's duration minus the time covered by
its child spans.  A wrapper's hook runs after its span closes; its time is
taken off the tracer's clock, so it counts in no span, neither as self
time nor inside any enclosing span.  Spans (id, parent id, name, start,
end, on that clock) are kept in memory, the first MAX_SPANS of them, and
written out by `write_spans`; a traced run makes over a million, which
would hold hundreds of MB.  The aggregates count every span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

MAX_SPANS = 100_000


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # hook seconds so far, taken off every reading of `clock`
        self._hidden = 0.0
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.missing: list[str] = []
        self._depth: dict[str, int] = defaultdict(int)
        # one frame per open span: [child seconds, span id]
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def enter(self, name: str) -> tuple:
        frame = [0.0, self._next_id]
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        self._stack.append(frame)
        self._depth[name] += 1
        return frame, parent, self.clock() - self._hidden

    def exit(self, name: str, token: tuple) -> float:
        frame, parent, start = token
        end = self.clock() - self._hidden
        self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_time[name] += dur - frame[0]
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += dur
        if self._stack:
            self._stack[-1][0] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[1], parent, name, start, end))
        else:
            self.dropped_spans += 1
        return dur

    def wrap(self, fn, name: str, hook=None):
        """`hook(tracer, args, kwargs, result, seconds)` runs after the span
        closes; its own time is counted in no span."""
        def traced(*args, **kwargs):
            token = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.exit(name, token)
            if hook is not None:
                t0 = self.clock()
                hook(self, args, kwargs, result, dur)
                self._hidden += self.clock() - t0
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------
    def install(self, targets) -> None:
        """targets: (name, owner, attribute, hook) with `owner` a module or
        a class.  Missing attributes are recorded in `missing`."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "prismal" or k.startswith("prismal."))]
        for name, owner, attr, hook in targets:
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name, hook)
            holders = list(modules)
            if isinstance(owner, type):
                holders.append(owner)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def installed(self) -> int:
        return len(self._patches)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
