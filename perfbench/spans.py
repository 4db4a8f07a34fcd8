"""In-memory span recorder wrapped around calls into the package.

A span is (id, parent id, name, start, end) on ``time.perf_counter``.
Spans are only kept in a list; ``dump`` writes them out once the run ends.
``patch`` swaps a module attribute for a recording wrapper, so calls the
package makes through that attribute are recorded without editing it.
Spans opened in forked worker processes stay in those processes.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def patch(self, module, attr, name):
        original = getattr(module, attr)

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, recorded)
        self._patched.append((module, attr, original))

    def unpatch(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def durations(self, name):
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def summary(self):
        """Per name: calls, total and self time in seconds.

        Self time is a span's duration less that of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child_time[s[1]] += s[4] - s[3]
        out = {}
        for s in self.spans:
            row = out.setdefault(s[2], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[4] - s[3]
            row["self_s"] += s[4] - s[3] - child_time[s[0]]
        return out

    def dump(self, path):
        fields = ("id", "parent", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)
