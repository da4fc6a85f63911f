"""In-memory span recorder that wraps a program's public functions from outside.

A span is ``[name, parent_index, op, start, end, rows]``. Wrapping replaces a
function at every module attribute that holds it, so callers that reach it
as ``enc.forward`` and callers that imported it by name both record spans.
Nothing in the program under test changes; ``uninstall`` puts every
original back.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

NAME, PARENT, OP, START, END, ROWS = range(6)


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: List[list] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def _wrap(self, name: str, fn: Callable, rows: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, clock(), 0.0,
                   rows(args) if rows is not None else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap each ``(owner, attribute, span_name, rows)`` target.

        ``owner`` is a module or class. A module-level function is replaced
        in every loaded module of the package that holds the same object.
        """
        for owner, attr, name, rows in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, rows)
            holders = [owner]
            if not isinstance(owner, type):
                holders = [m for key, m in list(sys.modules.items())
                           if m is not None and (key == self.package or
                                                 key.startswith(self.package + "."))]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def wrapper_cost_s(self, calls: int = 50_000, repeats: int = 5) -> float:
        """Seconds one wrapped call adds to a bare call, measured on a no-op.

        Uses a throwaway tracer, so this tracer's spans are untouched.
        """
        def noop():
            return None

        probe = Tracer(self.package)
        wrapped = probe._wrap("noop", noop, None)

        def best(fn):
            times = []
            for _ in range(repeats):
                probe.spans.clear()
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        return (best(wrapped) - best(noop)) / calls

    # ------------------------------------------------------------------
    def children(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            out[span[PARENT]].append(i)
        return out

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self, ops) -> Dict[str, Dict[str, float]]:
        """Per span name: busy seconds, self seconds, calls and rows over ``ops``."""
        ops = set(ops)
        own = self.self_times()
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0})
        for i, s in enumerate(self.spans):
            if s[OP] not in ops:
                continue
            row = out[s[NAME]]
            row["s"] += s[END] - s[START]
            row["self_s"] += own[i]
            row["calls"] += 1
            row["rows"] += s[ROWS]
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "op", "start", "end", "rows"],
                       "spans": self.spans}, fh)
