"""Per-layer tracing from outside the program.

A Tracer replaces a module attribute (the name a caller looks up) with a
wrapper that times each call as a span. Spans nest as the calls nest, so a
layer's self time is its span's duration minus the time its child spans
cover. Counters are read from each call's arguments and return value after
the span closes.

Nothing in the program changes: uninstall() puts every original back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._children: list[int] = []  # per open span: time covered by its children
        self._installed: list[tuple[object, str, object]] = []
        # layer -> {"calls": n, "self_ns": t, <counter>: total, ...}
        self.layers: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.missing: list[str] = []
        self.count_errors = 0

    def wrap(self, layer: str, fn, count=None):
        """Return fn timed as a span of `layer`.

        count(result, args, kwargs) -> {counter: increment}. A counter that
        no longer fits the call's return value is skipped and tallied in
        count_errors, so a changed signature never fails an op.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._clock() - start
                covered = self._children.pop()
                if self._children:
                    self._children[-1] += duration
                record = self.layers[layer]
                record["calls"] += 1
                record["self_ns"] += duration - covered
            if count is not None:
                try:
                    increments = count(result, args, kwargs)
                except Exception:  # a refactored return value must not fail the op
                    self.count_errors += 1
                else:
                    for key, value in increments.items():
                        record[key] += value
            return result

        return traced

    def install(self, module, name: str, layer: str, count=None) -> None:
        """Wrap module.<name>; a name the module no longer has is recorded
        as missing and its layer reports zero calls."""
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        self._installed.append((module, name, original))
        setattr(module, name, self.wrap(layer, original, count))

    def uninstall(self) -> None:
        while self._installed:
            module, name, original = self._installed.pop()
            setattr(module, name, original)

    def total(self, layer: str, key: str) -> int:
        record = self.layers.get(layer)
        return record.get(key, 0) if record else 0
