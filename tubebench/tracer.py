"""Span timing of library calls, installed from outside the library.

Inside a `with tracer:` block, each named function of each target module
is replaced by a wrapper that records one span per call.  The library
calls its own functions through module attributes (``gr.fourier_inverse``)
or module globals (``slice_grid`` inside ``boundary_grid``), and both
resolve at call time, so calls between wrapped functions nest as child
spans.  A span's self time is its duration minus the durations of its
direct children.

The span stack is shared by all wrappers, so a tracer serves one thread.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self, targets, clock=time.perf_counter):
        """`targets` holds (module, layer, names, counters) tuples; spans
        are keyed `layer.name`.  `counters` maps a name to a callable
        (args, kwargs, result) that returns {counter: amount} of work done
        by one successful call."""
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.work: dict[str, float] = {}
        self._child_s: list[float] = []
        self._swaps = [
            (module, name, getattr(module, name),
             self._wrap(f"{layer}.{name}", getattr(module, name), counters.get(name)))
            for module, layer, names, counters in targets
            for name in names
        ]

    def __enter__(self):
        for module, name, _, span in self._swaps:
            setattr(module, name, span)
        return self

    def __exit__(self, *exc):
        for module, name, fn, _ in self._swaps:
            setattr(module, name, fn)

    def _wrap(self, key, fn, counter):
        self.calls[key] = 0
        self.self_s[key] = 0.0

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child_s.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self.calls[key] += 1
                self.self_s[key] += duration - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += duration
            if counter is not None:
                for name, amount in counter(args, kwargs, result).items():
                    self.work[name] = self.work.get(name, 0.0) + amount
            return result

        return span
