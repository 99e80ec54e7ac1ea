"""Span recording for the traced run, and the per-layer arithmetic on spans.

A span is ``[name, start, end, parent, op_id]`` with times from
``time.perf_counter``.  The recorder keeps spans in memory; the worker
writes them out once the run has ended.  The untraced run uses
``NullRecorder``, which calls straight through and records nothing.

Span names start with the layer they measure (``kernels.density.far``),
so a layer's numbers are the spans whose first name component is that
layer.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import PurePath

#: the package whose frames decide which layer raised an exception
PACKAGE = "heatrates"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def raising_layer(exc: BaseException) -> str | None:
    """Module name of the deepest package frame in the traceback, if any."""
    layer = None
    tb = exc.__traceback__
    while tb is not None:
        parts = PurePath(tb.tb_frame.f_code.co_filename).parts
        if len(parts) >= 2 and parts[-2] == PACKAGE:
            layer = parts[-1].removesuffix(".py")
        tb = tb.tb_next
    return layer


class NullRecorder:
    """Untraced run: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    def peak(self, name, value):
        pass

    @contextmanager
    def op(self, op_id, kind):
        yield


class Recorder:
    """Traced run: one span per call, warnings and exceptions counted per layer."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.warnings: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception type) -> count
        self.maxima: dict = {}
        self._stack: list[int] = []
        self._op_id = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        idx = self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        # The default filters stay in force; entering catch_warnings resets
        # the once-per-location registry, as the package's own _quad does,
        # so each call counts the warnings it emits.  The span sits inside
        # the context, so its cost is not charged to the layer.
        with warnings.catch_warnings(record=True) as caught:
            self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                layer = raising_layer(exc) or layer_of(name)
                self.errors[(layer, type(exc).__name__)] += 1
                raise
            finally:
                self._close()
                self.warnings[layer_of(name)] += len(caught)

    def count(self, name, n=1):
        self.counts[name] += n

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    @contextmanager
    def op(self, op_id, kind):
        self._op_id = op_id
        self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close()
            self._op_id = None


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, (_name, start, end, _parent, _op) in enumerate(spans):
        covered, cursor = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def mean_self_time(spans, selfs, names) -> float:
    """Mean self time in seconds over spans with one of ``names`` (0 if none)."""
    vals = [t for s, t in zip(spans, selfs) if s[0] in names]
    return sum(vals) / len(vals) if vals else 0.0
