"""Outside-in layer spans: wrap each layer's entry points, sum self time.

The traced run patches the public entry points of every ``src/repro``
layer (class attributes, restored afterwards) with wrappers that open a
span on a :class:`SpanTracer`.  Spans nest on one stack because the
simulator, the engine and the gateway's synchronous callbacks all run
on a single thread; a span's *self time* is its duration minus the time
covered by its child spans, so the self times of all spans plus the
time spent outside any span add up exactly to the traced wall time.

Actions handed to ``Simulator.schedule`` / ``schedule_after`` are
wrapped too, each as a child span named after the layer whose module
defined the callback, so the dispatch from the simulator heap into the
engine, the cluster router or the gateway is measured where it happens.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable

#: Module prefix -> layer, longest prefix first.  Code in any other
#: module (the ``repro.api`` facade, ``repro.core.request``) opens no
#: span: its time lands in the enclosing span or in ``unattributed_s``.
MODULE_LAYERS = (
    ("repro.engine.prefix", "engine.prefix"),
    ("repro.engine.kvcache", "engine.kv"),
    ("repro.engine", "engine"),
    ("repro.simcore", "simcore"),
    ("repro.schedulers", "schedulers"),
    ("repro.core.chunking", "core.chunking"),
    ("repro.core.relegation", "core.relegation"),
    ("repro.core.predictor", "forest"),
    ("repro.forest", "forest"),
    ("repro.cluster", "cluster"),
    ("repro.obs", "obs"),
    ("repro.serve", "serve"),
    ("repro.metrics", "metrics"),
)

#: Every layer a traced run reports, in report order.
LAYERS = tuple(dict.fromkeys(layer for _, layer in MODULE_LAYERS))


def layer_of_module(module: str) -> str | None:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def layer_of_callable(action: Callable) -> str | None:
    """Layer owning ``action`` (function, bound method or partial)."""
    fn = action
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return layer_of_module(getattr(fn, "__module__", None) or "")


class SpanTracer:
    """Span stack with per-layer self time and named counters.

    Args:
        clock: Seconds source; injectable so tests can drive the
            arithmetic with synthetic timestamps.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        # Each frame: [layer, name, start, time covered by children].
        self._stack: list[list] = []

    @property
    def depth(self) -> int:
        return len(self._stack)

    def innermost(self) -> tuple[str, str] | None:
        """(layer, name) of the open innermost span, if any."""
        if not self._stack:
            return None
        frame = self._stack[-1]
        return frame[0], frame[1]

    def active(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open anywhere on the stack."""
        return any(frame[0] == layer for frame in self._stack)

    def enter(self, layer: str, name: str) -> None:
        self._stack.append([layer, name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        layer, _, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - children
        if self._stack:
            self._stack[-1][3] += duration
        return duration

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


class Patcher:
    """Replaces class attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def replace(self, cls: type, attr: str, value: object) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def restore(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)


def span_wrapper(
    tracer: SpanTracer,
    layer: str,
    fn: Callable,
    *,
    count: str | None = None,
    on_result: Callable | None = None,
) -> Callable:
    """Wrap ``fn`` in a ``layer`` span.

    ``count`` names a counter bumped once per call that is not nested
    inside another call of the same wrapped name (a subclass method
    calling its ``super()`` counts once).
    ``on_result(result, args, kwargs)`` sees each call's arguments and
    return value.
    """
    name = fn.__qualname__.rsplit(".", 1)[-1]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None and tracer.innermost() != (layer, name):
            tracer.counts[count] += 1
        tracer.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if on_result is not None:
            on_result(result, args, kwargs)
        return result

    return wrapper


def action_wrapper(tracer: SpanTracer, action: Callable) -> Callable:
    """Run a scheduled simulator action as a span of its owning layer."""
    layer = layer_of_callable(action)
    if layer is None:
        return action

    def traced_action():
        tracer.enter(layer, "action")
        try:
            action()
        finally:
            tracer.exit()

    return traced_action


def timing_wrapper(samples: list[float], fn: Callable) -> Callable:
    """Record each call's wall duration in ``samples`` (no span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)

    return wrapper
