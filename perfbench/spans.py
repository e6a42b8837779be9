"""In-memory spans for the traced (per-layer) run of the benchmark.

A :class:`Tracer` records one span per call at a layer boundary: name,
layer, start, end, parent span and the run id shared by one workload run.
Spans stay in memory and are written once, when the benchmark ends.

Calls that happen hundreds of thousands of times (vulnerability-map site
queries, frontier inserts, per-replay simulator calls) are *hot* spans: they
take part in the parent/child accounting exactly like ordinary spans, but
are folded into one aggregate per (name, parent) instead of one record each,
so a traced sweep does not hold millions of records.

A layer's self time is its spans' durations minus the time their child
spans cover; :func:`self_time_by_layer` sums it per layer.

:func:`instrumented` puts spans around the public functions of the
``repro`` layers by swapping the attribute on its owning class or module for
the duration of a ``with`` block, so calls the library makes internally
(e.g. the engine calling ``BaseCore.resume``) are attributed too.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

LAYERS = ("bench", "workloads", "microarch", "engine", "faultinjection",
          "core", "resilience", "physical", "analysis")
"""Layer names, in table order; ``bench`` is the benchmark's own glue."""


@dataclass
class Frame:
    """One open (or, after exit, finished) span."""

    span_id: int
    name: str
    layer: str
    parent: int | None
    start: float
    hot: bool
    args: dict = field(default_factory=dict)
    child_s: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one workload run (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, str, int | None], list[float]] = {}
        self._stack: list[Frame] = []
        self._next_id = 1

    def enter(self, name: str, layer: str, hot: bool = False,
              **args) -> Frame:
        parent = self._stack[-1].span_id if self._stack else None
        frame = Frame(self._next_id, name, layer, parent,
                      time.perf_counter(), hot, args)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: Frame) -> None:
        frame.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order "
                               f"(innermost open span is {popped.name!r})")
        duration = frame.duration
        if self._stack:
            self._stack[-1].child_s += duration
        self_s = duration - frame.child_s
        if frame.hot:
            key = (frame.name, frame.layer, frame.parent)
            aggregate = self.aggregates.get(key)
            if aggregate is None:
                self.aggregates[key] = [1, duration, self_s]
            else:
                aggregate[0] += 1
                aggregate[1] += duration
                aggregate[2] += self_s
            return
        self.spans.append({"id": frame.span_id, "run": self.run_id,
                           "name": frame.name, "layer": frame.layer,
                           "parent": frame.parent, "start": frame.start,
                           "end": frame.end, "self_s": self_s,
                           "args": frame.args})

    @contextmanager
    def span(self, name: str, layer: str, **args) -> Iterator[Frame]:
        frame = self.enter(name, layer, **args)
        try:
            yield frame
        finally:
            self.exit(frame)

    # ------------------------------------------------------------------ queries
    def totals(self, name: str) -> tuple[int, float]:
        """(call count, summed duration) of every span called ``name``."""
        count, total = 0, 0.0
        for record in self.spans:
            if record["name"] == name:
                count += 1
                total += record["end"] - record["start"]
        for (agg_name, _, _), (calls, duration, _) in self.aggregates.items():
            if agg_name == name:
                count += int(calls)
                total += duration
        return count, total

    def durations(self, name: str) -> list[float]:
        """Durations of the individually recorded spans called ``name``."""
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def to_dict(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "aggregates": [{"name": name, "layer": layer,
                                "parent": parent, "count": int(calls),
                                "total_s": duration, "self_s": self_s}
                               for (name, layer, parent),
                               (calls, duration, self_s)
                               in self.aggregates.items()]}


def self_time_by_layer(tracer: Tracer) -> dict[str, float]:
    """Summed self time (s) per layer over every span of ``tracer``."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for record in tracer.spans:
        totals[record["layer"]] += record["self_s"]
    for (_, layer, _), (_, _, self_s) in tracer.aggregates.items():
        totals[layer] += self_s
    return totals


def format_self_time_table(tracers: list[Tracer]) -> str:
    """One row per workload run, one column per layer: self seconds."""
    header = f"{'run':<40}" + "".join(f"{layer:>15}" for layer in LAYERS)
    lines = ["per-layer self time (s)", header]
    for tracer in tracers:
        totals = self_time_by_layer(tracer)
        lines.append(f"{tracer.run_id:<40}"
                     + "".join(f"{totals[layer]:>15.3f}" for layer in LAYERS))
    return "\n".join(lines)


# ---------------------------------------------------------------------- patching
@dataclass(frozen=True)
class Probe:
    """A public function to wrap: ``owner.attr`` becomes a span.

    ``name`` may be a callable receiving the call's arguments and returning
    the span name, which lets one probe split e.g. first and cached
    evaluations of a combination.
    """

    owner: object
    attr: str
    name: str | Callable[..., str]
    layer: str
    hot: bool = False


def _wrap(tracer: Tracer, function: Callable, probe: Probe) -> Callable:
    namer = probe.name if callable(probe.name) else None
    name, layer, hot = probe.name, probe.layer, probe.hot

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(namer(*args, **kwargs) if namer else name,
                             layer, hot)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


@contextmanager
def instrumented(tracer: Tracer, probes: list[Probe]) -> Iterator[None]:
    """Swap every probed attribute for a span wrapper; restore on exit."""
    saved = []
    try:
        for probe in probes:
            if probe.attr not in vars(probe.owner):
                raise AttributeError(f"{probe.owner!r} does not define "
                                     f"{probe.attr!r}; probe the defining "
                                     f"class or module")
            original = vars(probe.owner)[probe.attr]
            setattr(probe.owner, probe.attr, _wrap(tracer, original, probe))
            saved.append((probe.owner, probe.attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
