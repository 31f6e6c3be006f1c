"""In-memory spans and counters for the traced benchmark run.

A span is ``(name, start, end, parent, tick)``: ``parent`` indexes the
enclosing open span (``-1`` at the top), ``tick`` is the stream tick the
harness was working on when the span opened.  Nothing is written while
the run measures; :func:`save_spans` writes everything at the end.

Spans are recorded from the benchmark's own code, around calls into the
layers' public functions (:func:`instrument`), never from inside the
program.  :attr:`Tracer.on` gates recording, so the harness can trace
every other pass and compare traced with untraced throughput.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    """Collects spans and counters while :attr:`on` is true."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.on = False
        #: Stream tick stamped on every span and counter recorded now.
        self.tick = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_tick: list[int] = []
        self._stack: list[int] = []
        self.count_name: list[int] = []
        self.count_tick: list[int] = []
        self.count_value: list[float] = []

    def _id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_tick.append(self.tick)
        self.span_end.append(float("nan"))
        self._stack.append(index)
        self.span_start.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.span_end[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was innermost")

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` at the current tick."""
        self.count_name.append(self._id(name))
        self.count_tick.append(self.tick)
        self.count_value.append(float(value))

    def arrays(self) -> dict[str, np.ndarray]:
        """Everything recorded, as plain arrays (picklable, savable)."""
        return {
            "names": np.asarray(self.names, dtype=str),
            "span_name": np.asarray(self.span_name, dtype=np.int32),
            "span_start": np.asarray(self.span_start, dtype=np.float64),
            "span_end": np.asarray(self.span_end, dtype=np.float64),
            "span_parent": np.asarray(self.span_parent, dtype=np.int64),
            "span_tick": np.asarray(self.span_tick, dtype=np.int64),
            "count_name": np.asarray(self.count_name, dtype=np.int32),
            "count_tick": np.asarray(self.count_tick, dtype=np.int64),
            "count_value": np.asarray(self.count_value, dtype=np.float64),
        }


def instrument(tracer: Tracer, owner, attr: str, name: str, counter=None) -> None:
    """Replace ``owner.attr`` by a wrapper that spans each call as ``name``.

    ``owner`` is an instance (the wrapper shadows the method for that
    object only) or a module (the wrapper replaces the module global the
    program looks up).  ``counter(tracer, args, kwargs, result)`` may add
    counters after each traced call.  A coroutine function's span ends
    when the awaited call completes.
    """
    fn = getattr(owner, attr)

    async def traced_coroutine(*args, **kwargs):
        if not tracer.on:
            return await fn(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = await fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result

    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result

    setattr(owner, attr, traced_coroutine if inspect.iscoroutinefunction(fn) else traced)


class Trace:
    """Per-name aggregates of recorded spans and counters, filtered by tick.

    A span's self time is its duration minus the time its direct children
    cover.  ``total`` counts a span only when its parent has another name,
    so a layer calling itself is not counted twice.
    """

    def __init__(self, arrays: dict[str, np.ndarray], keep_tick=None) -> None:
        self.names = [str(name) for name in arrays["names"]]
        duration = arrays["span_end"] - arrays["span_start"]
        if np.isnan(duration).any():
            raise ValueError("trace holds spans that were never closed")
        name_id = arrays["span_name"]
        parent = arrays["span_parent"]
        has_parent = parent >= 0
        child_time = np.zeros_like(duration)
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        outermost = np.ones(duration.shape, dtype=bool)
        outermost[has_parent] = name_id[parent[has_parent]] != name_id[has_parent]
        span_keep = _mask(arrays["span_tick"], keep_tick)
        self.total: dict[str, float] = defaultdict(float)
        self.self_total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        for ident, dur, own, outer in zip(
            name_id[span_keep], duration[span_keep], self_time[span_keep], outermost[span_keep]
        ):
            name = self.names[ident]
            self.self_total[name] += float(own)
            if outer:
                self.total[name] += float(dur)
                self.calls[name] += 1
                self.durations[name].append(float(dur))
        count_keep = _mask(arrays["count_tick"], keep_tick)
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        for ident, value in zip(
            arrays["count_name"][count_keep], arrays["count_value"][count_keep]
        ):
            self.counts[self.names[ident]] += float(value)
            self.values[self.names[ident]].append(float(value))


def _mask(ticks: np.ndarray, keep_tick) -> np.ndarray:
    if keep_tick is None:
        return np.ones(ticks.shape, dtype=bool)
    return keep_tick(ticks)


def save_spans(path: Path, parts: dict[str, dict[str, np.ndarray]]) -> None:
    """Write each process's recorded arrays to one ``.npz``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    flat = {
        f"{part}.{key}": value for part, arrays in parts.items() for key, value in arrays.items()
    }
    np.savez_compressed(path, **flat)


def percentile(values, q: float, min_tail: int = 10) -> float:
    """The ``q``-th percentile, refused unless ``min_tail`` samples lie beyond it.

    A percentile with fewer than ``min_tail`` samples above it is set by
    a handful of outliers, so it is not reported: p95 needs at least 200
    samples, the median 20.
    """
    values = np.asarray(values, dtype=np.float64)
    tail = values.size * (1.0 - q / 100.0)
    if tail < min_tail - 1e-9:
        raise ValueError(
            f"p{q:g} needs {int(np.ceil(min_tail / (1.0 - q / 100.0)))} samples "
            f"for {min_tail} beyond it, got {values.size}"
        )
    return float(np.percentile(values, q))
