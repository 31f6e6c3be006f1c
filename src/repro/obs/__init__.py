"""repro.obs — opt-in runtime observability for the whole stack.

The streaming/federated engine runs unattended; this package is its
flight recorder: process-local :class:`Counter` / :class:`Gauge` /
:class:`Histogram` primitives (numpy-backed, allocation-free on the hot
path), a ``span(name)`` stage timer, Prometheus text exposition
(:func:`render_prometheus`) and JSONL snapshot export
(:class:`JsonlSink`).

Observability is **opt-in and zero-cost by default**: the module-level
registry starts as a :class:`NullRegistry` whose accessors return shared
no-op singletons, so every instrumented hot path pays only a handful of
attribute lookups until :func:`enable` is called (or the process starts
with ``REPRO_OBS=1`` in the environment).  Enabling never changes
pipeline *results* — flags, scores and mitigated outputs are bit-
identical with observability on or off (regression-tested in
``tests/obs``); only timings move, CI-gated at <= 5% block-mode
throughput overhead by ``benchmarks/bench_streaming.py obs_overhead``.

Instrumented out of the box:

* ``StreamingDetector.process_block`` (and its ``B = 1`` view
  ``process_tick``) — per-stage spans (validate, scale/buffer, forward,
  threshold) plus counters for readings, flags, missing readings and
  no-anchor impute fallbacks;
* ``StreamReplayEngine.run`` — a step latency histogram
  (``repro_stream_tick_seconds`` at ``block_size=1``,
  ``repro_stream_block_seconds`` otherwise), a mitigate span,
  readings/s gauge, churn and fallback-wiring counters;
* ``repro.stream.checkpoint`` — save/load durations, checkpoint bytes,
  and member files written;
* ``repro.nn.backend`` — kernel dispatch counts per resolved backend;
* ``Sequential.fit`` — per-epoch timings;
* ``FederatedSimulation`` — per-round client/barrier/aggregate timings.

Quickstart::

    from repro import obs
    from repro.obs import JsonlSink, render_prometheus

    registry = obs.enable()              # flip the global switch on
    ... run the pipeline ...
    print(render_prometheus(registry))   # scrape-ready text exposition
    JsonlSink("metrics.jsonl").write(registry)   # one-line JSON snapshot
"""

from __future__ import annotations

import os

from repro.obs.exposition import render_prometheus, series_name
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.sinks import JsonlSink

#: Environment variable that enables observability at import time.
ENV_VAR = "REPRO_OBS"

_NULL = NullRegistry()
_active: MetricsRegistry | NullRegistry = _NULL


def registry() -> MetricsRegistry | NullRegistry:
    """The active registry (the shared no-op when observability is off).

    Hot paths call this once per tick/block and branch on
    ``registry().enabled`` before computing anything metric-only.
    """
    return _active


def enabled() -> bool:
    """Whether a real (collecting) registry is active."""
    return _active.enabled


# The most recent collecting registry: enable() after disable() resumes
# it instead of silently dropping accumulated metrics.
_last: MetricsRegistry | None = None


def enable(target: MetricsRegistry | None = None) -> MetricsRegistry:
    """Switch observability on and return the collecting registry.

    Idempotent: with no argument, re-enabling keeps (or, after a
    :func:`disable`, resumes) the current collecting registry so metrics
    accumulate across calls; pass a fresh :class:`MetricsRegistry` to
    start from zero.
    """
    global _active, _last
    if target is None:
        if isinstance(_active, MetricsRegistry):
            return _active
        target = _last if _last is not None else MetricsRegistry()
    elif not isinstance(target, MetricsRegistry):
        raise TypeError(f"enable() expects a MetricsRegistry, got {type(target).__name__}")
    _active = target
    _last = target
    return target


def disable() -> None:
    """Switch observability off (instrumentation reverts to no-ops).

    The previously active registry is left intact — ``enable()`` again
    to resume accumulating into the same metrics.
    """
    global _active
    _active = _NULL


if os.environ.get(ENV_VAR, "").strip().lower() in {"1", "true", "yes", "on"}:
    enable()

__all__ = [
    "ENV_VAR",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NullRegistry",
    "disable",
    "enable",
    "enabled",
    "registry",
    "render_prometheus",
    "series_name",
]
