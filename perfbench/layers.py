"""Span each layer's public calls and turn the spans into per-layer metrics.

Layers and where their spans sit (all wrappers are installed by the
benchmark on the objects it built; no program file is touched):

* ``nn`` — ``Sequential.infer`` and each layer's ``infer``;
  ``nn.backend`` — the numpy backend's ``lstm_step``.
* ``stream`` — the engine's ``step_block``/``step_tick`` and the public
  methods of its detector, scaler, ring buffers and mitigator.
* ``serve`` — ``IngestClient.send_block`` (client process);
  ``FrameDecoder.feed``, ``unpack_batch_data``, ``pack_batch_ack`` and the
  reorder buffer's ``offer_block``/``drain`` (server process).

Per-pass metrics divide by the number of traced passes, so they compare
across runs of different length.  ``nn.gflop_per_s`` counts only matmul
FLOPs, computed from tensor shapes (elementwise gate math is not
counted); ``nn.matmul_gflop_per_s`` is ``np.matmul`` timed on the same
shapes in the same process.
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn import backend as backends
from tracing import Trace, Tracer, instrument, percentile

#: name -> (unit, better); every traced run reports all of them, 0 where
#: the workload does not exercise the layer.
PER_LAYER = {
    "nn.forward_s": ("s", "lower"),
    "nn.forward_share": ("fraction", "lower"),
    "nn.windows": ("count", "lower"),
    "nn.lstm_enc1_s": ("s", "lower"),
    "nn.lstm_enc2_s": ("s", "lower"),
    "nn.lstm_dec1_s": ("s", "lower"),
    "nn.lstm_dec2_s": ("s", "lower"),
    "nn.dense_s": ("s", "lower"),
    "nn.backend.lstm_step_calls": ("count", "lower"),
    "nn.backend.lstm_step_s": ("s", "lower"),
    "nn.gflop_per_s": ("GFLOP/s", "higher"),
    "nn.matmul_gflop_per_s": ("GFLOP/s", "higher"),
    "nn.roofline_frac": ("fraction", "higher"),
    "stream.engine.steps": ("count", "lower"),
    "stream.engine.step_s": ("s", "lower"),
    "stream.engine.busy_frac": ("fraction", "lower"),
    "stream.detector.self_s": ("s", "lower"),
    "stream.scaler_s": ("s", "lower"),
    "stream.buffers_s": ("s", "lower"),
    "stream.mitigation_s": ("s", "lower"),
    "stream.detector.flags": ("count", "lower"),
    "stream.detector.missing": ("count", "lower"),
    "serve.client.send_ms_p50": ("ms", "lower"),
    "serve.client.send_ms_p95": ("ms", "lower"),
    "serve.client.retransmits": ("count", "lower"),
    "serve.client.busy": ("count", "lower"),
    "serve.protocol.decode_s": ("s", "lower"),
    "serve.protocol.encode_s": ("s", "lower"),
    "serve.protocol.frames_in": ("count", "lower"),
    "serve.protocol.readings_per_frame": ("count", "higher"),
    "serve.reorder.offer_s": ("s", "lower"),
    "serve.reorder.drain_s": ("s", "lower"),
    "serve.reorder.accepted_frac": ("fraction", "higher"),
    "serve.reorder.pending_ticks_max": ("count", "lower"),
    "serve.server.queue_wait_ms_p50": ("ms", "lower"),
    "serve.server.queue_wait_ms_p95": ("ms", "lower"),
    "serve.server.served_mb": ("MB", "lower"),
    "setup.restore_s": ("s", "lower"),
    "setup.calibrate_s": ("s", "lower"),
    "setup.build_s": ("s", "lower"),
    "setup.connect_s": ("s", "lower"),
    "gen.lateness_ms_p95": ("ms", "lower"),
    "gen.lateness_ms_max": ("ms", "lower"),
    "gen.missed_share": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "host.speed": ("ratio", "higher"),
}

LAYER_SPANS = {
    "encoder_lstm_1": "nn.lstm_enc1",
    "encoder_lstm_2": "nn.lstm_enc2",
    "decoder_lstm_1": "nn.lstm_dec1",
    "decoder_lstm_2": "nn.lstm_dec2",
    "reconstruction": "nn.dense",
}
SCALER_METHODS = (
    "partial_fit", "partial_fit_checked", "partial_fit_block", "partial_fit_block_checked",
    "ingest_tick_checked", "transform", "transform_checked", "transform_block",
    "transform_block_checked", "transform_block_fixed_checked",
)
BUFFER_METHODS = (
    "push", "push_checked", "push_block", "push_block_checked", "windows", "recent",
    "amend_last", "amend_block", "amend_block_checked", "last",
)
DETECTOR_METHODS = ("process_tick", "process_block", "amend_last", "amend_block")


def _matmul(tracer: Tracer, m: int, k: int, n: int, dtype, calls: int = 1) -> None:
    tracer.count(f"mm:{m}:{k}:{n}:{np.dtype(dtype).name}", calls)


def _count_windows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("nn.windows", np.shape(args[0])[0])


def _lstm_flops(layer):
    def counter(tracer: Tracer, args, kwargs, result) -> None:
        batch, steps, features = np.shape(args[0])
        _matmul(tracer, batch, features, 4 * layer.units, layer.dtype, steps)
        _matmul(tracer, batch, layer.units, 4 * layer.units, layer.dtype, steps)

    return counter


def _dense_flops(layer):
    def counter(tracer: Tracer, args, kwargs, result) -> None:
        batch, steps, features = np.shape(args[0])
        _matmul(tracer, batch * steps, features, layer.inner.units, layer.inner.dtype)

    return counter


def _count_results(tracer: Tracer, args, kwargs, result) -> None:
    flags, _scores, missing, _mitigated = result
    tracer.count("stream.engine.steps")
    tracer.count("stream.detector.flags", int(flags.sum()))
    tracer.count("stream.detector.missing", int(missing.sum()))


def instrument_backend(tracer: Tracer, model) -> None:
    """Span the backend's ``lstm_step`` (a process-wide object: once per process)."""
    instrument(tracer, backends.resolve_backend(model.backend), "lstm_step", "nn.backend.lstm_step")


def instrument_engine(tracer: Tracer, engine) -> None:
    """Span the ``nn`` and ``stream`` layers of one engine."""
    detector = engine.detector
    model = detector.autoencoder.model
    instrument(tracer, model, "infer", "nn.forward", _count_windows)
    for layer in model.layers:
        span = LAYER_SPANS.get(layer.name)
        if span is None:
            continue
        flops = _dense_flops(layer) if span == "nn.dense" else _lstm_flops(layer)
        instrument(tracer, layer, "infer", span, flops)
    for method in ("step_block", "step_tick"):
        instrument(tracer, engine, method, "stream.engine.step", _count_results)
    for method in DETECTOR_METHODS:
        instrument(tracer, detector, method, "stream.detector")
    for method in SCALER_METHODS:
        instrument(tracer, detector.scaler, method, "stream.scaler")
    for method in BUFFER_METHODS:
        instrument(tracer, detector.buffers, method, "stream.buffers")
    for method in ("mitigate", "mitigate_block"):
        instrument(tracer, engine.mitigator, method, "stream.mitigation")


def matmul_peak(trace: Trace, repeats: int = 3, budget_s: float = 0.05) -> float:
    """GFLOP/s ``np.matmul`` reaches on the traced shapes, call-weighted."""
    flops = seconds = 0.0
    for name, calls in trace.counts.items():
        if not name.startswith("mm:"):
            continue
        _, m, k, n, dtype = name.split(":")
        m, k, n = int(m), int(k), int(n)
        rng = np.random.default_rng(0)
        a = rng.random((m, k)).astype(dtype)
        b = rng.random((k, n)).astype(dtype)
        out = np.empty((m, n), dtype=dtype)
        np.matmul(a, b, out=out)
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        loops = max(1, min(1000, int(budget_s / max(time.perf_counter() - start, 1e-7))))
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(loops):
                np.matmul(a, b, out=out)
            best = min(best, (time.perf_counter() - start) / loops)
        flops += calls * 2.0 * m * k * n
        seconds += calls * best
    return flops / seconds / 1e9 if seconds else 0.0


def trace_flops(trace: Trace) -> float:
    return sum(
        calls * 2.0 * np.prod([int(x) for x in name.split(":")[1:4]])
        for name, calls in trace.counts.items()
        if name.startswith("mm:")
    )


def engine_metrics(trace: Trace, passes: int, wall: float) -> dict[str, float]:
    """``nn``, ``nn.backend`` and ``stream`` metrics of the traced passes.

    ``wall`` is the traced passes' wall-clock in the process running the
    engine; ``_s`` metrics and counts are per pass.
    """
    forward = trace.total["nn.forward"]
    peak = matmul_peak(trace)
    achieved = trace_flops(trace) / forward / 1e9 if forward else 0.0
    out = {
        "nn.forward_s": forward / passes,
        "nn.forward_share": forward / wall,
        "nn.windows": trace.counts["nn.windows"] / passes,
        "nn.backend.lstm_step_calls": trace.calls["nn.backend.lstm_step"] / passes,
        "nn.backend.lstm_step_s": trace.total["nn.backend.lstm_step"] / passes,
        "nn.gflop_per_s": achieved,
        "nn.matmul_gflop_per_s": peak,
        "nn.roofline_frac": achieved / peak if peak else 0.0,
        "stream.engine.steps": trace.counts["stream.engine.steps"] / passes,
        "stream.engine.step_s": trace.total["stream.engine.step"] / passes,
        "stream.engine.busy_frac": trace.total["stream.engine.step"] / wall,
        "stream.detector.self_s": trace.self_total["stream.detector"] / passes,
        "stream.scaler_s": trace.total["stream.scaler"] / passes,
        "stream.buffers_s": trace.total["stream.buffers"] / passes,
        "stream.mitigation_s": trace.total["stream.mitigation"] / passes,
        "stream.detector.flags": trace.counts["stream.detector.flags"] / passes,
        "stream.detector.missing": trace.counts["stream.detector.missing"] / passes,
    }
    for span in LAYER_SPANS.values():
        out[f"{span}_s"] = trace.total[span] / passes
    return out


def ms_percentiles(seconds, prefix: str, suffix: str = "") -> dict[str, float]:
    """p50 and p95 of ``seconds`` in ms, as ``{prefix}_p50{suffix}`` etc."""
    ms = np.asarray(seconds, dtype=np.float64) * 1e3
    return {f"{prefix}_p{q}{suffix}": percentile(ms, q) for q in (50, 95)}


def complete(metrics: dict[str, float]) -> dict[str, dict[str, float | str]]:
    """Every per-layer metric with its unit; 0 for layers not exercised."""
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, (unit, _better) in PER_LAYER.items()
    }


def print_table(workload: str, metrics: dict[str, dict], exercised: set[str]) -> None:
    print(f"per-layer ledger: {workload} (per traced pass unless the unit says otherwise)")
    for name, entry in metrics.items():
        shown = f"{entry['value']:.6g}" if name in exercised else "-"
        print(f"  {name:36s} {shown:>14s} {entry['unit']}")
