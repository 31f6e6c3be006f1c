"""In-process replay workloads: ``replay_block`` and ``replay_tick``.

The engine is driven through its public step API, one pass of equal
work after another, until the run's seconds are spent (and the quality
segment is streamed) or the generated fleet runs out.  Pass 0 is warm-up
and discarded.  The host yardstick is sampled before the first pass and
after every pass, outside the passes' time, and each pass's rate and
step times are scaled by the samples on either side of it (see
:mod:`hostspeed`); each set-up is scaled by a sample taken just before
it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

import harness
import layers
from hostspeed import Yardstick, bracketed
from tracing import Trace, Tracer

#: Yardstick sampling after a pass, as a share of the pass's duration
#: (at least one forward pass; one alone before the first pass).
YARDSTICK_SHARE = 0.2
#: Seconds of yardstick sampling before each set-up.
YARDSTICK_SETUP_S = 0.1


@dataclass(frozen=True)
class ReplayShape:
    stations: int
    block: int
    #: Stream ticks per pass (a multiple of ``block``).
    pass_ticks: int
    #: Generated ticks; a run ends early if it gets through all of them.
    ticks: int
    #: Leading ticks scored for ``detect_f1`` / ``recovered_pct``; the
    #: run streams at least these, even past its seconds.
    quality_ticks: int
    #: Batch rows of the host yardstick (see :mod:`hostspeed`).
    yardstick_rows: int


def run(shape: ReplayShape, seed: int, seconds: float, trace: bool) -> dict:
    inputs = harness.make_inputs(shape.stations, shape.ticks, seed)
    yardstick = Yardstick(shape.yardstick_rows)
    phases = []
    for _ in range(harness.SETUP_REPEATS):
        # Free the previous set-up first, so peak RSS is one engine's.
        engine = None
        gc.collect()
        speed = yardstick.sample(YARDSTICK_SETUP_S)
        start = time.perf_counter()
        engine, phase = harness.build_system(inputs.spec)
        phase["setup_s"] = time.perf_counter() - start
        phases.append({key: value * speed for key, value in phase.items()})
    setup = harness.median_phases(phases)

    tracer = Tracer()
    if trace:
        layers.instrument_backend(tracer, engine.detector.autoencoder.model)
        layers.instrument_engine(tracer, engine)
    out = _stream(engine, inputs.fleet, shape, seconds, tracer, trace, yardstick)
    rss = harness.peak_rss_mb()
    n = out["ticks"]
    fleet = inputs.fleet[:, :n]

    harness.check(
        n >= shape.quality_ticks, f"streamed {n} ticks, quality needs {shape.quality_ticks}"
    )
    _check_decisions(
        out["flags"], out["scores"], out["missing"], out["mitigated"], fleet,
        harness.MODEL.sequence_length - 1,
    )
    if shape.block == 1:
        _check_tick_equals_block(inputs.spec, fleet[:, :64], out)
    q = shape.quality_ticks
    f1, recovered = harness.quality(
        out["flags"][:, :q], out["mitigated"][:, :q], fleet[:, :q],
        inputs.clean[:, :q], inputs.labels[:, :q],
    )
    passes: harness.Passes = out["passes"]
    # A reading's flag arrives when the step holding it returns; each step
    # is scaled by the host speed of its pass.
    steps_per_pass = shape.pass_ticks // shape.block
    step_s = out["step_s"] * np.repeat(passes.speeds, steps_per_pass)
    tick_latency_s = np.repeat(step_s, shape.block)[shape.pass_ticks :]
    decided = int(np.isfinite(out["mitigated"]).sum())
    result = {
        "attempted": fleet.size,
        "failed": fleet.size - decided,
        "end_to_end": {
            "setup_s": setup["setup_s"],
            "readings_per_s": passes.readings_per_s(shape.stations),
            **layers.ms_percentiles(tick_latency_s, "flag_latency", "_ms"),
            "peak_rss_mb": rss,
            "decided_share": decided / fleet.size,
            "detect_f1": f1,
            "recovered_pct": recovered,
        },
    }
    if trace:
        result["per_layer"] = _per_layer(tracer, passes, setup, shape)
        result["per_layer"]["gen.missed_share"] = 1.0 - decided / fleet.size
        result["per_layer"]["host.speed"] = float(np.median(passes.speeds))
        result["spans"] = {"engine": tracer.arrays()}
    return result


def _stream(
    engine, fleet, shape: ReplayShape, seconds: float, tracer: Tracer, trace: bool,
    yardstick: Yardstick,
) -> dict:
    """Feed passes until ``seconds`` are spent; returns the decisions made."""
    total = fleet.shape[1]
    flags = np.zeros(fleet.shape, dtype=bool)
    missing = np.zeros(fleet.shape, dtype=bool)
    scores = np.empty(fleet.shape)
    mitigated = np.empty(fleet.shape)
    step_s: list[float] = []
    step = engine.step_tick if shape.block == 1 else engine.step_block
    starts: list[float] = []
    ends: list[float] = []
    start = time.perf_counter()
    tick = 0
    samples = [yardstick.sample(0.0)]
    while tick + shape.pass_ticks <= total and (
        time.perf_counter() - start < seconds or tick < shape.quality_ticks
    ):
        starts.append(time.perf_counter())
        # Odd passes are traced, even ones not: their rates give the overhead.
        tracer.on = trace and len(ends) % 2 == 1
        for first in range(tick, tick + shape.pass_ticks, shape.block):
            tracer.tick = first
            cols = slice(first, first + shape.block)
            values = fleet[:, first] if shape.block == 1 else fleet[:, cols]
            began = time.perf_counter()
            f, s, m, mit = step(values)
            step_s.append(time.perf_counter() - began)
            where = first if shape.block == 1 else cols
            flags[:, where], scores[:, where], missing[:, where], mitigated[:, where] = f, s, m, mit
        tick += shape.pass_ticks
        ends.append(time.perf_counter())
        samples.append(yardstick.sample(YARDSTICK_SHARE * (ends[-1] - starts[-1])))
    tracer.on = False
    return {
        "ticks": tick,
        "flags": flags[:, :tick],
        "scores": scores[:, :tick],
        "missing": missing[:, :tick],
        "mitigated": mitigated[:, :tick],
        "step_s": np.asarray(step_s),
        "passes": harness.Passes(shape.pass_ticks, starts, ends, list(bracketed(samples))),
    }


def _check_decisions(
    flags: np.ndarray, scores: np.ndarray, missing: np.ndarray, mitigated: np.ndarray,
    readings: np.ndarray, warm_ticks: int,
) -> None:
    """Every reading is decided: a flag, a repaired value, missing iff NaN."""
    check = harness.check
    check(flags.dtype == bool and flags.shape == readings.shape, "flags do not cover the readings")
    check(bool(np.array_equal(missing, np.isnan(readings))), "missing mask differs from NaN inputs")
    check(bool(np.isfinite(mitigated).all()), "a decided reading has no finite repaired value")
    check(bool(np.isfinite(scores[:, warm_ticks:]).all()), "a full window was left unscored")


def _check_tick_equals_block(spec: harness.SystemSpec, fleet: np.ndarray, out: dict) -> None:
    """The tick path is bit-identical to ``step_block`` with B=1."""
    engine, _ = harness.build_system(spec)
    for t in range(fleet.shape[1]):
        got = engine.step_block(fleet[:, t : t + 1])
        for key, value in zip(("flags", "scores", "missing", "mitigated"), got):
            harness.check(
                harness.same(value[:, 0], out[key][:, t]),
                f"step_tick and step_block(B=1) differ in {key} at tick {t}",
            )


def _per_layer(tracer: Tracer, passes: harness.Passes, setup: dict, shape: ReplayShape) -> dict:
    timed = passes.timed()
    traced, untraced = timed[timed % 2 == 1], timed[timed % 2 == 0]
    trace = Trace(tracer.arrays(), lambda ticks: np.isin(ticks // shape.pass_ticks, traced))
    wall = float(passes.durations()[traced].sum())
    metrics = layers.engine_metrics(trace, traced.size, wall)
    metrics.update({f"setup.{key}": value for key, value in setup.items() if key != "setup_s"})
    metrics["trace.overhead_frac"] = 1.0 - passes.readings_per_s(
        shape.stations, traced
    ) / passes.readings_per_s(shape.stations, untraced)
    return metrics
