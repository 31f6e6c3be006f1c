"""Served workloads: ``serve_paced`` (open loop) and ``serve_flood`` (closed loop).

The :class:`~repro.serve.IngestionServer` runs in its own process,
forked right after imports so it holds only what the service holds.
Two :class:`~repro.serve.IngestClient` gateways in this process split
the fleet and send one ``send_block`` per tick each.

* paced — tick ``t`` is due at ``t0 + t / rate``; each gateway sends it
  then, acked or not.  A reading's flag latency runs from the due
  time of the tick that released it (``t + lateness``) to the return of
  the server's ``step_block`` holding it, so a stall is charged to every
  tick it delays.
* flood — the next tick goes out as soon as the inflight quota admits
  it; "due" is when the generator started sending it.

Server-side ``step_block`` return times (same monotonic clock in both
processes) give the pass rates and latencies.  Ticks decided by the
end-of-stream flush are excluded from both.

Host speed (see :mod:`hostspeed`): the server process samples the
yardstick before each set-up, and in flood also before the traffic and
after each pass, pausing the server; a flood pass runs from the end of
one pause to the end of its last step, is scaled by the samples on
either side of it, and the pauses are taken out of the latencies.  Paced,
this process samples once per tick, 70% into the tick's period, when the
server has decided it and is idle, and each flag latency is scaled by the
sample of the tick that released it.  The paced rate is set by the
schedule, so it is reported as measured.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import signal
import time
from dataclasses import dataclass

import numpy as np

import harness
import layers
import repro.serve.server as server_module
from repro.serve import AckStatus, FrameDecoder, IngestClient, IngestionServer
from hostspeed import Yardstick, bracketed
from tracing import Trace, Tracer, instrument, percentile

GATEWAYS = 2
#: Seconds the parent waits for any answer from the server process.
ANSWER_TIMEOUT = 60.0
CHILD_TIMEOUT_S = 175
#: Seconds of yardstick sampling before each set-up and, in flood, after
#: each pass (server process).
YARDSTICK_SETUP_S = YARDSTICK_PASS_S = 0.1


@dataclass(frozen=True)
class ServeShape:
    stations: int
    block: int
    lateness: int
    #: Per-connection unacked readings; with ``lateness`` it bounds how far
    #: one gateway can run ahead of the other (no reading may go LATE).
    max_inflight: int
    pass_ticks: int
    #: Generated ticks: all of them are sent when paced; flood stops at
    #: the run's seconds (once ``quality_ticks`` are sent) or here,
    #: whichever comes first.
    ticks: int
    quality_ticks: int
    #: Ticks per second when paced, ``None`` for the closed loop.
    rate: float | None
    #: How long a gateway's send waits for an ack before returning.  The
    #: paced gateways keep it short so that a send never holds up the
    #: next tick's schedule.
    read_timeout: float
    #: Batch rows of the host yardstick (see :mod:`hostspeed`).
    yardstick_rows: int


def _answer(conn, timeout: float = ANSWER_TIMEOUT):
    if not conn.poll(timeout):
        raise harness.CheckFailed(f"server process gave no answer within {timeout:.0f} s")
    return conn.recv()


async def _answer_async(conn):
    """Wait for the pipe without blocking the serving event loop."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()

    def readable() -> None:
        if not ready.done():
            ready.set_result(None)

    loop.add_reader(conn.fileno(), readable)
    try:
        await ready
    finally:
        loop.remove_reader(conn.fileno())
    return conn.recv()


# ---------------------------------------------------------------------------
# server process


def _server_process(conn, trace: bool) -> None:
    signal.alarm(CHILD_TIMEOUT_S)
    asyncio.run(_serve(conn, trace))


async def _serve(conn, trace: bool) -> None:
    spec, shape = conn.recv()
    yardstick = Yardstick(shape.yardstick_rows)
    for _ in range(harness.SETUP_REPEATS):
        speed = yardstick.sample(YARDSTICK_SETUP_S)
        start = time.perf_counter()
        engine, phase = harness.build_system(spec)
        server = IngestionServer(
            engine,
            port=0,
            block_size=shape.block,
            lateness=shape.lateness,
            queue_size=4096,
            max_inflight=shape.max_inflight,
        )
        await server.start()
        phase["server_s"] = time.perf_counter() - start
        conn.send((server.port, phase, speed))
        if await _answer_async(conn) == "go":
            break
        await server.shutdown()
        # Free this set-up before the next, so peak RSS is one service's.
        server = engine = None
        gc.collect()

    tracer = Tracer()
    if trace:
        layers.instrument_backend(tracer, engine.detector.autoencoder.model)
        layers.instrument_engine(tracer, engine)
        _instrument_server(tracer, server)
    returns: list[float] = []
    cols: list[int] = []
    #: Flood: (start, end, host speed) of the yardstick pause after each pass.
    pauses: list[tuple[float, float, float]] = []
    sample_passes = shape.rate is None
    step = engine.step_block

    def timed_step(values):
        result = step(values)
        returns.append(time.perf_counter())
        cols.append(values.shape[1])
        decided = sum(cols)
        tracer.tick = decided
        tracer.on = trace and (decided // shape.pass_ticks) % 2 == 1
        if sample_passes and decided % shape.pass_ticks == 0:
            paused = time.perf_counter()
            speed = yardstick.sample(YARDSTICK_PASS_S)
            pauses.append((paused, time.perf_counter(), speed))
        return result

    engine.step_block = timed_step
    # Flood: the host speed just before the first pass.
    first_speed = yardstick.sample(YARDSTICK_PASS_S) if sample_passes else 1.0
    conn.send("serving")
    if await _answer_async(conn) != "finish":
        raise RuntimeError("expected finish")
    flushed_from = sum(cols)
    tracer.on = False
    sample_passes = False
    await server.finish()
    served = server.served()
    conn.send(
        {
            "returns": np.asarray(returns),
            "cols": np.asarray(cols),
            "flushed_from": flushed_from,
            "first_speed": first_speed,
            "pauses": np.asarray(pauses, dtype=np.float64).reshape(-1, 3),
            "served": served,
            "served_mb": sum(a.nbytes for a in served.values()) / 2**20,
            "peak_rss_mb": harness.peak_rss_mb(),
            "spans": tracer.arrays(),
        }
    )


def _instrument_server(tracer: Tracer, server: IngestionServer) -> None:
    def frames(tracer, args, kwargs, result) -> None:
        tracer.count("serve.protocol.frames")
        tracer.count("serve.protocol.readings", result[0].size)

    def offers(tracer, args, kwargs, codes) -> None:
        tracer.count("serve.reorder.offered", codes.size)
        tracer.count("serve.reorder.accepted", int((codes == 0).sum()))
        tracer.count("serve.reorder.pending_ticks", server.reorder.pending_ticks)

    instrument(tracer, FrameDecoder, "feed", "serve.protocol.decode")
    instrument(tracer, server_module, "unpack_batch_data", "serve.protocol.decode", frames)
    instrument(tracer, server_module, "pack_batch_ack", "serve.protocol.encode")
    instrument(tracer, server.reorder, "offer_block", "serve.reorder.offer", offers)
    instrument(tracer, server.reorder, "drain", "serve.reorder.drain")
    offer = server.reorder.offer_block

    def queued(stations, seqs, readings, arrival=0.0):
        if tracer.on:
            tracer.count("serve.server.queue_wait_s", time.perf_counter() - arrival)
        return offer(stations, seqs, readings, arrival=arrival)

    server.reorder.offer_block = queued


# ---------------------------------------------------------------------------
# gateways (this process)


def run(shape: ServeShape, seed: int, seconds: float, trace: bool) -> dict:
    context = multiprocessing.get_context("fork")
    conn, child_conn = context.Pipe()
    process = context.Process(target=_server_process, args=(child_conn, trace), daemon=True)
    process.start()
    child_conn.close()
    try:
        inputs = harness.make_inputs(shape.stations, shape.ticks, seed)
        yardstick = Yardstick(shape.yardstick_rows)
        conn.send((inputs.spec, shape))
        client = asyncio.run(_drive(conn, shape, inputs.fleet, seconds, trace, yardstick))
        served = _answer(conn)
        process.join(timeout=ANSWER_TIMEOUT)
    finally:
        if process.is_alive():
            process.kill()
        process.join()
        conn.close()
    harness.check(process.exitcode == 0, f"server process exited with code {process.exitcode}")
    return _report(shape, inputs, client, served, trace)


async def _drive(
    conn, shape: ServeShape, fleet: np.ndarray, seconds: float, trace: bool, yardstick: Yardstick
) -> dict:
    phases = []
    for repeat in range(harness.SETUP_REPEATS):
        port, phase, speed = _answer(conn)
        start = time.perf_counter()
        gateways = [
            IngestClient(
                port=port,
                client_id=f"gateway-{i}",
                backoff_base=1.0,
                backoff_max=4.0,
                read_timeout=shape.read_timeout,
            )
            for i in range(GATEWAYS)
        ]
        for gateway in gateways:
            await gateway.connect()
        phase["connect_s"] = time.perf_counter() - start
        phase["setup_s"] = phase.pop("server_s") + phase["connect_s"]
        phases.append({key: value * speed for key, value in phase.items()})
        if repeat < harness.SETUP_REPEATS - 1:
            for gateway in gateways:
                await gateway.close()
            conn.send("next")
    conn.send("go")
    if _answer(conn) != "serving":
        raise RuntimeError("server did not start serving")

    tracers = [Tracer() for _ in gateways]
    if trace:
        for gateway, tracer in zip(gateways, tracers):
            instrument(tracer, gateway, "send_block", "serve.client.send")
    rows = np.array_split(np.arange(shape.stations), GATEWAYS)
    start = time.perf_counter()
    if shape.rate is None:
        due = await _flood(gateways, tracers, rows, fleet, shape, start + seconds, trace)
        sent = due[None, :]
        speeds = None
    else:
        due = start + 0.05 + np.arange(shape.ticks) / shape.rate
        *sent, speeds = await asyncio.gather(
            *(
                _paced(gateway, tracer, idx, fleet, due, shape.pass_ticks, trace)
                for gateway, tracer, idx in zip(gateways, tracers, rows)
            ),
            _between_ticks(yardstick, due + 0.7 / shape.rate),
        )
        sent = np.stack(sent)
    tick = due.size
    for gateway in gateways:
        await gateway.drain(timeout=ANSWER_TIMEOUT)
        await gateway.close()
    conn.send("finish")
    status = np.full((shape.stations, tick), 255, dtype=np.uint8)
    for gateway in gateways:
        for (station, seq), ack in gateway.ack_log.items():
            status[station, seq] = int(ack)
    return {
        "ticks": tick,
        "due": due,
        "sent": sent,
        #: Paced: host speed sampled after each tick was decided.
        "speeds": speeds,
        "status": status,
        "phases": phases,
        "retransmits": sum(g.retransmits for g in gateways),
        "busy": sum(g.busy_count for g in gateways),
        "spans": [tracer.arrays() for tracer in tracers],
    }


async def _paced(gateway, tracer, idx, fleet, due, pass_ticks: int, trace: bool) -> np.ndarray:
    """One gateway's open loop: tick ``t`` goes out at ``due[t]``, acked or not."""
    sent = np.empty(due.size)
    for tick, when in enumerate(due):
        delay = when - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent[tick] = time.perf_counter()
        tracer.tick = tick
        tracer.on = trace and (tick // pass_ticks) % 2 == 1
        await gateway.send_block(idx, tick, fleet[idx, tick])
    tracer.on = False
    return sent


async def _between_ticks(yardstick: Yardstick, when: np.ndarray) -> np.ndarray:
    """One yardstick forward pass at each of ``when``; returns their speeds."""
    speeds = np.empty(when.size)
    for tick, at in enumerate(when):
        delay = at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        speeds[tick] = yardstick.sample(0.0)
    return speeds


async def _flood(gateways, tracers, rows, fleet, shape: ServeShape, deadline: float, trace: bool):
    """Closed loop: both gateways send tick ``t`` as soon as their quota admits it.

    Returns when each tick started, its due time.  The inflight quota
    with ``shape.lateness`` keeps one gateway from running so far ahead
    that the other's readings fall behind the watermark.
    """
    due = []
    while len(due) < shape.ticks and (
        time.perf_counter() < deadline or len(due) < shape.quality_ticks
    ):
        tick = len(due)
        due.append(time.perf_counter())
        for gateway, tracer, idx in zip(gateways, tracers, rows):
            tracer.tick = tick
            tracer.on = trace and (tick // shape.pass_ticks) % 2 == 1
            await gateway.send_block(idx, tick, fleet[idx, tick])
    for tracer in tracers:
        tracer.on = False
    return np.asarray(due)


# ---------------------------------------------------------------------------
# checks and metrics


def flag_latencies(
    tick_return: np.ndarray, due: np.ndarray, lateness: int, first: int, flushed_from: int,
    pauses: np.ndarray | None = None,
) -> np.ndarray:
    """Seconds from the due time of the tick that released each tick to its flag.

    Tick ``t`` leaves the reorder buffer when tick ``t + lateness``
    arrives, so its latency starts at that tick's due time.  Ticks before
    ``first`` (warm-up) and ticks decided by the end-of-stream flush
    (``>= flushed_from``) are left out.  The parts of ``pauses``
    (``(start, end)`` rows: the benchmark's own yardstick samples) that
    fall inside a latency are taken out of it.
    """
    ticks = np.arange(first, min(flushed_from, due.size - lateness))
    start, end = due[ticks + lateness], tick_return[ticks]
    if pauses is None or not len(pauses):
        return end - start
    lo = np.maximum(start[:, None], pauses[None, :, 0])
    hi = np.minimum(end[:, None], pauses[None, :, 1])
    return end - start - np.clip(hi - lo, 0.0, None).sum(axis=1)


def _report(
    shape: ServeShape, inputs: harness.Inputs, client: dict, server: dict, trace: bool
) -> dict:
    n = client["ticks"]
    fleet = inputs.fleet[:, :n]
    served = server["served"]
    status = client["status"]
    delivered = (status == AckStatus.OK) | (status == AckStatus.DUPLICATE)
    refused = status == AckStatus.LATE
    harness.check(
        bool((delivered | refused).all()),
        "a reading is neither decided, missing nor refused: it has no terminal ack",
    )
    harness.check(
        bool(np.array_equal(served["ticks"], np.arange(n))), "served ticks are not 0..n-1"
    )
    readings = np.where(delivered, fleet, np.nan)
    harness.check(
        harness.same(served["missing"], np.isnan(readings)),
        "served missing mask differs from the undelivered or NaN readings",
    )
    engine, _ = harness.build_system(inputs.spec)
    offline = engine.run(readings, block_size=shape.block)
    for key in ("flags", "scores", "mitigated"):
        harness.check(
            harness.same(served[key], getattr(offline, key)),
            f"served {key} differ from the offline replay of the delivered fleet",
        )
    harness.check(
        n >= shape.quality_ticks, f"served {n} ticks, quality needs {shape.quality_ticks}"
    )
    q = shape.quality_ticks
    f1, recovered = harness.quality(
        served["flags"][:, :q], served["mitigated"][:, :q], fleet[:, :q],
        inputs.clean[:, :q], inputs.labels[:, :q],
    )

    tick_return = np.repeat(server["returns"], server["cols"])
    counted = server["flushed_from"] // shape.pass_ticks
    ends = tick_return[shape.pass_ticks - 1 : counted * shape.pass_ticks : shape.pass_ticks]
    pauses = server["pauses"][: ends.size]
    latency = flag_latencies(
        tick_return, client["due"], shape.lateness, shape.pass_ticks, server["flushed_from"],
        pauses[:, :2],
    )
    ticks = shape.pass_ticks + np.arange(latency.size)
    if shape.rate is None:
        # Each flood pass runs from the end of the pause before it.
        speeds = bracketed([server["first_speed"], *pauses[:, 2]])
        passes = harness.Passes(
            shape.pass_ticks, [client["due"][0], *pauses[:-1, 1]], list(ends), list(speeds)
        )
        # Ticks of the last, partial pass take the last pass's sample.
        latency *= speeds[np.minimum(ticks // shape.pass_ticks, speeds.size - 1)]
    else:
        # The schedule sets the paced rate: its passes are not scaled.
        speeds = client["speeds"]
        passes = harness.Passes(
            shape.pass_ticks, [client["due"][0], *ends[:-1]], list(ends), [1.0] * ends.size
        )
        latency *= speeds[ticks + shape.lateness]
    setup = harness.median_phases(client["phases"])
    decided_share = float(delivered.sum() / fleet.size)
    result = {
        "attempted": fleet.size,
        "failed": int(fleet.size - delivered.sum()),
        "end_to_end": {
            "setup_s": setup["setup_s"],
            "readings_per_s": passes.readings_per_s(shape.stations),
            **layers.ms_percentiles(latency, "flag_latency", "_ms"),
            "peak_rss_mb": server["peak_rss_mb"],
            "decided_share": decided_share,
            "detect_f1": f1,
            "recovered_pct": recovered,
        },
    }
    if trace:
        metrics = _per_layer(shape, passes, client, server)
        metrics.update({f"setup.{key}": value for key, value in setup.items() if key != "setup_s"})
        metrics["gen.missed_share"] = 1.0 - decided_share
        metrics["host.speed"] = float(np.median(speeds))
        result["per_layer"] = metrics
        result["spans"] = {"server": server["spans"]}
        result["spans"].update({f"gateway{i}": spans for i, spans in enumerate(client["spans"])})
    return result


def _per_layer(shape: ServeShape, passes: harness.Passes, client: dict, server: dict) -> dict:
    timed = passes.timed()
    traced, untraced = timed[timed % 2 == 1], timed[timed % 2 == 0]

    def in_traced(ticks):
        return np.isin(ticks // shape.pass_ticks, traced)

    engine_trace = Trace(server["spans"], in_traced)
    wall = float(passes.durations()[traced].sum())
    per_pass = traced.size
    metrics = layers.engine_metrics(engine_trace, per_pass, wall)
    sends = [
        duration
        for spans in client["spans"]
        for duration in Trace(spans, in_traced).durations["serve.client.send"]
    ]
    metrics.update(layers.ms_percentiles(sends, "serve.client.send_ms"))
    counts, values = engine_trace.counts, engine_trace.values
    frames = counts["serve.protocol.frames"]
    metrics.update(
        {
            "serve.client.retransmits": client["retransmits"],
            "serve.client.busy": client["busy"],
            "serve.protocol.decode_s": engine_trace.total["serve.protocol.decode"] / per_pass,
            "serve.protocol.encode_s": engine_trace.total["serve.protocol.encode"] / per_pass,
            "serve.protocol.frames_in": frames / per_pass,
            "serve.protocol.readings_per_frame": counts["serve.protocol.readings"] / frames,
            "serve.reorder.offer_s": engine_trace.total["serve.reorder.offer"] / per_pass,
            "serve.reorder.drain_s": engine_trace.total["serve.reorder.drain"] / per_pass,
            "serve.reorder.accepted_frac": counts["serve.reorder.accepted"]
            / counts["serve.reorder.offered"],
            "serve.reorder.pending_ticks_max": max(values["serve.reorder.pending_ticks"]),
            "serve.server.served_mb": server["served_mb"],
        }
    )
    metrics.update(
        layers.ms_percentiles(values["serve.server.queue_wait_s"], "serve.server.queue_wait_ms")
    )
    if shape.rate is not None:
        lateness_ms = (client["sent"] - client["due"]).ravel() * 1e3
        metrics["gen.lateness_ms_p95"] = percentile(lateness_ms, 95)
        metrics["gen.lateness_ms_max"] = float(lateness_ms.max())
    metrics["trace.overhead_frac"] = 1.0 - passes.readings_per_s(
        shape.stations, traced
    ) / passes.readings_per_s(shape.stations, untraced)
    return metrics
