"""Streaming-engine throughput: micro-batching across stations AND time.

Three profiles, one JSON:

* ``station_batching`` — one tick of fleet inference is ONE autoencoder
  pass over ``(n_stations, L, 1)``, not ``n_stations`` passes over
  ``(1, L, 1)``.  The micro-batched path must stay >= 10x the naive
  per-station loop at 1,000+ stations (it is typically far more).
* ``block`` — block-mode ingestion (PR 3) batches the *time* axis too:
  ``StreamingDetector.process_block`` scores all ``B x n_stations``
  windows of a ``B``-tick block in one inference pass.  Measured against
  two per-tick references on the same fleet: the **frozen pre-block
  pipeline** (triple per-tick validation with the old ``np.unique``
  duplicate check, chunked ``predict(batch_size=256)`` — a faithful copy
  of the PR-1/PR-2 path, like ``bench_engine``'s frozen seed engine; its
  slowness is the point) and the **current** ``process_tick`` loop.
  The block profile uses a compact fleet-scale autoencoder (L=12,
  units (4, 2)): block mode exists to amortise per-tick pipeline
  overhead, which only shows once the per-window forward cost stops
  drowning it — with PR 2's fused engine the pipeline is forward-bound,
  so the measured block-vs-reference speedup (~2x at 1000 stations) is
  the honest ceiling, not the ISSUE's aspirational 5x (see ROADMAP).
* ``ops`` — operational robustness under sensor dropout + station
  churn: a fleet with ``--dropout-rate`` NaN readings replayed through
  a ``missing="impute"`` detector with mitigation, with a
  mid-run join+leave of ~1% of the fleet.  Informational (no
  ``speedup_`` metrics): it proves the dropout/churn path sustains
  fleet-scale throughput and exercises imputation + elastic resizing
  end to end.
* ``obs_overhead`` — the cost of PR 6's observability: the same
  block-mode replay timed with the metrics registry off and on
  (best-of-``--obs-repeats`` each), gated IN-CODE at
  ``--obs-overhead-max`` (default 5%) — a near-1x ratio under the
  generic 30% ``speedup_*`` slack would gate nothing, so this check
  lives here, not in ``_gate``.  The enabled run must also be **bit-
  identical** (flags/scores/mitigated) to the disabled one, and its
  registry is exported next to the results JSON as a Prometheus text
  file + JSONL snapshot (uploaded as the ``BENCH_obs`` CI artifact).

Results are written as JSON (``--output``) and ``--check BASELINE.json``
exits non-zero when any ``speedup_*`` metric regresses more than
``--check-slack`` (default 30%) below the committed same-profile
baseline — machine-independent because speedups are ratios of times
measured on the same box.

Run:  PYTHONPATH=src python benchmarks/bench_streaming.py
      PYTHONPATH=src python benchmarks/bench_streaming.py --smoke   # CI-sized

Unlike the table/figure benches this is a standalone script (no
pytest-benchmark) so CI can smoke it directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _gate import check_regression  # noqa: E402

from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder  # noqa: E402
from repro.stream.buffers import RingBufferBank  # noqa: E402
from repro.stream.detector import StreamingDetector  # noqa: E402
from repro.stream.engine import StreamReplayEngine, synthesize_fleet  # noqa: E402
from repro.stream.scaler import StreamingMinMaxScaler  # noqa: E402


def run_micro_batched(
    autoencoder: LSTMAutoencoder,
    fleet: np.ndarray,
    warmup_ticks: int,
    scored_ticks: int,
) -> float:
    """Elapsed seconds for ``scored_ticks`` fleet-wide detector ticks."""
    n_stations = fleet.shape[0]
    scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
    detector = StreamingDetector(autoencoder, n_stations, scaler=scaler, threshold=1.0)
    for tick in range(warmup_ticks):
        detector.process_tick(fleet[:, tick])
    start = time.perf_counter()
    for tick in range(warmup_ticks, warmup_ticks + scored_ticks):
        detector.process_tick(fleet[:, tick])
    return time.perf_counter() - start


def run_naive_loop(
    autoencoder: LSTMAutoencoder,
    fleet: np.ndarray,
    warmup_ticks: int,
    scored_ticks: int,
) -> float:
    """Elapsed seconds scoring each station with its own forward pass."""
    n_stations = fleet.shape[0]
    detectors = [
        StreamingDetector(
            autoencoder,
            1,
            scaler=StreamingMinMaxScaler.from_bounds(
                fleet[j : j + 1].min(axis=1), fleet[j : j + 1].max(axis=1)
            ),
            threshold=1.0,
        )
        for j in range(n_stations)
    ]
    for tick in range(warmup_ticks):
        for j, detector in enumerate(detectors):
            detector.process_tick(fleet[j : j + 1, tick])
    start = time.perf_counter()
    for tick in range(warmup_ticks, warmup_ticks + scored_ticks):
        for j, detector in enumerate(detectors):
            detector.process_tick(fleet[j : j + 1, tick])
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Frozen pre-block per-tick pipeline — the "old" side of the block
# speedup.  A faithful copy of the PR-1 tick path: every bank call
# re-validates its inputs (three validations per tick, with the
# O(k log k) ``np.unique`` duplicate check this PR replaced), and
# scoring goes through the cache-pressure-chunked ``predict``.  Do not
# "optimise" it; its slowness is the point.
# ---------------------------------------------------------------------------


def run_reference_per_tick(
    autoencoder: LSTMAutoencoder,
    fleet: np.ndarray,
    warmup_ticks: int,
    scored_ticks: int,
) -> float:
    n_stations = fleet.shape[0]
    length = autoencoder.config.sequence_length
    scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
    buffers = RingBufferBank(n_stations, length)
    stations = np.arange(n_stations)

    def validate(values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if len(np.unique(stations)) != len(stations):
            raise ValueError("duplicate stations")
        return values

    def tick(values: np.ndarray) -> np.ndarray | None:
        validate(values)
        scaler.partial_fit_checked(values, stations)
        validate(values)
        scaled = scaler.transform_checked(values, stations)
        validate(scaled)
        buffers.push_checked(scaled, stations)
        if not buffers.ready.all():
            return None
        windows = buffers.windows()[:, :, None]
        reconstructed = autoencoder.model.predict(windows, batch_size=256)
        errors = np.mean((windows - reconstructed) ** 2, axis=(1, 2))
        return errors > 1.0

    for t in range(warmup_ticks):
        tick(fleet[:, t])
    start = time.perf_counter()
    for t in range(warmup_ticks, warmup_ticks + scored_ticks):
        tick(fleet[:, t])
    return time.perf_counter() - start


def run_block(
    autoencoder: LSTMAutoencoder,
    fleet: np.ndarray,
    warmup_ticks: int,
    scored_ticks: int,
    block_size: int,
) -> float:
    """Elapsed seconds for ``scored_ticks`` ticks ingested block-wise."""
    n_stations = fleet.shape[0]
    scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
    detector = StreamingDetector(autoencoder, n_stations, scaler=scaler, threshold=1.0)
    if warmup_ticks:
        detector.process_block(fleet[:, :warmup_ticks])
    start = time.perf_counter()
    for first in range(warmup_ticks, warmup_ticks + scored_ticks, block_size):
        detector.process_block(fleet[:, first : first + block_size])
    return time.perf_counter() - start


def station_batching_profile(args: argparse.Namespace) -> dict:
    config = AutoencoderConfig(
        sequence_length=args.seq_len, encoder_units=(8, 4), decoder_units=(4, 8)
    )
    autoencoder = LSTMAutoencoder(config, seed=args.seed)
    warmup = args.seq_len - 1
    n_ticks = warmup + max(args.ticks, args.naive_ticks)
    fleet = synthesize_fleet(args.stations, n_ticks, seed=args.seed)

    batched_elapsed = run_micro_batched(autoencoder, fleet, warmup, args.ticks)
    batched_rate = args.stations * args.ticks / batched_elapsed
    naive_elapsed = run_naive_loop(autoencoder, fleet, warmup, args.naive_ticks)
    naive_rate = args.stations * args.naive_ticks / naive_elapsed
    return {
        "stations": args.stations,
        "sequence_length": args.seq_len,
        "micro_batched_readings_per_second": batched_rate,
        "naive_readings_per_second": naive_rate,
        "speedup_micro_batched_vs_naive": batched_rate / naive_rate,
    }


def block_profile(args: argparse.Namespace) -> dict:
    # Compact fleet-scale per-station model: small enough that per-tick
    # pipeline overhead is visible next to the forward pass.
    config = AutoencoderConfig(
        sequence_length=12, encoder_units=(4, 2), decoder_units=(2, 4)
    )
    autoencoder = LSTMAutoencoder(config, seed=args.seed)
    warmup = config.sequence_length - 1
    ticks = args.block_ticks
    fleet = synthesize_fleet(args.stations, warmup + ticks, seed=args.seed)

    reference = run_reference_per_tick(autoencoder, fleet, warmup, ticks)
    per_tick = run_micro_batched(autoencoder, fleet, warmup, ticks)
    block = run_block(autoencoder, fleet, warmup, ticks, args.block_size)
    return {
        "stations": args.stations,
        "sequence_length": config.sequence_length,
        "block_size": args.block_size,
        "reference_ticks_per_second": ticks / reference,
        "per_tick_ticks_per_second": ticks / per_tick,
        "block_ticks_per_second": ticks / block,
        "speedup_block_vs_reference_tick": reference / block,
        "speedup_block_vs_per_tick": per_tick / block,
        # Informational only (no "speedup_" prefix, so never gated): at
        # smoke scale (128 stations, no predict chunking to remove) the
        # two per-tick pipelines are nearly identical and this ratio is
        # ~1x timing noise; it only measures real removed overhead at
        # full scale (~1.6x at 1000 stations), where CI does not run.
        "ratio_per_tick_vs_reference": reference / per_tick,
    }


def ops_profile(args: argparse.Namespace) -> dict:
    """Dropout + churn replay: the operational-robustness workload."""
    config = AutoencoderConfig(
        sequence_length=12, encoder_units=(4, 2), decoder_units=(2, 4)
    )
    autoencoder = LSTMAutoencoder(config, seed=args.seed)
    warmup = config.sequence_length - 1
    n_ticks = warmup + args.ops_ticks
    fleet = synthesize_fleet(
        args.stations, n_ticks, seed=args.seed, dropout_rate=args.dropout_rate
    )
    scaler = StreamingMinMaxScaler.from_bounds(
        np.nanmin(fleet, axis=1), np.nanmax(fleet, axis=1)
    )
    detector = StreamingDetector(
        autoencoder, args.stations, scaler=scaler, threshold=1.0, missing="impute"
    )
    engine = StreamReplayEngine(detector, mitigator="hold_last_good")
    churn = max(1, args.stations // 100)
    half = n_ticks // 2

    start = time.perf_counter()
    first = engine.run(fleet[:, :half], block_size=args.block_size)
    # Mid-run churn: ~1% of the fleet joins cold, then leaves again.
    engine.add_stations(
        churn, data_min=np.zeros(churn), data_max=np.full(churn, 1000.0)
    )
    engine.drop_stations(np.arange(args.stations, args.stations + churn))
    second = engine.run(fleet[:, half:], block_size=args.block_size)
    elapsed = time.perf_counter() - start

    return {
        "stations": args.stations,
        "dropout_rate": args.dropout_rate,
        "block_size": args.block_size,
        "churned_stations": churn,
        "missing_readings": int(first.missing.sum() + second.missing.sum()),
        "ops_ticks_per_second": n_ticks / elapsed,
        "ops_readings_per_second": n_ticks * args.stations / elapsed,
    }


def obs_overhead_profile(args: argparse.Namespace) -> dict:
    """Time the block-mode replay with observability off vs on.

    Fresh engine per repetition (identical warmup state both ways).
    The off/on legs are interleaved — one off replay, then one on
    replay, ``obs_repeats`` times, best-of per leg — so slow machine
    drift (thermal throttling, a neighbour grabbing cores mid-bench)
    hits both legs alike instead of masquerading as overhead.  Raises
    ``AssertionError`` if enabling observability moves a single output
    bit — the parity contract is checked here on the bench workload as
    well as in ``tests/obs``.
    """
    from repro import obs
    from repro.obs import JsonlSink, render_prometheus

    config = AutoencoderConfig(
        sequence_length=12, encoder_units=(4, 2), decoder_units=(2, 4)
    )
    autoencoder = LSTMAutoencoder(config, seed=args.seed)
    n_ticks = config.sequence_length - 1 + args.obs_ticks
    fleet = synthesize_fleet(args.stations, n_ticks, seed=args.seed)

    def replay() -> tuple[float, object]:
        scaler = StreamingMinMaxScaler.from_bounds(
            fleet.min(axis=1), fleet.max(axis=1)
        )
        detector = StreamingDetector(
            autoencoder, args.stations, scaler=scaler, threshold=1.0
        )
        engine = StreamReplayEngine(detector, mitigator="hold_last_good")
        start = time.perf_counter()
        report = engine.run(fleet, block_size=args.block_size)
        return time.perf_counter() - start, report

    previous_state = obs.enabled()
    try:
        obs.disable()
        replay()  # shared warmup (workspace/cache build) outside both legs
        registry = obs.enable(obs.MetricsRegistry())
        off_elapsed = on_elapsed = float("inf")
        off_report = on_report = None
        for _ in range(args.obs_repeats):
            obs.disable()
            elapsed, off_report = replay()
            off_elapsed = min(off_elapsed, elapsed)
            obs.enable(registry)
            elapsed, on_report = replay()
            on_elapsed = min(on_elapsed, elapsed)

        for attr in ("flags", "scores", "mitigated"):
            off_values = getattr(off_report, attr)
            on_values = getattr(on_report, attr)
            if not np.array_equal(off_values, on_values, equal_nan=True):
                raise AssertionError(
                    f"observability parity violated: report.{attr} differs "
                    "between obs-off and obs-on replays"
                )

        prom_path = args.output.parent / "BENCH_obs_metrics.prom"
        jsonl_path = args.output.parent / "BENCH_obs_metrics.jsonl"
        prom_path.write_text(render_prometheus(registry))
        JsonlSink(jsonl_path).write(registry)
    finally:
        if previous_state:
            obs.enable()
        else:
            obs.disable()

    return {
        "stations": args.stations,
        "block_size": args.block_size,
        "repeats": args.obs_repeats,
        "off_ticks_per_second": args.obs_ticks / off_elapsed,
        "on_ticks_per_second": args.obs_ticks / on_elapsed,
        # Gated in-code at --obs-overhead-max, NOT via speedup_ keys.
        "obs_overhead_fraction": on_elapsed / off_elapsed - 1.0,
        "parity": "bit-identical",
        "exposition_files": [prom_path.name, jsonl_path.name],
    }


def slo_profile(args: argparse.Namespace) -> dict:
    """Ingest→flag latency SLO under injected faults, v1 vs v2 wire.

    Serves the same fleet twice through real loopback sockets with a
    ``ChaosTransport`` injecting ``--slo-fault-rate`` each of
    drop/duplicate/reorder/delay:

    * **per-reading leg** — clients pinned to protocol v1
      (``versions=(1,)``), one DATA frame per reading;
    * **batch leg** — protocol v2 negotiation, ``send_block`` moves each
      gateway's whole station column per tick as one BATCH_DATA frame
      acked by one vectorized BATCH_ACK.

    Both legs report end-to-end readings/s plus the p50/p99 of per-tick
    ingest latency (first frame arrival → flag decision, watermark hold
    included).  ``speedup_batch_vs_per_reading`` is baseline-gated like
    every ``speedup_*`` metric, and ``main`` additionally enforces the
    >= 3x batch-over-per-reading floor in-code at >= 128 stations.
    """
    import asyncio

    from repro.serve import ChaosTransport, IngestClient, IngestionServer, TcpTransport

    config = AutoencoderConfig(
        sequence_length=12, encoder_units=(4, 2), decoder_units=(2, 4)
    )
    stations = min(args.stations, args.slo_stations)
    ticks = args.slo_ticks
    rate = args.slo_fault_rate
    fleet = synthesize_fleet(stations, ticks, seed=args.seed)
    stations_per_client = max(1, stations // 16)
    n_clients = -(-stations // stations_per_client)

    def build_engine() -> StreamReplayEngine:
        # Fresh seeded pipeline per leg: streaming mutates its buffers,
        # bounds and anchors, and both legs must start from the identical
        # state.
        autoencoder = LSTMAutoencoder(config, seed=args.seed)
        scaler = StreamingMinMaxScaler.from_bounds(
            fleet.min(axis=1), fleet.max(axis=1)
        )
        detector = StreamingDetector(
            autoencoder, stations, scaler=scaler, threshold=1.0, missing="impute"
        )
        return StreamReplayEngine(detector, mitigator="hold_last_good")

    async def scenario(versions: tuple[int, ...]) -> tuple[object, list, float]:
        server = IngestionServer(
            build_engine(),
            block_size=args.slo_block_size,
            lateness=4,
            capacity=4096,
            queue_size=4096,
            max_inflight=1024,
        )
        await server.start()
        clients = []
        for i in range(n_clients):
            transport = ChaosTransport(
                TcpTransport("127.0.0.1", server.port),
                drop=rate,
                duplicate=rate,
                reorder=rate,
                delay=rate,
                seed=args.seed * 7919 + i,
            )
            client = IngestClient(
                client_id=f"gateway-{i}",
                transport=transport,
                seed=args.seed + i,
                max_attempts=20,
                versions=versions,
            )
            await client.connect()
            clients.append(client)
        start = time.perf_counter()
        if max(versions) >= 2:
            for tick in range(ticks):
                for i, client in enumerate(clients):
                    lo = i * stations_per_client
                    idx = np.arange(lo, min(lo + stations_per_client, stations))
                    await client.send_block(idx, tick, fleet[idx, tick])
        else:
            for tick in range(ticks):
                for station in range(stations):
                    await clients[station // stations_per_client].send(
                        station, tick, fleet[station, tick]
                    )
        for client in clients:
            await client.drain(timeout=300)
            await client.close()
        await server.finish()
        return server, clients, time.perf_counter() - start

    def leg_stats(server, clients, elapsed) -> dict:
        latencies = np.asarray(server.ingest_latencies, dtype=np.float64)
        return {
            "served_ticks": int(server.served()["ticks"].size),
            "acked_readings": sum(len(client.ack_log) for client in clients),
            "readings_per_second": stations * ticks / elapsed,
            "ingest_latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "ingest_latency_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
            "ingest_latency_max_ms": float(latencies.max()) * 1e3,
        }

    v1 = leg_stats(*asyncio.run(scenario((1,))))
    v2 = leg_stats(*asyncio.run(scenario((1, 2))))
    return {
        "stations": stations,
        "ticks": ticks,
        "block_size": args.slo_block_size,
        "fault_rate_each": rate,
        "faults": "drop, duplicate, reorder, delay",
        "clients": n_clients,
        "served_ticks": v1["served_ticks"],
        "acked_readings": v1["acked_readings"],
        # Per-reading (protocol v1) leg keeps its historical key names so
        # artifact diffs stay continuous across the v2 redesign.
        "ingest_readings_per_second": v1["readings_per_second"],
        "ingest_latency_p50_ms": v1["ingest_latency_p50_ms"],
        "ingest_latency_p99_ms": v1["ingest_latency_p99_ms"],
        "ingest_latency_max_ms": v1["ingest_latency_max_ms"],
        "batch_served_ticks": v2["served_ticks"],
        "batch_acked_readings": v2["acked_readings"],
        "batch_readings_per_second": v2["readings_per_second"],
        "batch_ingest_latency_p50_ms": v2["ingest_latency_p50_ms"],
        "batch_ingest_latency_p99_ms": v2["ingest_latency_p99_ms"],
        "batch_ingest_latency_max_ms": v2["ingest_latency_max_ms"],
        "speedup_batch_vs_per_reading": (
            v2["readings_per_second"] / v1["readings_per_second"]
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stations", type=int, default=1000)
    parser.add_argument("--ticks", type=int, default=20, help="scored ticks (batched path)")
    parser.add_argument("--naive-ticks", type=int, default=3, help="scored ticks (naive path)")
    parser.add_argument("--block-ticks", type=int, default=64, help="scored ticks (block profile)")
    parser.add_argument("--ops-ticks", type=int, default=64, help="scored ticks (ops profile)")
    parser.add_argument("--dropout-rate", type=float, default=0.05,
                        help="fraction of NaN readings in the ops profile")
    parser.add_argument("--block-size", type=int, default=32)
    parser.add_argument("--seq-len", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    # At full scale a single ~2-block replay is noisy (±10% allocator/
    # scheduler jitter on quarter-second samples), so the overhead legs
    # need both length and repetition for the 5% gate to measure signal.
    parser.add_argument("--obs-ticks", type=int, default=160,
                        help="scored ticks (obs_overhead profile)")
    parser.add_argument("--obs-repeats", type=int, default=5,
                        help="repetitions per leg of the obs_overhead timing (best-of)")
    parser.add_argument("--obs-overhead-max", type=float, default=0.05,
                        help="fail when enabling observability costs more than this fraction")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail below this micro-batch speedup (default: 10 at >=1000 stations, 3 below)",
    )
    parser.add_argument("--slo-ticks", type=int, default=64,
                        help="ticks served per station (slo profile)")
    parser.add_argument("--slo-stations", type=int, default=128,
                        help="stations cap for the slo profile (socket fan-in bound)")
    parser.add_argument("--slo-block-size", type=int, default=8,
                        help="detector block size in the slo profile")
    parser.add_argument("--slo-fault-rate", type=float, default=0.01,
                        help="per-fault injection rate (drop/dup/reorder/delay) in the slo profile")
    parser.add_argument(
        "--profiles",
        default="station_batching,block,ops,obs_overhead,slo",
        help="comma-separated subset of profiles to run",
    )
    parser.add_argument("--output", type=Path, default=Path("BENCH_streaming.json"))
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline JSON to gate speedups against")
    parser.add_argument("--check-slack", type=float, default=0.30,
                        help="allowed fractional regression vs baseline")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: 128 stations, fewer ticks",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.stations = min(args.stations, 128)
        args.ticks = min(args.ticks, 6)
        args.naive_ticks = min(args.naive_ticks, 2)
        args.block_ticks = min(args.block_ticks, 33)
        args.ops_ticks = min(args.ops_ticks, 33)
        args.obs_ticks = min(args.obs_ticks, 33)
        # Short smoke replays are noisier; more repeats keep the 5% gate honest.
        args.obs_repeats = max(args.obs_repeats, 5)
        args.slo_ticks = min(args.slo_ticks, 40)
    known_profiles = ("station_batching", "block", "ops", "obs_overhead", "slo")
    profiles = [name.strip() for name in args.profiles.split(",") if name.strip()]
    unknown = sorted(set(profiles) - set(known_profiles))
    if unknown:
        parser.error(
            f"unknown profile(s) {', '.join(unknown)}; "
            f"choose from {', '.join(known_profiles)}"
        )
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = 10.0 if args.stations >= 1000 else 3.0

    results = {
        "benchmark": "bench_streaming",
        "profile": "smoke" if args.smoke else "full",
        "numpy": np.__version__,
        "unix_time": time.time(),
        "workloads": {},
    }

    station = obs_overhead = None
    if "station_batching" in profiles:
        print(f"[bench_streaming] station_batching: {args.stations} stations ...", flush=True)
        station = station_batching_profile(args)
        results["workloads"]["station_batching"] = station
        print(
            f"micro-batched: {station['micro_batched_readings_per_second']:,.0f} readings/s | "
            f"naive loop: {station['naive_readings_per_second']:,.0f} readings/s | "
            f"speedup {station['speedup_micro_batched_vs_naive']:.1f}x "
            f"(required: >= {min_speedup:.0f}x)"
        )

    if "block" in profiles:
        print(f"[bench_streaming] block: {args.stations} stations, B={args.block_size} ...", flush=True)
        block = block_profile(args)
        results["workloads"]["block"] = block
        print(
            f"pre-block reference: {block['reference_ticks_per_second']:,.1f} ticks/s | "
            f"per-tick: {block['per_tick_ticks_per_second']:,.1f} ticks/s | "
            f"block(B={args.block_size}): {block['block_ticks_per_second']:,.1f} ticks/s"
        )
        print(
            f"block vs pre-block reference: {block['speedup_block_vs_reference_tick']:.2f}x | "
            f"block vs per-tick: {block['speedup_block_vs_per_tick']:.2f}x | "
            f"per-tick vs reference: {block['ratio_per_tick_vs_reference']:.2f}x"
        )

    if "ops" in profiles:
        print(
            f"[bench_streaming] ops: {args.stations} stations, "
            f"{100 * args.dropout_rate:.0f}% dropout, churn ...", flush=True,
        )
        ops = ops_profile(args)
        results["workloads"]["ops"] = ops
        print(
            f"dropout+churn replay: {ops['ops_ticks_per_second']:,.1f} ticks/s "
            f"({ops['ops_readings_per_second']:,.0f} readings/s) | "
            f"{ops['missing_readings']} readings imputed | "
            f"{ops['churned_stations']} stations joined+left mid-run"
        )

    if "obs_overhead" in profiles:
        print(
            f"[bench_streaming] obs_overhead: {args.stations} stations, "
            f"best of {args.obs_repeats} ...", flush=True,
        )
        obs_overhead = obs_overhead_profile(args)
        results["workloads"]["obs_overhead"] = obs_overhead
        print(
            f"obs off: {obs_overhead['off_ticks_per_second']:,.1f} ticks/s | "
            f"obs on: {obs_overhead['on_ticks_per_second']:,.1f} ticks/s | "
            f"overhead {100 * obs_overhead['obs_overhead_fraction']:+.1f}% "
            f"(allowed: <= {100 * args.obs_overhead_max:.0f}%) | outputs bit-identical"
        )

    slo = None
    if "slo" in profiles:
        print(
            f"[bench_streaming] slo: {min(args.stations, args.slo_stations)} stations, "
            f"{100 * args.slo_fault_rate:.1f}% drop/dup/reorder/delay, "
            f"v1 per-reading + v2 batch legs ...", flush=True,
        )
        slo = slo_profile(args)
        results["workloads"]["slo"] = slo
        print(
            f"served {slo['served_ticks']} ticks via {slo['clients']} chaotic clients | "
            f"v1 per-reading: {slo['ingest_readings_per_second']:,.0f} readings/s "
            f"(p50 {slo['ingest_latency_p50_ms']:.1f} ms, "
            f"p99 {slo['ingest_latency_p99_ms']:.1f} ms)"
        )
        print(
            f"v2 batch: {slo['batch_readings_per_second']:,.0f} readings/s "
            f"(p50 {slo['batch_ingest_latency_p50_ms']:.1f} ms, "
            f"p99 {slo['batch_ingest_latency_p99_ms']:.1f} ms) | "
            f"speedup {slo['speedup_batch_vs_per_reading']:.2f}x"
        )

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[bench_streaming] wrote {args.output}")

    if station is not None and station["speedup_micro_batched_vs_naive"] < min_speedup:
        print(
            f"[bench_streaming] FAIL: micro-batched speedup "
            f"{station['speedup_micro_batched_vs_naive']:.1f}x < {min_speedup:.0f}x"
        )
        return 1

    if obs_overhead is not None and obs_overhead["obs_overhead_fraction"] > args.obs_overhead_max:
        print(
            f"[bench_streaming] FAIL: observability overhead "
            f"{100 * obs_overhead['obs_overhead_fraction']:.1f}% > "
            f"{100 * args.obs_overhead_max:.0f}%"
        )
        return 1

    # The v2 batch wire only earns its keep once per-frame overhead
    # dominates, which needs fleet-scale fan-in; below 128 stations the
    # floor stays informational.
    if (
        slo is not None
        and slo["stations"] >= 128
        and slo["speedup_batch_vs_per_reading"] < 3.0
    ):
        print(
            f"[bench_streaming] FAIL: v2 batch ingest only "
            f"{slo['speedup_batch_vs_per_reading']:.2f}x the v1 per-reading leg "
            f"at {slo['stations']} stations (required: >= 3x)"
        )
        return 1

    if args.check is not None:
        failures = check_regression(results, args.check, args.check_slack)
        if failures:
            print("[bench_streaming] REGRESSION vs baseline:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"[bench_streaming] no regression vs {args.check}")
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
