"""Live ingestion over the framed wire protocol, with injected chaos.

``examples/streaming_detection.py`` replays a fleet that is already
sitting in memory.  This example feeds the same streaming pipeline over
TCP instead: an :class:`~repro.serve.IngestionServer` drives the
detector from framed readings, and gateway clients deliver the fleet
through a deliberately hostile :class:`~repro.serve.ChaosTransport`
(drops, duplicates, reordering, delays, corruption, disconnects).

What the serving layer guarantees, and what this script demonstrates:

 1. every reading is terminally acked — delivered (OK/DUPLICATE) or
    refused (LATE, once the reorder watermark passed its tick);
 2. the served flags/scores/mitigations are **bit-exact** against an
    offline ``StreamReplayEngine.run`` over the effectively-delivered
    readings (LATE slots become NaN and take the missing-data path);
 3. retry/backoff + idempotent resend do all of the repair work — the
    application code below just calls ``send_block`` and ``drain``.

The session negotiates protocol v2 in HELLO/WELCOME, so each
``send_block`` tick travels as one binary BATCH_DATA frame (one CRC,
one vectorized BATCH_ACK) instead of per-reading DATA frames; chaos
recovery is identical either way.

Run:  PYTHONPATH=src python examples/ingest_client.py
Takes a few seconds.  REPRO_EXAMPLES_SMOKE=1 shrinks the fleet further.
"""

import asyncio
import contextlib
import os

import numpy as np

from repro.anomaly import AutoencoderConfig, LSTMAutoencoder
from repro.serve import (
    AckStatus,
    ChaosTransport,
    IngestClient,
    IngestionServer,
    TcpTransport,
)
from repro.stream import (
    StreamingDetector,
    StreamingMinMaxScaler,
    StreamReplayEngine,
    synthesize_fleet,
)

SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE") == "1"
SEED = 21
N_STATIONS = 8 if SMOKE else 24
N_TICKS = 32 if SMOKE else 96
BLOCK_SIZE = 8
STATIONS_PER_CLIENT = 4


def build_engine(fleet: np.ndarray) -> StreamReplayEngine:
    """A small calibrated pipeline; the serving layer is the subject
    here, so the autoencoder stays untrained (seeded weights)."""
    config = AutoencoderConfig(
        sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
    )
    autoencoder = LSTMAutoencoder(config, seed=SEED)
    scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
    detector = StreamingDetector(
        autoencoder,
        fleet.shape[0],
        scaler=scaler,
        missing="impute",
    )
    detector.calibrate(fleet)
    return StreamReplayEngine(detector, mitigator="hold_last_good")


async def serve_fleet(fleet: np.ndarray):
    server = IngestionServer(
        build_engine(fleet),
        block_size=BLOCK_SIZE,
        lateness=4,
        queue_size=512,
        max_inflight=128,
    )
    await server.start()
    print(f"ingestion server listening on 127.0.0.1:{server.port}")

    clients, chaos = [], []
    async with contextlib.AsyncExitStack() as stack:
        for i in range(N_STATIONS // STATIONS_PER_CLIENT):
            transport = ChaosTransport(
                TcpTransport("127.0.0.1", server.port),
                drop=0.02,
                duplicate=0.02,
                reorder=0.02,
                delay=0.02,
                corrupt=0.01,
                disconnect=0.005,
                max_delay=8,
                seed=SEED * 100 + i,
            )
            client = await stack.enter_async_context(
                IngestClient(
                    client_id=f"gateway-{i}",
                    transport=transport,
                    seed=i,
                    max_attempts=20,
                )
            )
            clients.append(client)
            chaos.append(transport)

        # One BATCH_DATA frame per gateway per tick — the whole column
        # of that gateway's stations moves under a single CRC.
        for tick in range(N_TICKS):
            for i, client in enumerate(clients):
                stations = np.arange(
                    i * STATIONS_PER_CLIENT, (i + 1) * STATIONS_PER_CLIENT
                )
                await client.send_block(stations, tick, fleet[stations, tick])
        for client in clients:
            await client.drain(timeout=120)
    await server.finish()
    return server.served(), clients, chaos


fleet = synthesize_fleet(N_STATIONS, N_TICKS, seed=SEED)
print(f"fleet: {N_STATIONS} stations x {N_TICKS} ticks, served in blocks of {BLOCK_SIZE}")
served, clients, chaos = asyncio.run(serve_fleet(fleet))

faults = {
    key: sum(t.stats[key] for t in chaos)
    for key in ("dropped", "duplicated", "delayed", "reordered", "corrupted", "disconnects")
}
print("chaos injected:", ", ".join(f"{v} {k}" for k, v in faults.items()))

statuses = [status for c in clients for status in c.ack_log.values()]
retries = sum(c.retransmits for c in clients)
print(
    f"terminal acks: {statuses.count(AckStatus.OK)} ok, "
    f"{statuses.count(AckStatus.DUPLICATE)} duplicate, "
    f"{statuses.count(AckStatus.LATE)} late "
    f"({retries} retransmits, "
    f"{sum(c.reconnect_count for c in clients)} reconnects)"
)

# Parity check: replay the effectively-delivered readings offline.  LATE
# readings never reached the detector, so they are NaN (missing) in the
# reference too.
delivered = np.full(fleet.shape, np.nan)
for client in clients:
    for (station, seq), status in client.ack_log.items():
        if status in (AckStatus.OK, AckStatus.DUPLICATE):
            delivered[station, seq] = fleet[station, seq]
offline = build_engine(fleet).run(delivered, block_size=BLOCK_SIZE)

np.testing.assert_array_equal(served["flags"], offline.flags)
np.testing.assert_array_equal(served["scores"], offline.scores)
np.testing.assert_array_equal(served["mitigated"], offline.mitigated)
print(
    f"parity: served output over {served['ticks'].size} ticks is bit-exact "
    f"against the offline replay of what was actually delivered "
    f"({int(np.isnan(delivered).sum())} readings lost to the watermark)"
)
