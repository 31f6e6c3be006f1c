"""Chaos soak + crash recovery: the acceptance criteria, executed.

1. **Soak parity** — a 128-station fleet served through
   :class:`ChaosTransport` with >= 1% each of drop/duplicate/reorder/
   delay (plus corruption and disconnects) must produce flags/scores/
   mitigated outputs **bit-exact** against an offline
   ``StreamReplayEngine.run`` over the *effectively-delivered* readings
   (terminal ack OK/DUPLICATE = delivered; LATE = missing NaN).
2. **SIGTERM -> restart** — a real SIGTERM mid-stream checkpoints the
   serve state; a server restored from that checkpoint continues the
   timeline, and the combined pre/post output equals one uninterrupted
   offline replay, bit for bit.
"""

import asyncio
import os
import signal

import numpy as np

from repro.serve import (
    AckStatus,
    ChaosTransport,
    IngestClient,
    IngestionServer,
    TcpTransport,
)
from repro.stream import load_checkpoint, save_checkpoint, synthesize_fleet

from tests.serve.conftest import build_engine, client_versions


def run(coro, timeout=240):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


def effectively_delivered(fleet: np.ndarray, clients) -> np.ndarray:
    """NaN matrix with every terminally-delivered reading filled in."""
    delivered = np.full(fleet.shape, np.nan)
    for client in clients:
        for (station, seq), status in client.ack_log.items():
            if status in (AckStatus.OK, AckStatus.DUPLICATE):
                delivered[station, seq] = fleet[station, seq]
    return delivered


def assert_served_equals(served: dict, report) -> None:
    np.testing.assert_array_equal(served["flags"], report.flags)
    np.testing.assert_array_equal(served["scores"], report.scores)
    np.testing.assert_array_equal(served["missing"], report.missing)
    np.testing.assert_array_equal(served["mitigated"], report.mitigated)


class TestChaosSoak:
    def test_soak_parity_128_stations(self, small_autoencoder):
        n_stations, n_ticks, block = 128, 40, 8
        stations_per_client = 8
        fleet = synthesize_fleet(n_stations, n_ticks, seed=77)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=block,
                lateness=6,
                capacity=512,
                queue_size=512,
                max_inflight=256,
            )
            await server.start()
            clients, chaos = [], []
            for i in range(n_stations // stations_per_client):
                transport = ChaosTransport(
                    TcpTransport("127.0.0.1", server.port),
                    drop=0.02,
                    duplicate=0.015,
                    reorder=0.015,
                    delay=0.02,
                    corrupt=0.01,
                    disconnect=0.004,
                    max_delay=10,
                    seed=1000 + i,
                )
                client = IngestClient(
                    client_id=f"gateway-{i}",
                    transport=transport,
                    seed=i,
                    max_attempts=20,
                    versions=client_versions(),
                )
                await client.connect()
                clients.append(client)
                chaos.append(transport)
            for tick in range(n_ticks):
                for station in range(n_stations):
                    await clients[station // stations_per_client].send(
                        station, tick, fleet[station, tick]
                    )
            for client in clients:
                await client.drain(timeout=120)
                await client.close()
            await server.finish()
            return server.served(), clients, chaos

        served, clients, chaos = run(scenario())

        # The chaos harness really was hostile: every targeted fault
        # class fired (>= 1% rates over ~5k frames make this certain).
        totals = {
            key: sum(t.stats[key] for t in chaos)
            for key in ("dropped", "duplicated", "delayed", "reordered", "corrupted")
        }
        assert all(count > 0 for count in totals.values()), totals
        assert sum(t.stats["disconnects"] for t in chaos) > 0

        # Terminal acks exist for every reading sent.
        acked = sum(len(c.ack_log) for c in clients)
        assert acked == n_stations * n_ticks

        delivered = effectively_delivered(fleet, clients)
        served_ticks = served["ticks"]
        np.testing.assert_array_equal(served_ticks, np.arange(n_ticks))
        offline = build_engine(small_autoencoder, fleet).run(delivered, block_size=block)
        assert_served_equals(served, offline)

    def test_tight_watermark_forces_late_drops_and_parity_holds(self, small_autoencoder):
        """With aggressive delays against a tight watermark some frames
        MUST die LATE — and parity still holds, with those slots served
        as missing."""
        n_stations, n_ticks, block = 16, 48, 8
        fleet = synthesize_fleet(n_stations, n_ticks, seed=78)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=block,
                lateness=1,
                queue_size=256,
                max_inflight=256,
            )
            await server.start()
            clients = []
            for station in range(n_stations):
                transport = ChaosTransport(
                    TcpTransport("127.0.0.1", server.port),
                    delay=0.3,
                    max_delay=24,
                    seed=2000 + station,
                )
                client = IngestClient(
                    client_id=f"station-{station}",
                    transport=transport,
                    seed=station,
                    max_attempts=20,
                    versions=client_versions(),
                )
                await client.connect()
                clients.append(client)
            for tick in range(n_ticks):
                for station in range(n_stations):
                    await clients[station].send(station, tick, fleet[station, tick])
            for client in clients:
                await client.drain(timeout=120)
                await client.close()
            await server.finish()
            return server.served(), clients

        served, clients = run(scenario())
        statuses = [s for c in clients for s in c.ack_log.values()]
        assert statuses.count(AckStatus.LATE) > 0
        delivered = effectively_delivered(fleet, clients)
        assert np.isnan(delivered).any()
        offline = build_engine(small_autoencoder, fleet).run(delivered, block_size=block)
        assert_served_equals(served, offline)
        # LATE slots really were served as missing.
        late_mask = np.isnan(delivered)
        assert served["missing"][late_mask].all()


class TestSigtermResume:
    def test_sigterm_checkpoint_restart_is_bit_exact(self, small_autoencoder, tmp_path):
        n_stations, n_ticks, block, split = 6, 40, 8, 23
        fleet = synthesize_fleet(n_stations, n_ticks, seed=79)
        pristine = tmp_path / "pristine"
        save_checkpoint(pristine, build_engine(small_autoencoder, fleet))
        serve_ckpt = tmp_path / "serve-final"

        async def phase1():
            server = IngestionServer(
                load_checkpoint(pristine)[0],
                block_size=block,
                lateness=3,
                checkpoint_path=serve_ckpt,
            )
            await server.start()
            server.install_signal_handlers()
            clients = []
            for station in range(n_stations):
                client = IngestClient(
                    port=server.port,
                    client_id=f"station-{station}",
                    seed=station,
                    versions=client_versions(),
                )
                await client.connect()
                clients.append(client)
            for tick in range(split):
                for station in range(n_stations):
                    await clients[station].send(station, tick, fleet[station, tick])
            for client in clients:
                await client.drain()
                await client.close()
            os.kill(os.getpid(), signal.SIGTERM)  # the real signal path
            while server.shutdown_task is None:
                await asyncio.sleep(0.01)
            await server.shutdown_task
            asyncio.get_running_loop().remove_signal_handler(signal.SIGTERM)
            return server.served()

        served1 = run(phase1())
        assert serve_ckpt.exists()
        # The watermark + partial block were checkpointed, not flushed:
        # phase 1 served strictly fewer ticks than were delivered.
        assert 0 < served1["ticks"].size < split

        async def phase2():
            server = IngestionServer.from_checkpoint(serve_ckpt, lateness=3)
            assert server.block_size == block  # restored from the checkpoint
            await server.start()
            clients = []
            for station in range(n_stations):
                client = IngestClient(
                    port=server.port,
                    client_id=f"station-{station}",
                    seed=station,
                    versions=client_versions(),
                )
                await client.connect()
                clients.append(client)
            for tick in range(split, n_ticks):
                for station in range(n_stations):
                    await clients[station].send(station, tick, fleet[station, tick])
            for client in clients:
                await client.drain()
                await client.close()
            await server.finish()
            return server.served()

        served2 = run(phase2())

        combined = {
            key: np.concatenate([served1[key], served2[key]], axis=-1)
            for key in ("ticks", "flags", "scores", "missing", "mitigated")
        }
        np.testing.assert_array_equal(combined["ticks"], np.arange(n_ticks))
        offline = load_checkpoint(pristine)[0].run(fleet, block_size=block)
        assert_served_equals(combined, offline)
