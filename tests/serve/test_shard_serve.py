"""Serve-layer features riding the shard PR: HMAC auth, rate limiting,
and an ingestion server fronting a sharded fleet engine."""

import asyncio
import os
import signal

import numpy as np
import pytest

from repro import obs
from repro.serve import (
    AckStatus,
    IngestClient,
    IngestionServer,
    sign_token,
)
from repro.stream import synthesize_fleet
from repro.stream.checkpoint import MANIFEST_NAME
from repro.stream.shard import ShardedFleetEngine

from tests.serve.conftest import build_engine


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


class TestHmacAuth:
    def test_signed_client_accepted(self, small_autoencoder):
        fleet = synthesize_fleet(2, 12, seed=21)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=4,
                auth_secret="fleet-secret",
            )
            await server.start()
            clients = []
            for station in range(2):
                client = IngestClient(
                    port=server.port,
                    client_id=f"station-{station}",
                    secret="fleet-secret",
                    seed=station,
                )
                await client.connect()
                clients.append(client)
            for tick in range(12):
                for station in range(2):
                    await clients[station].send(station, tick, fleet[station, tick])
            for client in clients:
                await client.drain()
                assert set(client.ack_log.values()) == {AckStatus.OK}
                await client.close()
            await server.finish()
            return server.served()

        served = run(scenario())
        assert served["flags"].shape == (2, 12)

    def test_bad_token_refused_and_counted(self, small_autoencoder):
        fleet = synthesize_fleet(2, 8, seed=22)
        obs.enable(obs.MetricsRegistry())
        try:

            async def scenario():
                server = IngestionServer(
                    build_engine(small_autoencoder, fleet),
                    auth_secret="fleet-secret",
                )
                await server.start()
                bad = IngestClient(port=server.port, token="not-a-signature", max_attempts=1)
                with pytest.raises((ConnectionError, OSError)):
                    await bad.connect()
                wrong_secret = IngestClient(
                    port=server.port,
                    client_id="eve",
                    secret="guessed-secret",
                    max_attempts=1,
                )
                with pytest.raises((ConnectionError, OSError)):
                    await wrong_secret.connect()
                failures = server._metrics["auth_failures"].value
                await server.finish()
                return failures

            assert run(scenario()) >= 2
        finally:
            obs.disable()

    def test_secret_beats_legacy_token(self, small_autoencoder):
        """When both knobs are set, only the HMAC signature is accepted."""
        fleet = synthesize_fleet(1, 8, seed=23)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                auth_secret="fleet-secret",
                auth_token="legacy-token",
            )
            await server.start()
            legacy = IngestClient(port=server.port, token="legacy-token", max_attempts=1)
            with pytest.raises((ConnectionError, OSError)):
                await legacy.connect()
            signed = IngestClient(port=server.port, client_id="ok", secret="fleet-secret")
            await signed.connect()
            await signed.close()
            await server.finish()

        run(scenario())

    def test_sign_token_shape(self):
        token = sign_token("secret", "client-a")
        assert token == sign_token("secret", "client-a")  # deterministic
        assert len(token) == 64  # sha256 hexdigest
        assert token != sign_token("secret", "client-b")
        assert token != sign_token("other", "client-a")


class TestRateLimiting:
    def test_rate_limited_busy_then_delivered(self, small_autoencoder):
        """A client pushing past the bucket gets BUSY but backoff+retry
        still lands every reading."""
        fleet = synthesize_fleet(1, 30, seed=24)
        obs.enable(obs.MetricsRegistry())
        try:

            async def scenario():
                server = IngestionServer(
                    build_engine(small_autoencoder, fleet),
                    block_size=8,
                    lateness=2,
                    rate_limit=200.0,
                    rate_burst=4.0,
                )
                await server.start()
                client = IngestClient(port=server.port, seed=4, max_attempts=30)
                await client.connect()
                for tick in range(30):
                    await client.send(0, tick, fleet[0, tick])
                await client.drain()
                await client.close()
                limited = server._metrics["rate_limited"].value
                busy = client.busy_count
                await server.finish()
                return server.served(), limited, busy

            served, limited, busy = run(scenario())
            assert served["flags"].shape[1] == 30
            assert not np.isnan(served["mitigated"]).any()
            assert limited > 0
            assert busy > 0
        finally:
            obs.disable()

    def test_rate_limit_validation(self, small_autoencoder):
        fleet = synthesize_fleet(1, 8, seed=25)
        engine = build_engine(small_autoencoder, fleet)
        with pytest.raises(ValueError, match="rate_limit"):
            IngestionServer(engine, rate_limit=0)
        with pytest.raises(ValueError, match="rate_burst requires"):
            IngestionServer(engine, rate_burst=4.0)
        with pytest.raises(ValueError, match="rate_burst"):
            IngestionServer(engine, rate_limit=10.0, rate_burst=0.5)

    def test_default_burst_is_twice_rate(self, small_autoencoder):
        fleet = synthesize_fleet(1, 8, seed=26)
        server = IngestionServer(build_engine(small_autoencoder, fleet), rate_limit=10.0)
        assert server.rate_burst == 20.0


class TestShardedServe:
    def test_served_sharded_matches_offline(self, small_autoencoder):
        """The server can't tell a sharded fleet from a single engine."""
        fleet = synthesize_fleet(4, 24, seed=27)

        async def scenario():
            engine = ShardedFleetEngine(build_engine(small_autoencoder, fleet), 2)
            server = IngestionServer(engine, block_size=8, lateness=2)
            await server.start()
            clients = []
            for station in range(4):
                client = IngestClient(
                    port=server.port, client_id=f"station-{station}", seed=station
                )
                await client.connect()
                clients.append(client)
            for tick in range(24):
                for station in range(4):
                    await clients[station].send(station, tick, fleet[station, tick])
            for client in clients:
                await client.drain()
                await client.close()
            await server.finish()
            served = server.served()
            engine.close()
            return served

        served = run(scenario())
        offline = build_engine(small_autoencoder, fleet).run(fleet, block_size=8)
        np.testing.assert_array_equal(served["ticks"], np.arange(24))
        np.testing.assert_array_equal(served["flags"], offline.flags)
        np.testing.assert_array_equal(served["scores"], offline.scores)
        np.testing.assert_array_equal(served["mitigated"], offline.mitigated)

    def test_sigterm_sharded_checkpoint_resume_bit_exact(self, small_autoencoder, tmp_path):
        """SIGTERM → sharded checkpoint directory → resume, globally
        bit-exact against an uninterrupted offline run."""
        n_stations, n_ticks, block, split = 4, 32, 8, 19
        fleet = synthesize_fleet(n_stations, n_ticks, seed=28)
        ckpt_dir = tmp_path / "serve-shards"

        async def phase1():
            engine = ShardedFleetEngine(build_engine(small_autoencoder, fleet), 2)
            server = IngestionServer(
                engine,
                block_size=block,
                lateness=3,
                checkpoint_path=ckpt_dir,
            )
            await server.start()
            server.install_signal_handlers()
            clients = []
            for station in range(n_stations):
                client = IngestClient(
                    port=server.port, client_id=f"station-{station}", seed=station
                )
                await client.connect()
                clients.append(client)
            for tick in range(split):
                for station in range(n_stations):
                    await clients[station].send(station, tick, fleet[station, tick])
            for client in clients:
                await client.drain()
                await client.close()
            os.kill(os.getpid(), signal.SIGTERM)
            while server.shutdown_task is None:
                await asyncio.sleep(0.01)
            await server.shutdown_task
            asyncio.get_running_loop().remove_signal_handler(signal.SIGTERM)
            served = server.served()
            server.engine.close()
            return served

        served1 = run(phase1())
        assert (ckpt_dir / MANIFEST_NAME).is_file()
        assert 0 < served1["ticks"].size < split

        async def phase2():
            server = IngestionServer.from_checkpoint(ckpt_dir, lateness=3)
            assert isinstance(server.engine, ShardedFleetEngine)
            assert server.block_size == block
            await server.start()
            clients = []
            for station in range(n_stations):
                client = IngestClient(
                    port=server.port, client_id=f"station-{station}", seed=station
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
            served = server.served()
            server.engine.close()
            return served

        served2 = run(phase2())

        combined = {
            key: np.concatenate([served1[key], served2[key]], axis=-1)
            for key in ("ticks", "flags", "scores", "missing", "mitigated")
        }
        np.testing.assert_array_equal(combined["ticks"], np.arange(n_ticks))
        offline = build_engine(small_autoencoder, fleet).run(fleet, block_size=block)
        np.testing.assert_array_equal(combined["flags"], offline.flags)
        np.testing.assert_array_equal(combined["scores"], offline.scores)
        np.testing.assert_array_equal(combined["mitigated"], offline.mitigated)
