"""Serve-layer admission: HMAC client auth and per-client rate limiting."""

import asyncio

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
