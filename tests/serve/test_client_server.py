"""Client/server integration over real sockets (loopback, one loop).

No pytest-asyncio in the toolchain: each test drives its coroutine with
``asyncio.run``, which also guarantees a fresh event loop per test.
"""

import asyncio
import math

import numpy as np
import pytest

from repro import obs
from repro.serve import (
    AckStatus,
    IngestClient,
    IngestionServer,
    TcpTransport,
)
from repro.serve.protocol import (
    FrameDecoder,
    FrameType,
    encode_frame,
    pack_busy,
    unpack_ack,
)
from repro.stream import synthesize_fleet

from tests.serve.conftest import build_engine


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def connect_clients(server, n_clients, **kwargs):
    clients = []
    for i in range(n_clients):
        client = IngestClient(port=server.port, client_id=f"client-{i}", seed=i, **kwargs)
        await client.connect()
        clients.append(client)
    return clients


async def send_fleet(clients, fleet, station_of, ticks=None):
    n_stations, n_ticks = fleet.shape
    for tick in ticks if ticks is not None else range(n_ticks):
        for station in range(n_stations):
            await clients[station_of(station)].send(station, tick, fleet[station, tick])


class TestHappyPath:
    def test_served_output_matches_offline_replay(self, small_autoencoder):
        """Clean network: the served pipeline IS the replay engine."""
        fleet = synthesize_fleet(4, 30, seed=3)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=8, lateness=2
            )
            await server.start()
            clients = await connect_clients(server, 4)
            await send_fleet(clients, fleet, station_of=lambda s: s)
            for client in clients:
                await client.drain()
                assert set(client.ack_log.values()) == {AckStatus.OK}
                await client.close()
            await server.finish()
            return server.served()

        served = run(scenario())
        offline = build_engine(small_autoencoder, fleet).run(fleet, block_size=8)
        np.testing.assert_array_equal(served["ticks"], np.arange(30))
        np.testing.assert_array_equal(served["flags"], offline.flags)
        np.testing.assert_array_equal(served["scores"], offline.scores)
        np.testing.assert_array_equal(served["mitigated"], offline.mitigated)

    def test_one_client_many_stations(self, small_autoencoder):
        fleet = synthesize_fleet(5, 20, seed=4)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=4, lateness=1
            )
            await server.start()
            (client,) = await connect_clients(server, 1)
            await send_fleet([client] * 5, fleet, station_of=lambda s: 0)
            await client.drain()
            await client.close()
            await server.finish()
            return server.served()

        served = run(scenario())
        assert served["flags"].shape == (5, 20)

    def test_nan_reading_routes_into_missing_path(self, small_autoencoder):
        fleet = synthesize_fleet(2, 16, seed=5)
        holed = fleet.copy()
        holed[1, 6] = np.nan

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=4, lateness=1
            )
            await server.start()
            clients = await connect_clients(server, 2)
            await send_fleet(clients, holed, station_of=lambda s: s)
            for client in clients:
                await client.drain()
                await client.close()
            await server.finish()
            return server.served()

        served = run(scenario())
        assert served["missing"][1, 6]
        assert np.isfinite(served["mitigated"][1, 6])


class TestFailureSemantics:
    def test_late_frame_acked_late_and_served_as_missing(self, small_autoencoder):
        fleet = synthesize_fleet(2, 24, seed=6)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=4, lateness=2
            )
            await server.start()
            clients = await connect_clients(server, 2)
            # Station 1 withholds tick 0 until the watermark passed it.
            await send_fleet(clients, fleet, station_of=lambda s: s, ticks=range(1, 12))
            await clients[0].send(0, 0, fleet[0, 0])
            for client in clients:
                await client.drain()
            await clients[1].send(1, 0, fleet[1, 0])  # long gone
            await clients[1].drain()
            assert clients[1].ack_log[(1, 0)] is AckStatus.LATE
            for client in clients:
                await client.close()
            await server.finish()
            return server.served()

        served = run(scenario())
        tick0 = list(served["ticks"]).index(0)
        assert served["missing"][1, tick0]

    def test_auth_token_mismatch_refused(self, small_autoencoder):
        fleet = synthesize_fleet(2, 12, seed=7)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=4,
                auth_token="right-token",
            )
            await server.start()
            bad = IngestClient(port=server.port, token="wrong-token", max_attempts=1)
            with pytest.raises((ConnectionError, OSError)):
                await bad.connect()
            good = IngestClient(port=server.port, token="right-token")
            await good.connect()
            await good.close()
            await server.finish()

        run(scenario())

    def test_quota_busy_then_delivered(self, small_autoencoder):
        """A client racing past its inflight quota gets BUSY frames but
        every reading still lands after backoff."""
        fleet = synthesize_fleet(1, 40, seed=8)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=8,
                lateness=2,
                max_inflight=4,
                queue_size=4,
            )
            await server.start()
            client = IngestClient(port=server.port, seed=0)
            await client.connect()
            assert client.max_inflight == 4  # announced in WELCOME
            for tick in range(40):
                await client.send(0, tick, fleet[0, tick])
            await client.drain()
            await client.close()
            await server.finish()
            return server.served(), client

        served, client = run(scenario())
        assert served["flags"].shape[1] == 40
        assert not np.isnan(served["mitigated"]).any()

    def test_infinite_busy_hint_never_parks_a_reading(self, small_autoencoder):
        """Regression: a BUSY hint of ``inf`` used to schedule the
        reading's retry at ``due == inf``, so it was never resent and
        ``drain()`` hung.  The decoder now rejects the hint as a protocol
        error: the client drops the session, reconnects and redelivers."""
        fleet = synthesize_fleet(2, 8, seed=5)

        class _InfiniteBusyOnce(TcpTransport):
            """Turns the server's first ACK into a BUSY hinting ``inf``."""

            rewritten = False

            async def connect(self, timeout: float = 5.0) -> None:
                await super().connect(timeout)
                self.decoder = FrameDecoder()

            async def read(self, timeout: float) -> bytes:
                frames = []
                for ftype, body in self.decoder.feed(await super().read(timeout)):
                    if ftype is FrameType.ACK and not _InfiniteBusyOnce.rewritten:
                        _InfiniteBusyOnce.rewritten = True
                        station, seq, _status = unpack_ack(body)
                        frames.append(pack_busy(station, seq, math.inf))
                    else:
                        frames.append(encode_frame(ftype, body))
                return b"".join(frames)

        class _WatchedClient(IngestClient):
            def _on_frame(self, ftype, body):
                super()._on_frame(ftype, body)
                assert all(math.isfinite(p.due) for p in self._unacked.values())

        async def scenario():
            server = IngestionServer(build_engine(small_autoencoder, fleet), block_size=4)
            await server.start()
            async with _WatchedClient(
                transport=_InfiniteBusyOnce("127.0.0.1", server.port),
                client_id="c",
                seed=0,
                versions=(1,),
            ) as client:
                await send_fleet([client], fleet, lambda station: 0)
                await client.drain(timeout=10)
                reconnects = client.reconnect_count
            await server.finish()
            return server.served(), reconnects

        served, reconnects = run(scenario())
        assert _InfiniteBusyOnce.rewritten
        assert reconnects >= 1
        offline = build_engine(small_autoencoder, fleet).run(fleet, block_size=4)
        np.testing.assert_array_equal(served["flags"], offline.flags)

    def test_reject_policy_sends_busy_on_full_queue(self, small_autoencoder):
        fleet = synthesize_fleet(4, 30, seed=9)
        obs.enable()
        try:
            async def scenario():
                server = IngestionServer(
                    build_engine(small_autoencoder, fleet),
                    block_size=8,
                    lateness=2,
                    queue_size=1,
                    policy="reject",
                    max_inflight=64,
                )
                await server.start()
                clients = await connect_clients(server, 4)
                await send_fleet(clients, fleet, station_of=lambda s: s)
                busy = sum(c.busy_count for c in clients)
                for client in clients:
                    await client.drain()
                    await client.close()
                await server.finish()
                return server.served(), busy

            served, _busy = run(scenario())
            assert served["flags"].shape[1] == 30
        finally:
            obs.disable()

    def test_shed_policy_drops_oldest_but_retries_recover(self, small_autoencoder):
        fleet = synthesize_fleet(4, 30, seed=10)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=8,
                lateness=2,
                queue_size=1,
                policy="shed",
                max_inflight=64,
            )
            await server.start()
            clients = await connect_clients(server, 4)
            await send_fleet(clients, fleet, station_of=lambda s: s)
            for client in clients:
                await client.drain()
                await client.close()
            await server.finish()
            return server.served()

        served = run(scenario())
        # Shed readings are retried until terminally acked, so the
        # timeline is complete even though the queue held ONE item.
        assert served["flags"].shape[1] == 30

    def test_requires_impute_detector(self, small_autoencoder):
        fleet = synthesize_fleet(2, 16, seed=11)
        engine = build_engine(small_autoencoder, fleet)
        engine.detector.missing = "raise"
        with pytest.raises(ValueError, match="impute"):
            IngestionServer(engine)

    def test_invalid_policy_rejected(self, small_autoencoder):
        fleet = synthesize_fleet(2, 16, seed=12)
        with pytest.raises(ValueError, match="policy"):
            IngestionServer(build_engine(small_autoencoder, fleet), policy="drop-all")


class TestTransportEdges:
    def test_client_reconnects_after_server_side_close(self, small_autoencoder):
        fleet = synthesize_fleet(1, 20, seed=13)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=4, lateness=1
            )
            await server.start()
            client = IngestClient(port=server.port, seed=1)
            await client.connect()
            for tick in range(10):
                await client.send(0, tick, fleet[0, tick])
            await client.drain()
            # Sever the transport under the client's feet.
            client.transport.close()
            for tick in range(10, 20):
                await client.send(0, tick, fleet[0, tick])
            await client.drain()
            assert client.reconnect_count >= 1
            await client.close()
            await server.finish()
            return server.served()

        served = run(scenario())
        assert served["flags"].shape[1] == 20

    def test_resend_is_idempotent(self, small_autoencoder):
        fleet = synthesize_fleet(1, 12, seed=14)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=4, lateness=1
            )
            await server.start()
            client = IngestClient(port=server.port, seed=2)
            await client.connect()
            for tick in range(12):
                await client.send(0, tick, fleet[0, tick])
                await client.send(0, tick, fleet[0, tick])  # app-level dup
            await client.drain()
            # Wire-level replay of an already-acked frame: DUPLICATE ack.
            raw = TcpTransport("127.0.0.1", server.port)
            replayer = IngestClient(transport=raw, seed=3)
            await replayer.connect()
            await replayer.send(0, 5, fleet[0, 5])
            await replayer.drain()
            assert replayer.ack_log[(0, 5)] in (AckStatus.DUPLICATE, AckStatus.LATE)
            await replayer.close()
            await client.close()
            await server.finish()
            return server.served()

        served = run(scenario())
        assert served["flags"].shape[1] == 12
