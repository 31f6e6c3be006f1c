"""Protocol v2 end-to-end: negotiation, batch frames, remote churn.

The v2 acceptance criteria, executed:

1. **Negotiation** — a v1-only client against a v2 server speaks
   byte-for-byte v1 and still delivers; a default client lands on v2
   and actually moves readings in BATCH_DATA frames.
2. **Batch soak parity** — block-shipped readings under chaos
   (corruption that desyncs large frames, drops, duplicates, delays,
   disconnects) stay bit-exact against an offline replay over the
   effectively-delivered readings; duplicate batches straddling the
   watermark ack DUPLICATE/LATE per reading without changing outputs.
3. **Remote churn** — ADD_STATIONS/DROP_STATIONS through the control
   plane leave survivor state bit-identical to calling the engine's
   churn API locally between two ``step_block`` calls.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.serve import (
    AckStatus,
    ChaosTransport,
    ControlError,
    IngestClient,
    IngestionServer,
    TcpTransport,
)
from repro.serve.protocol import (
    FrameDecoder,
    FrameType,
    encode_frame,
    pack_ack,
    pack_batch_ack,
    pack_batch_data,
    pack_busy,
    pack_data,
    pack_drop_stations,
    pack_hello,
    unpack_busy,
)
from repro.stream import synthesize_fleet

from tests.serve.conftest import build_engine
from tests.serve.test_chaos_soak import (
    assert_served_equals,
    effectively_delivered,
    run,
)


class _SpyTransport(TcpTransport):
    """Record the type byte of every frame that actually goes out."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(host, port)
        self.sent_types: list[int] = []

    def send(self, frame: bytes) -> None:
        self.sent_types.append(frame[5])
        super().send(frame)


async def _send_block_stream(client, fleet: np.ndarray, first_seq: int = 0) -> None:
    """Ship ``fleet`` tick by tick through :meth:`IngestClient.send_block`."""
    stations = np.arange(fleet.shape[0], dtype=np.int64)
    for t in range(fleet.shape[1]):
        await client.send_block(stations, first_seq + t, fleet[:, t])


class TestNegotiation:
    def test_v1_pinned_hello_is_byte_identical_to_legacy(self):
        # The satellite contract behind interop: offering only v1 emits
        # exactly the frame a pre-v2 client emitted.
        assert pack_hello("c-7", token="t") == pack_hello("c-7", token="t", versions=(1,))

    def test_v1_client_against_v2_server(self, small_autoencoder):
        """A v1-pinned client negotiates v1, ships scalar DATA frames
        only, and the served output matches the offline replay."""
        n_stations, n_ticks, block = 8, 16, 4
        fleet = synthesize_fleet(n_stations, n_ticks, seed=90)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=block, lateness=2
            )
            await server.start()
            spy = _SpyTransport("127.0.0.1", server.port)
            async with IngestClient(
                transport=spy, client_id="legacy", seed=0, versions=(1,)
            ) as client:
                assert client.protocol_version == 1
                await _send_block_stream(client, fleet)
                await client.drain()
                version = client.protocol_version
            await server.finish()
            return server.served(), spy.sent_types, version

        served, sent_types, version = run(scenario())
        assert version == 1
        assert FrameType.BATCH_DATA not in sent_types
        assert FrameType.DATA in sent_types
        offline = build_engine(small_autoencoder, fleet).run(fleet, block_size=block)
        assert_served_equals(served, offline)

    def test_v2_client_ships_batch_frames(self, small_autoencoder):
        n_stations, n_ticks, block = 16, 16, 4
        fleet = synthesize_fleet(n_stations, n_ticks, seed=91)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=block, lateness=2
            )
            await server.start()
            spy = _SpyTransport("127.0.0.1", server.port)
            async with IngestClient(transport=spy, client_id="v2", seed=0) as client:
                assert client.protocol_version == 2
                assert client.max_batch >= 1
                await _send_block_stream(client, fleet)
                await client.drain()
            await server.finish()
            return server.served(), spy.sent_types

        served, sent_types = run(scenario())
        batch = sent_types.count(FrameType.BATCH_DATA)
        scalar = sent_types.count(FrameType.DATA)
        assert batch > 0
        # Whole ticks coalesce: scalar frames are at most stragglers.
        assert batch >= scalar
        offline = build_engine(small_autoencoder, fleet).run(fleet, block_size=block)
        assert_served_equals(served, offline)


class TestBatchSoak:
    def test_v2_chaos_soak_parity(self, small_autoencoder):
        """Batch frames under every chaos class stay bit-exact.

        Corruption flips a byte anywhere past the header: on a
        BATCH_DATA frame that can hit the type byte or the length-
        covered payload, so both recovery paths (CRC drop and
        structural desync -> reconnect) are on the table.
        """
        n_stations, n_ticks, block = 64, 32, 8
        stations_per_client = 16
        fleet = synthesize_fleet(n_stations, n_ticks, seed=92)

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
                    drop=0.03,
                    duplicate=0.02,
                    reorder=0.02,
                    delay=0.03,
                    corrupt=0.03,
                    disconnect=0.01,
                    max_delay=8,
                    seed=3000 + i,
                )
                client = IngestClient(
                    client_id=f"gw-{i}", transport=transport, seed=i, max_attempts=30
                )
                await client.connect()
                clients.append(client)
                chaos.append(transport)
            lo_by_client = [
                i * stations_per_client
                for i in range(n_stations // stations_per_client)
            ]
            for tick in range(n_ticks):
                for i, client in enumerate(clients):
                    lo = lo_by_client[i]
                    stations = np.arange(lo, lo + stations_per_client, dtype=np.int64)
                    await client.send_block(
                        stations, tick, fleet[lo : lo + stations_per_client, tick]
                    )
            for client in clients:
                await client.drain(timeout=120)
                await client.close()
            await server.finish()
            return server.served(), clients, chaos

        served, clients, chaos = run(scenario())
        totals = {
            key: sum(t.stats[key] for t in chaos)
            for key in ("dropped", "duplicated", "delayed", "corrupted")
        }
        assert all(count > 0 for count in totals.values()), totals
        acked = sum(len(c.ack_log) for c in clients)
        assert acked == n_stations * n_ticks
        delivered = effectively_delivered(fleet, clients)
        offline = build_engine(small_autoencoder, fleet).run(delivered, block_size=block)
        assert_served_equals(served, offline)

    def test_type_flip_on_large_batch_frame_recovers_via_reconnect(self, small_autoencoder):
        """Corrupting the *type byte* of a BATCH_DATA frame bigger than
        MAX_FRAME_BODY makes its length structurally implausible to the
        decoder — the server tears the session down instead of trusting
        a 4KiB+ length for a scalar frame.  The client must reconnect
        and redeliver, bit-exact."""
        from repro.serve.protocol import MAX_FRAME_BODY

        n_stations, n_ticks, block = 192, 8, 4
        fleet = synthesize_fleet(n_stations, n_ticks, seed=89)

        class _FlipOnce(TcpTransport):
            flipped = False

            def send(self, frame: bytes) -> None:
                if not _FlipOnce.flipped and len(frame) > MAX_FRAME_BODY + 10:
                    _FlipOnce.flipped = True
                    mangled = bytearray(frame)
                    mangled[5] ^= 0xFF
                    frame = bytes(mangled)
                super().send(frame)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=block,
                lateness=2,
                capacity=512,
                queue_size=512,
                max_inflight=256,
            )
            await server.start()
            async with IngestClient(
                transport=_FlipOnce("127.0.0.1", server.port),
                client_id="big",
                seed=0,
                max_attempts=30,
            ) as client:
                await _send_block_stream(client, fleet)
                await client.drain(timeout=60)
                reconnects = client.reconnect_count
            await server.finish()
            return server.served(), reconnects

        served, reconnects = run(scenario())
        assert _FlipOnce.flipped  # a >4KiB batch frame really went out
        assert reconnects >= 1  # and its corruption cost the session
        offline = build_engine(small_autoencoder, fleet).run(fleet, block_size=block)
        assert_served_equals(served, offline)

    def test_duplicate_batches_straddling_watermark(self, small_autoencoder):
        """Re-sending whole batches after the watermark moved on acks
        DUPLICATE (still-buffered ticks) or LATE (emitted ticks) per
        reading — and changes nothing about what was served."""
        n_stations, n_ticks, block, lateness = 8, 16, 4, 2
        fleet = synthesize_fleet(n_stations, n_ticks, seed=93)
        stations = np.arange(n_stations, dtype=np.int64)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=block,
                lateness=lateness,
            )
            await server.start()
            async with IngestClient(port=server.port, client_id="first", seed=0) as client:
                await _send_block_stream(client, fleet)
                await client.drain()
            # A second session replays old ticks as fresh batches: one
            # straddles the watermark (still pending), one is long gone.
            async with IngestClient(port=server.port, client_id="replayer", seed=1) as replayer:
                await replayer.send_block(stations, n_ticks - 1, fleet[:, n_ticks - 1])
                await replayer.send_block(stations, 0, fleet[:, 0])
                await replayer.drain()
                replay_log = dict(replayer.ack_log)
            await server.finish()
            return server.served(), replay_log

        served, replay_log = run(scenario())
        # Pending tick -> DUPLICATE; emitted tick -> LATE, per reading.
        for station in range(n_stations):
            assert replay_log[(station, n_ticks - 1)] is AckStatus.DUPLICATE
            assert replay_log[(station, 0)] is AckStatus.LATE
        offline = build_engine(small_autoencoder, fleet).run(fleet, block_size=block)
        assert_served_equals(served, offline)


def _expected_churn_reference(engine, pre_delivered, post_delivered, block, churn):
    """Engine-local ground truth: step_block, churn, step_block.

    Returns per-phase output dicts keyed like ``served()`` columns.
    """
    outs = {"flags": [], "scores": [], "missing": [], "mitigated": []}

    def run_phase(delivered):
        for t in range(0, delivered.shape[1], block):
            flags, scores, missing, mitigated = engine.step_block(delivered[:, t : t + block])
            outs["flags"].append(flags)
            outs["scores"].append(scores)
            outs["missing"].append(missing)
            outs["mitigated"].append(mitigated)

    run_phase(pre_delivered)
    pre = {key: np.concatenate(val, axis=1) for key, val in outs.items()}
    for key in outs:
        outs[key] = []
    churn(engine)
    run_phase(post_delivered)
    post = {key: np.concatenate(val, axis=1) for key, val in outs.items()}
    return pre, post


def _assert_churn_parity(served, pre, post):
    """Compare a padded ``served()`` dict against per-phase references."""
    n_pre, n_post = pre["flags"].shape[1], post["flags"].shape[1]
    w_pre, w_post = pre["flags"].shape[0], post["flags"].shape[0]
    assert served["ticks"].size == n_pre + n_post
    for key in ("flags", "scores", "missing", "mitigated"):
        got = served[key]
        assert got.shape[0] == max(w_pre, w_post)
        np.testing.assert_array_equal(got[:w_pre, :n_pre], pre[key])
        np.testing.assert_array_equal(got[:w_post, n_pre:], post[key])
        # Padding region: rows for stations that did not exist then.
        if w_pre < w_post:
            pad = got[w_pre:, :n_pre]
        elif w_post < w_pre:
            pad = got[w_post:, n_pre:]
        else:
            continue
        if got.dtype == bool:
            assert not pad.any()
        else:
            assert np.isnan(pad).all()


class TestRemoteChurn:
    """ADD/DROP_STATIONS over the wire vs. the engine's own churn API."""

    # Pre-churn: 24 ticks at lateness 4 -> 20 ticks processed (5 blocks
    # of 4), ticks 20..23 pending in the reorder window when the
    # control frame lands.  Post-churn those pending ticks emit at the
    # new width (newcomer slots NaN / dropped rows gone), then 12 more
    # ticks arrive — total post-churn span is exactly 4 blocks.
    N0, T_SENT, LATENESS, BLOCK, T_POST = 6, 24, 4, 4, 12

    def _serve_with_remote_churn(
        self, small_autoencoder, fleet_pre, post_width, post_fn, control_fn
    ):
        """Serve fleet_pre, churn over the wire, serve the post fleet."""

        async def scenario():
            engine = build_engine(small_autoencoder, fleet_pre)
            server = IngestionServer(
                engine,
                block_size=self.BLOCK,
                lateness=self.LATENESS,
                max_inflight=256,
            )
            await server.start()
            async with IngestClient(port=server.port, client_id="ops", seed=0) as client:
                await _send_block_stream(client, fleet_pre)
                await client.drain()
                new_width = await control_fn(client)
                assert new_width == post_width
                fleet_post = post_fn()
                stations = np.arange(post_width, dtype=np.int64)
                for t in range(self.T_POST):
                    await client.send_block(stations, self.T_SENT + t, fleet_post[:, t])
                await client.drain()
            await server.finish()
            return server.served()

        return run(scenario())

    def _fleets(self, seed_pre, seed_post, post_width):
        fleet_pre = synthesize_fleet(self.N0, self.T_SENT, seed=seed_pre)
        fleet_post = synthesize_fleet(post_width, self.T_POST, seed=seed_post)
        return fleet_pre, fleet_post

    def _pre_processed(self):
        return self.T_SENT - self.LATENESS  # ticks stepped before churn

    def test_remote_add_matches_engine_local(self, small_autoencoder):
        n_new = 2
        post_width = self.N0 + n_new
        fleet_pre, fleet_post = self._fleets(94, 95, post_width)
        add_kwargs = dict(
            thresholds=0.5,
            data_min=np.zeros(n_new),
            data_max=np.full(n_new, 60.0),
        )

        served = self._serve_with_remote_churn(
            small_autoencoder,
            fleet_pre,
            post_width,
            post_fn=lambda: fleet_post,
            control_fn=lambda client: client.add_stations(n_new, **add_kwargs),
        )

        pre_cut = self._pre_processed()
        # Pending pre-churn ticks re-emit at the new width: newcomers NaN.
        straddle = np.vstack(
            [
                fleet_pre[:, pre_cut:],
                np.full((n_new, self.T_SENT - pre_cut), np.nan),
            ]
        )
        pre, post = _expected_churn_reference(
            build_engine(small_autoencoder, fleet_pre),
            fleet_pre[:, :pre_cut],
            np.hstack([straddle, fleet_post]),
            self.BLOCK,
            lambda engine: engine.add_stations(n_new, **add_kwargs),
        )
        _assert_churn_parity(served, pre, post)

    def test_remote_drop_matches_engine_local(self, small_autoencoder):
        drop = [1, 4]
        post_width = self.N0 - len(drop)
        fleet_pre, fleet_post = self._fleets(96, 97, post_width)
        keep = np.setdiff1d(np.arange(self.N0), drop)

        served = self._serve_with_remote_churn(
            small_autoencoder,
            fleet_pre,
            post_width,
            post_fn=lambda: fleet_post,
            control_fn=lambda client: client.drop_stations(drop),
        )

        pre_cut = self._pre_processed()
        straddle = fleet_pre[keep, pre_cut:]
        pre, post = _expected_churn_reference(
            build_engine(small_autoencoder, fleet_pre),
            fleet_pre[:, :pre_cut],
            np.hstack([straddle, fleet_post]),
            self.BLOCK,
            lambda engine: engine.drop_stations(drop),
        )
        _assert_churn_parity(served, pre, post)

    def test_remote_add_then_drop_matches_engine_local(self, small_autoencoder):
        """Remote ADD then DROP in one session: post-churn decisions are
        bit-identical to an engine churned locally."""
        n_new = 2
        drop = [0, 3]
        post_width = self.N0 + n_new - len(drop)
        fleet_pre = synthesize_fleet(self.N0, self.T_SENT, seed=98)
        fleet_post = synthesize_fleet(post_width, self.T_POST, seed=99)
        add_kwargs = dict(
            thresholds=0.5,
            data_min=np.zeros(n_new),
            data_max=np.full(n_new, 60.0),
        )
        keep = np.setdiff1d(np.arange(self.N0 + n_new), drop)

        async def control_fn(client):
            grown = await client.add_stations(n_new, **add_kwargs)
            assert grown == self.N0 + n_new
            return await client.drop_stations(drop)

        served = self._serve_with_remote_churn(
            small_autoencoder,
            fleet_pre,
            post_width,
            post_fn=lambda: fleet_post,
            control_fn=control_fn,
        )

        pre_cut = self._pre_processed()
        straddle = np.vstack(
            [
                fleet_pre[:, pre_cut:],
                np.full((n_new, self.T_SENT - pre_cut), np.nan),
            ]
        )[keep]

        def churn(engine):
            engine.add_stations(n_new, **add_kwargs)
            engine.drop_stations(drop)

        pre, post = _expected_churn_reference(
            build_engine(small_autoencoder, fleet_pre),
            fleet_pre[:, :pre_cut],
            np.hstack([straddle, fleet_post]),
            self.BLOCK,
            churn,
        )
        _assert_churn_parity(served, pre, post)

    def test_unusable_bounds_are_refused_and_the_stream_keeps_serving(
        self, small_autoencoder
    ):
        """ADD_STATIONS with NaN, ±inf or inverted scaler bounds is a
        CONTROL_ACK refusal naming the bounds, at the same width — not a
        consumer crash at the next block — and the stream then serves
        exactly as a churn-free one."""
        fleet_pre, fleet_post = self._fleets(103, 104, self.N0)
        bad_bounds = [
            ([np.nan], [np.nan]),
            ([-np.inf], [np.inf]),
            ([2.0], [1.0]),
        ]

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet_pre),
                block_size=self.BLOCK,
                lateness=self.LATENESS,
                max_inflight=256,
            )
            await server.start()
            async with IngestClient(port=server.port, client_id="ops", seed=0) as client:
                await _send_block_stream(client, fleet_pre)
                await client.drain()
                for data_min, data_max in bad_bounds:
                    with pytest.raises(ControlError, match="data_min/data_max"):
                        await client.add_stations(
                            1, thresholds=0.5, data_min=data_min, data_max=data_max
                        )
                    assert server.n_stations == self.N0
                stations = np.arange(self.N0, dtype=np.int64)
                for t in range(self.T_POST):
                    await client.send_block(stations, self.T_SENT + t, fleet_post[:, t])
                await client.drain()
            await server.finish()
            return server.served()

        served = run(scenario())
        pre_cut = self._pre_processed()
        pre, post = _expected_churn_reference(
            build_engine(small_autoencoder, fleet_pre),
            fleet_pre[:, :pre_cut],
            np.hstack([fleet_pre[:, pre_cut:], fleet_post]),
            self.BLOCK,
            lambda engine: None,
        )
        _assert_churn_parity(served, pre, post)

    def test_control_requires_credential(self, small_autoencoder):
        """With auth on, churn needs the control HMAC — a valid *data*
        credential alone is refused, and the fleet stays untouched."""
        fleet = synthesize_fleet(4, 8, seed=100)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=4,
                lateness=2,
                auth_secret="fleet-secret",
            )
            await server.start()
            async with IngestClient(
                port=server.port, client_id="ops", secret="fleet-secret", seed=0
            ) as good:
                # Forge: data token where the control token belongs.
                good.control_token = good.token
                with pytest.raises(ControlError, match="authorization"):
                    await good.add_stations(1)
                assert server.n_stations == 4
                # The real control credential works on the same session.
                from repro.serve import sign_control_token

                good.control_token = sign_control_token("fleet-secret", "ops")
                width = await good.add_stations(
                    1, thresholds=0.5, data_min=np.zeros(1), data_max=np.ones(1)
                )
                assert width == 5
            await server.finish()

        run(scenario())

    def test_control_refused_on_v1_session(self, small_autoencoder):
        fleet = synthesize_fleet(4, 8, seed=101)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=4, lateness=2
            )
            await server.start()
            async with IngestClient(
                port=server.port, client_id="legacy", seed=0, versions=(1,)
            ) as client:
                with pytest.raises(ControlError, match="protocol v2"):
                    await client.add_stations(1)
            await server.finish()

        run(scenario())

    def test_invalid_drop_is_refused_and_reported(self, small_autoencoder):
        """A bad request (dropping the whole fleet) is a CONTROL_ACK
        refusal with the engine untouched, not a connection teardown."""
        fleet = synthesize_fleet(4, 8, seed=102)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=4, lateness=2
            )
            await server.start()
            async with IngestClient(port=server.port, client_id="ops", seed=0) as client:
                with pytest.raises(ControlError, match="strict subset"):
                    await client.drop_stations([0, 1, 2, 3])
                assert server.n_stations == 4
                # The session survives the refusal: data still flows.
                await client.send_block(np.arange(4), 0, fleet[:, 0])
                await client.drain()
            await server.finish()

        run(scenario())


class _RawPeer:
    """A hand-driven socket session: exact frames out, exact frames in."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()

    @classmethod
    async def connect(cls, port: int, versions=None) -> "_RawPeer":
        peer = cls(*await asyncio.open_connection("127.0.0.1", port))
        (welcome,) = await peer.exchange(pack_hello("raw", versions=versions), 1)
        assert welcome[5] == FrameType.WELCOME
        return peer

    async def exchange(self, frames: bytes, n_replies: int) -> list[bytes]:
        """Send ``frames`` in one write; return the next replies, re-encoded."""
        self.writer.write(frames)
        await self.writer.drain()
        replies: list[bytes] = []
        while len(replies) < n_replies:
            chunk = await asyncio.wait_for(self.reader.read(4096), 10)
            assert chunk, f"connection closed after {replies}"
            replies.extend(encode_frame(t, b) for t, b in self.decoder.feed(chunk))
        return replies

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class TestReplyFormat:
    """One reply function: DATA is answered ACK/BUSY, BATCH_DATA with
    BATCH_ACK, whatever path the readings took inside the server."""

    def test_v1_replies_are_byte_identical_per_outcome(self, small_autoencoder):
        fleet = synthesize_fleet(2, 8, seed=103)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=1,
                lateness=1,
                capacity=4,
                max_inflight=1,
            )
            await server.start()
            peer = await _RawPeer.connect(server.port)
            ok = await peer.exchange(pack_data(0, 0, 0.0, 1.0), 1)
            duplicate = await peer.exchange(pack_data(0, 0, 0.0, 1.0), 1)
            # Station 0 at tick 2 moves the watermark past ticks 0..1.
            advance = await peer.exchange(pack_data(0, 2, 0.0, 1.0), 1)
            late = await peer.exchange(pack_data(1, 0, 0.0, 1.0), 1)
            overflow = await peer.exchange(pack_data(1, 6, 0.0, 1.0), 1)
            # Two frames in one write against a quota of one: the second
            # is refused at admission, before the first is applied.
            quota = await peer.exchange(pack_data(1, 2, 0.0, 1.0) + pack_data(0, 3, 0.0, 1.0), 2)
            await peer.close()
            await server.finish()
            return ok, duplicate, advance, late, overflow, quota

        ok, duplicate, advance, late, overflow, quota = run(scenario())
        assert ok == [pack_ack(0, 0, AckStatus.OK)]
        assert duplicate == [pack_ack(0, 0, AckStatus.DUPLICATE)]
        assert advance == [pack_ack(0, 2, AckStatus.OK)]
        assert late == [pack_ack(1, 0, AckStatus.LATE)]
        assert overflow == [pack_busy(1, 6)]
        assert quota == [pack_busy(0, 3), pack_ack(1, 2, AckStatus.OK)]

    def test_v1_rate_limited_busy_carries_retry_after(self, small_autoencoder):
        fleet = synthesize_fleet(1, 8, seed=104)
        rate = 2.0

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=1,
                lateness=1,
                rate_limit=rate,
                rate_burst=1.0,
            )
            await server.start()
            peer = await _RawPeer.connect(server.port)
            replies = await peer.exchange(pack_data(0, 0, 0.0, 1.0) + pack_data(0, 1, 0.0, 1.0), 2)
            await peer.close()
            await server.finish()
            return replies

        admitted, limited = sorted(run(scenario()), key=lambda frame: frame[5])
        assert admitted == pack_ack(0, 0, AckStatus.OK)
        ((ftype, body),) = FrameDecoder().feed(limited)
        assert ftype is FrameType.BUSY
        station, seq, retry_after = unpack_busy(body)
        assert (station, seq) == (0, 1)
        # The bucket's refill time for one reading, at most 1/rate.
        assert retry_after is not None and 0.0 < retry_after <= 1.0 / rate
        assert limited == pack_busy(0, 1, retry_after)

    def test_dropped_station_straggler_is_acked_late(self, small_autoencoder):
        """A DATA frame admitted behind a DROP of its station is LATE
        (its timeline ended), answered in the DATA frame's own format."""
        fleet = synthesize_fleet(3, 8, seed=105)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=1, lateness=1
            )
            await server.start()
            peer = await _RawPeer.connect(server.port, versions=(1, 2))
            replies = await peer.exchange(
                pack_drop_stations([2], cid=5) + pack_data(2, 0, 0.0, 1.0), 2
            )
            await peer.close()
            await server.finish()
            return replies

        control_ack, straggler = run(scenario())
        assert control_ack[5] == FrameType.CONTROL_ACK
        assert straggler == pack_ack(2, 0, AckStatus.LATE)

    def test_batch_readings_answered_with_one_batch_ack(self, small_autoencoder):
        fleet = synthesize_fleet(2, 8, seed=106)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet), block_size=1, lateness=1
            )
            await server.start()
            peer = await _RawPeer.connect(server.port, versions=(1, 2))
            replies = await peer.exchange(pack_batch_data([0, 1, 0], 0, 0.0, 1.0), 1)
            await peer.close()
            await server.finish()
            return replies

        assert run(scenario()) == [
            pack_batch_ack([0, 1, 0], [0, 0, 0], [AckStatus.OK, AckStatus.OK, AckStatus.DUPLICATE])
        ]

    def test_non_integer_control_cid_is_a_protocol_error(self, small_autoencoder):
        """A malformed cid closes the session with ERROR, not a crash."""
        fleet = synthesize_fleet(2, 8, seed=107)

        async def scenario():
            server = IngestionServer(build_engine(small_autoencoder, fleet), block_size=1)
            await server.start()
            peer = await _RawPeer.connect(server.port, versions=(1, 2))
            body = b'{"cid": "abc", "stations": [1], "token": ""}'
            replies = await peer.exchange(encode_frame(FrameType.DROP_STATIONS, body), 2)
            await peer.close()
            await server.finish()
            return replies, server.n_stations

        (error, bye), n_stations = run(scenario())
        ((ftype, message),) = FrameDecoder().feed(error)
        assert ftype is FrameType.ERROR and b"cid" in message
        assert bye == encode_frame(FrameType.BYE)
        assert n_stations == 2


class _HintSpy(TcpTransport):
    """Record when each frame goes out and when each BUSY hint comes in."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(host, port)
        self.sent: list[tuple[float, bytes]] = []
        self.hints: list[tuple[float, tuple, float | None]] = []
        self._spy = FrameDecoder()

    def send(self, frame: bytes) -> None:
        self.sent.append((time.perf_counter(), frame))
        super().send(frame)

    async def read(self, timeout: float) -> bytes:
        chunk = await super().read(timeout)
        now = time.perf_counter()
        for ftype, body in self._spy.feed(chunk):
            if ftype is FrameType.BUSY:
                station, seq, hint = unpack_busy(body)
                self.hints.append((now, (station, seq), hint))
        return chunk

    async def connect(self, timeout: float = 5.0) -> None:
        await super().connect(timeout)
        self._spy = FrameDecoder()


class TestRetryAfterHint:
    def test_client_waits_out_the_rate_limit_hint(self, small_autoencoder):
        """After a rate-limited BUSY the reading is resent no sooner than
        the server's retry_after hint (blind backoff would be ~20 ms)."""
        fleet = synthesize_fleet(1, 8, seed=108)

        async def scenario():
            server = IngestionServer(
                build_engine(small_autoencoder, fleet),
                block_size=1,
                lateness=1,
                rate_limit=2.0,
                rate_burst=1.0,
            )
            await server.start()
            spy = _HintSpy("127.0.0.1", server.port)
            async with IngestClient(transport=spy, seed=0, versions=(1,)) as client:
                await client.send(0, 0, fleet[0, 0])
                await client.send(0, 1, fleet[0, 1])
                await client.drain()
            await server.finish()
            return spy

        spy = run(scenario())
        assert [key for _, key, _ in spy.hints] == [(0, 1)] * len(spy.hints)
        assert spy.hints and all(hint is not None and hint > 0.0 for *_, hint in spy.hints)
        second = pack_data(0, 1, 0.0, 0.0)[:14]  # header, type, station, seq
        sends = [at for at, frame in spy.sent if frame[:14] == second]
        for received, _, hint in spy.hints:
            resend = min(at for at in sends if at > received)
            assert resend - received >= hint
