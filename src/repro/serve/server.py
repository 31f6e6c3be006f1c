"""Asyncio ingestion server driving the streaming detector.

Data path::

    client ──DATA / BATCH_DATA──▶ connection handler ──▶ bounded ingest queue
                                  (decode to arrays)          │  (backpressure)
                                                              ▼
                                                       consumer task
                                                              │ offer_block()
                                                              ▼
               ACK / BUSY / BATCH_ACK ◀──reply──  ReorderBuffer ──drain──▶ column
                                                                           batcher
                                                                             │ B cols
                                                                             ▼
                                                              engine.step_block(...)

The wire version is visible only where a frame is decoded and where its
reply is encoded: a v1 DATA frame becomes a one-record
``(stations, seqs, readings)`` batch, and everything in between —
admission, queueing, reordering — handles those arrays alone.

Correctness contract: blocks are always exactly ``block_size`` columns
of consecutive ticks (the trailing partial block happens only at
:meth:`IngestionServer.finish`), which is precisely the partition
:meth:`StreamReplayEngine.run` uses — so the served flags/scores/
mitigated outputs are **bit-exact** against an offline replay of the
effectively-delivered readings (undelivered slots as NaN missing).

Failure semantics:

* Frames failing CRC are counted and *not acked*; the client's
  idempotent resend-by-seq delivers a clean copy.
* A full ingest queue triggers the configured backpressure ``policy``:
  ``"reject"`` answers BUSY (client backs off, retries); ``"shed"``
  drops the *oldest queued* reading instead — it was never acked, so
  its sender retries it too.
* Readings past the reorder watermark are acked LATE and dropped; their
  tick already shipped with that slot NaN → imputed downstream.
* SIGTERM (see :meth:`install_signal_handlers`) drains the ingest queue
  into the reorder buffer, writes a checkpoint bundling detector +
  mitigator + reorder/batcher state, and closes.  A server restored
  with :meth:`IngestionServer.from_checkpoint` resumes the timeline
  bit-exactly — block boundaries stay globally aligned, so the combined
  pre/post-restart output equals one uninterrupted run.
"""

from __future__ import annotations

import asyncio
import hmac
import signal
import time

import numpy as np

from repro import obs
from repro.serve._metrics import ingest_metrics
from repro.serve.protocol import (
    MAX_BATCH_RECORDS,
    FrameDecoder,
    FrameType,
    AckStatus,
    ProtocolError,
    encode_frame,
    negotiate_version,
    pack_ack,
    pack_batch_ack,
    pack_busy,
    pack_control_ack,
    pack_error,
    pack_welcome,
    sign_control_token,
    sign_token,
    unpack_batch_data,
    unpack_control,
    unpack_data,
    unpack_hello,
)
from repro.serve.reorder import OFFER_BY_CODE, ReorderBuffer
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.engine import ReplayDriver

class _TokenBucket:
    """Classic token bucket: ``rate`` refills/s up to ``burst`` capacity."""

    __slots__ = ("tokens", "last")

    def __init__(self, burst: float) -> None:
        self.tokens = float(burst)
        self.last = time.perf_counter()

    def take_many(self, need: float, rate: float, burst: float) -> bool:
        """Spend ``need`` tokens at once, or none (batch admission)."""
        now = time.perf_counter()
        self.tokens = min(float(burst), self.tokens + (now - self.last) * rate)
        self.last = now
        if self.tokens >= need:
            self.tokens -= need
            return True
        return False

    def retry_after(self, need: float, rate: float) -> float:
        """Seconds until the bucket can cover ``need`` tokens."""
        return max(0.0, (need - self.tokens) / rate)


class _Conn:
    """Per-connection bookkeeping: writer, identity, version, quota."""

    __slots__ = ("writer", "client_id", "inflight", "version")

    def __init__(self, writer: asyncio.StreamWriter, client_id: str, version: int = 1) -> None:
        self.writer = writer
        self.client_id = client_id
        self.inflight = 0
        self.version = version

    def send(self, frame: bytes) -> None:
        try:
            if not self.writer.is_closing():
                self.writer.write(frame)
        except (ConnectionError, OSError):
            pass  # the peer vanished; its retries land on a new connection


class IngestionServer:
    """Serve the streaming detector over the framed wire protocol.

    Parameters
    ----------
    engine:
        A calibrated replay engine whose detector was built with
        ``missing="impute"`` (undelivered readings become NaN columns
        and *must* be imputable) — either the in-process
        :class:`~repro.stream.engine.StreamReplayEngine` or a
        :class:`~repro.stream.shard.ShardedFleetEngine` fronting a
        worker fleet; the server routes blocks through whichever
        ``step_block`` it is handed.
    block_size:
        Ticks per detector block; the batcher only fires full blocks.
    lateness, capacity:
        Reorder-buffer watermark lag and buffered-tick span
        (see :class:`~repro.serve.reorder.ReorderBuffer`).
    queue_size:
        Bound of the ingest queue between connections and the consumer.
    policy:
        Backpressure on a full queue: ``"reject"`` (BUSY the sender) or
        ``"shed"`` (drop the oldest queued reading, unacked).
    max_inflight:
        Per-connection unacked-frame quota (announced in WELCOME);
        frames beyond it are answered BUSY without queueing.
    auth_secret:
        When set, HELLO must present the HMAC-SHA256 credential
        :func:`~repro.serve.protocol.sign_token` derives from this
        shared secret and the client's id.  Verified with a
        constant-time compare; a mismatch is answered with ERROR and
        the connection closes.  Clients pass the same value as
        ``IngestClient(secret=...)``.
    auth_token:
        Legacy shared-token auth: HELLO must present exactly this
        token.  ``auth_secret`` supersedes it when both are set.
    rate_limit, rate_burst:
        Per-client token-bucket rate limiting, beyond the inflight
        quota: sustained admission of ``rate_limit`` readings/s with
        bursts up to ``rate_burst`` (default ``2 * rate_limit``).  A
        frame is admitted whole or refused whole: a refused DATA frame
        is answered BUSY with a ``retry_after`` hint (the bucket's
        refill time), a refused BATCH_DATA frame with an all-BUSY
        BATCH_ACK; the client backs off and retries.  Refused readings
        are counted in ``repro_serve_rate_limited_total``.  Buckets are
        keyed by client id, so reconnecting does not reset a client's
        budget.
    checkpoint_path:
        Where :meth:`shutdown` writes the final checkpoint directory
        (optional; :func:`~repro.stream.checkpoint.save_checkpoint`).
    start_tick:
        Absolute tick the timeline starts at (tests park this near the
        u32 wrap point).
    """

    def __init__(
        self,
        engine: ReplayDriver,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        block_size: int = 8,
        lateness: int = 8,
        capacity: int = 1024,
        queue_size: int = 256,
        policy: str = "reject",
        max_inflight: int = 64,
        auth_secret: str | None = None,
        auth_token: str | None = None,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        checkpoint_path=None,
        start_tick: int = 0,
    ) -> None:
        if engine.missing_mode != "impute":
            raise ValueError(
                "the served detector must be built with missing='impute': "
                "undelivered readings become NaN columns"
            )
        if policy not in ("reject", "shed"):
            raise ValueError(f"policy must be 'reject' or 'shed', got {policy!r}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError(f"rate_limit must be > 0 readings/s, got {rate_limit}")
        if rate_burst is not None:
            if rate_limit is None:
                raise ValueError("rate_burst requires rate_limit")
            if rate_burst < 1:
                raise ValueError(f"rate_burst must be >= 1, got {rate_burst}")
        self.engine = engine
        self.host = host
        self.port = port
        self.block_size = block_size
        self.policy = policy
        self.max_inflight = max_inflight
        self.auth_secret = auth_secret
        self.auth_token = auth_token
        self.rate_limit = rate_limit
        self.rate_burst = (
            rate_burst
            if rate_burst is not None
            else (None if rate_limit is None else max(1.0, 2.0 * rate_limit))
        )
        #: Token buckets keyed by client id (not connection), so a
        #: reconnect keeps spending the same budget.
        self._buckets: dict[str, _TokenBucket] = {}
        self.checkpoint_path = checkpoint_path
        self.n_stations = engine.n_stations
        self.reorder = ReorderBuffer(
            self.n_stations, lateness=lateness, capacity=capacity, start=start_tick
        )
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        # Emitted-but-unprocessed tick columns waiting to fill a block.
        self._columns: list[tuple[int, np.ndarray, float]] = []
        # Served outputs, one column per processed tick.
        self._served_ticks: list[int] = []
        self._served_flags: list[np.ndarray] = []
        self._served_scores: list[np.ndarray] = []
        self._served_missing: list[np.ndarray] = []
        self._served_mitigated: list[np.ndarray] = []
        #: Per-tick ingest→flag latency (seconds) for ticks whose first
        #: frame arrival was tracked; fuels the SLO bench profile.
        self.ingest_latencies: list[float] = []
        registry = obs.registry()
        self._metrics = ingest_metrics(registry)
        #: Metric-only work (outcome tallies, gauges) runs only when obs collects.
        self._counting = registry.enabled
        self._server: asyncio.AbstractServer | None = None
        self._consumer: asyncio.Task | None = None
        #: Set when a signal handler schedules :meth:`shutdown`, so the
        #: process can await the drain+checkpoint before exiting.
        self.shutdown_task: asyncio.Task | None = None
        self._sessions = 0
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Bind the listener (resolving an ephemeral port) and consume."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._consumer = asyncio.create_task(self._consume())

    def install_signal_handlers(self, sig: signal.Signals = signal.SIGTERM) -> None:
        """Graceful shutdown on ``sig`` (default SIGTERM)."""
        loop = asyncio.get_running_loop()

        def _on_signal() -> None:
            self.shutdown_task = loop.create_task(self.shutdown())

        loop.add_signal_handler(sig, _on_signal)

    async def shutdown(self) -> None:
        """Drain the queue, checkpoint, close — the SIGTERM path.

        Buffered-but-unemittable state (reorder window, a partial
        block's columns) is *checkpointed, not flushed*: a restored
        server picks the timeline up exactly where it stopped, keeping
        block boundaries globally aligned with an uninterrupted run.
        """
        if self._closing:
            return
        await self._stop_intake()
        if self.checkpoint_path is not None:
            # Checkpoint writes hit disk; keep the loop responsive for
            # any connections still draining their BYE handshakes.
            await asyncio.to_thread(self.save, self.checkpoint_path)

    async def finish(self) -> None:
        """End-of-stream: flush the reorder window, run the last blocks.

        Unlike :meth:`shutdown`, this declares the stream over —
        everything buffered is emitted (undelivered slots as NaN) and
        processed, ending with a trailing partial block exactly like
        ``engine.run``'s.
        """
        await self._stop_intake()
        self._columns.extend(self.reorder.flush())
        while self._columns:
            take = min(self.block_size, len(self._columns))
            self._process_block(self._columns[:take])
            del self._columns[:take]

    async def _stop_intake(self) -> None:
        """Close the listener, stop the consumer, apply everything queued."""
        if self._server is not None and not self._closing:
            self._server.close()
            await self._server.wait_closed()
        self._closing = True
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
        while not self._queue.empty():
            self._apply(self._queue.get_nowait())

    def save(self, path) -> None:
        """Checkpoint the pipeline + serve state to the directory ``path``.

        The serve state (reorder buffer, buffered columns, block size)
        travels as the checkpoint's ``extra`` arrays.
        """
        extra: dict[str, np.ndarray] = {}
        for key, value in self.reorder.state_dict().items():
            extra[f"serve.reorder.{key}"] = value
        extra["serve.columns_ticks"] = np.asarray(
            [tick for tick, _, _ in self._columns], dtype=np.int64
        )
        extra["serve.columns_values"] = (
            np.stack([values for _, values, _ in self._columns], axis=1)
            if self._columns
            else np.empty((self.n_stations, 0))
        )
        extra["serve.columns_arrivals"] = np.asarray(
            [arrival for _, _, arrival in self._columns], dtype=np.float64
        )
        extra["serve.block_size"] = np.asarray(self.block_size, dtype=np.int64)
        save_checkpoint(path, self.engine, extra=extra)

    @classmethod
    def from_checkpoint(cls, path, **kwargs) -> "IngestionServer":
        """Rebuild a server exactly as :meth:`shutdown` left it.

        A sharded checkpoint respawns the worker fleet before serving
        resumes.
        """
        engine, extra = load_checkpoint(path)
        kwargs.setdefault("block_size", int(extra["serve.block_size"]))
        server = cls(engine, **kwargs)
        server.reorder.load_state_dict(
            {
                key[len("serve.reorder.") :]: value
                for key, value in extra.items()
                if key.startswith("serve.reorder.")
            }
        )
        ticks = np.asarray(extra["serve.columns_ticks"], dtype=np.int64)
        values = np.asarray(extra["serve.columns_values"], dtype=np.float64)
        arrivals = np.asarray(extra["serve.columns_arrivals"], dtype=np.float64)
        server._columns = [
            (int(ticks[i]), values[:, i].copy(), float(arrivals[i]))
            for i in range(len(ticks))
        ]
        return server

    # ------------------------------------------------------------------
    # connections

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        decoder = FrameDecoder()
        conn: _Conn | None = None
        try:
            conn = await self._handshake(reader, writer, decoder)
            if conn is None:
                return
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                for ftype, body in decoder.feed(chunk):
                    if await self._dispatch(conn, ftype, body):
                        return
        except ProtocolError as exc:
            try:
                writer.write(pack_error(str(exc)))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                if not writer.is_closing():
                    writer.write(encode_frame(FrameType.BYE))
                    await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()

    async def _handshake(self, reader, writer, decoder) -> _Conn | None:
        while True:
            chunk = await reader.read(4096)
            if not chunk:
                return None
            frames = decoder.feed(chunk)
            if not frames:
                continue
            ftype, body = frames[0]
            if ftype is not FrameType.HELLO:
                raise ProtocolError(f"expected HELLO, got {ftype.name}")
            hello = unpack_hello(body)
            if not self._credential_ok(hello.get("token"), str(hello["client_id"]), sign_token):
                self._metrics["auth_failures"].inc()
                writer.write(pack_error("authentication failed"))
                await writer.drain()
                writer.close()
                return None
            self._sessions += 1
            version = negotiate_version(hello)
            conn = _Conn(writer, str(hello["client_id"]), version)
            writer.write(
                pack_welcome(
                    f"s{self._sessions}",
                    self.max_inflight,
                    version=version if version > 1 else None,
                    max_batch=MAX_BATCH_RECORDS,
                )
            )
            await writer.drain()
            # A greedy client may pipeline DATA right behind HELLO.
            for extra_type, extra_body in frames[1:]:
                await self._dispatch(conn, extra_type, extra_body)
            return conn

    async def _dispatch(self, conn: _Conn, ftype: FrameType, body: bytes) -> bool:
        """Route one post-handshake frame; True means BYE (close)."""
        if ftype is FrameType.DATA:
            station, seq, _timestamp, reading = unpack_data(body)
            stations, seqs = np.array([station], np.int64), np.array([seq], np.int64)
            self._on_readings(conn, ftype, stations, seqs, np.array([reading], np.float64))
        elif ftype is FrameType.BATCH_DATA:
            if conn.version < 2:
                raise ProtocolError("BATCH_DATA requires negotiated protocol v2")
            stations, seqs, _timestamps, readings = unpack_batch_data(body)
            self._metrics["batch_frames"].inc()
            self._metrics["batch_readings"].inc(int(stations.size))
            self._on_readings(conn, ftype, stations, seqs, readings)
        elif ftype in (FrameType.ADD_STATIONS, FrameType.DROP_STATIONS):
            await self._on_control(conn, ftype, body)
        elif ftype is FrameType.CORRUPT:
            self._metrics["corrupt"].inc()
        elif ftype is FrameType.BYE:
            return True
        # Anything else from a client is ignorable noise.
        return False

    def _credential_ok(self, token, client_id: str, sign) -> bool:
        """Check a HELLO or control credential (constant-time on both paths).

        Under ``auth_secret`` the token must be ``sign(secret, client_id)``
        (:func:`sign_token` for HELLO, :func:`sign_control_token` for
        control frames); under ``auth_token`` it must equal that token.
        """
        token = str(token or "")
        if self.auth_secret is not None:
            return hmac.compare_digest(token, sign(self.auth_secret, client_id))
        if self.auth_token is not None:
            return hmac.compare_digest(token, self.auth_token)
        return True

    def _bucket(self, conn: _Conn) -> _TokenBucket:
        bucket = self._buckets.get(conn.client_id)
        if bucket is None:
            bucket = self._buckets[conn.client_id] = _TokenBucket(self.rate_burst)
        return bucket

    def _on_readings(self, conn: _Conn, ftype: FrameType, stations, seqs, readings) -> None:
        """Admit one data frame's readings to the ingest queue, or refuse them."""
        n = int(stations.size)
        self._metrics["frames"].inc()
        # Station ids are u32 on the wire, so only the top end can be off.
        # (A Python max: numpy's reduction overhead outweighs a v1 frame.)
        if max(stations.tolist()) >= self.n_stations:
            raise ProtocolError(f"station out of range [0, {self.n_stations})")
        if self.rate_limit is not None:
            bucket = self._bucket(conn)
            if not bucket.take_many(float(n), self.rate_limit, self.rate_burst):
                # All-or-nothing: a partial admission would force
                # per-reading bucket accounting back into the hot path.
                self._metrics["rate_limited"].inc(n)
                retry_after = bucket.retry_after(float(n), self.rate_limit)
                self._refuse(conn, ftype, stations, seqs, retry_after)
                return
        if conn.inflight + n > self.max_inflight:
            self._refuse(conn, ftype, stations, seqs)
            return
        arrival = time.perf_counter()
        item = ("readings", conn, ftype, stations, seqs, readings, arrival, self.n_stations)
        if not self._admit(item, n):
            self._refuse(conn, ftype, stations, seqs)

    def _refuse(self, conn: _Conn, ftype: FrameType, stations, seqs, retry_after=None) -> None:
        """Answer a whole frame BUSY: the sender backs off and resends it."""
        self._metrics["busy"].inc()
        statuses = np.full(stations.size, int(AckStatus.BUSY), dtype=np.uint8)
        self._reply(conn, ftype, stations, seqs, statuses, retry_after)

    @staticmethod
    def _reply(conn: _Conn, ftype: FrameType, stations, seqs, statuses, retry_after=None) -> None:
        """Ack readings in the format of the frame that carried them.

        ``statuses`` are :class:`AckStatus` codes.  BATCH_DATA is answered
        with one BATCH_ACK; a DATA frame's single reading with an ACK, or
        with a BUSY that carries the rate limiter's ``retry_after`` hint.
        """
        if ftype is FrameType.BATCH_DATA:
            conn.send(pack_batch_ack(stations, seqs, statuses))
            return
        station, seq, status = stations.item(0), seqs.item(0), statuses.item(0)
        if status == AckStatus.BUSY:
            conn.send(pack_busy(station, seq, retry_after))
        else:
            conn.send(pack_ack(station, seq, status))

    def _admit(self, item: tuple, cost: int) -> bool:
        """Queue one ingest item (``cost`` readings) under backpressure.

        False means rejected (caller answers BUSY).  Under the shed
        policy the oldest queued *readings* item is dropped instead — a
        control op at the queue head is applied on the spot, which
        preserves its ordering exactly (everything before it has
        already been applied).
        """
        if self._queue.full():
            if self.policy == "reject":
                return False
            while self._queue.full():
                victim = self._queue.get_nowait()
                if victim[0] == "control":
                    self._apply(victim)
                    continue
                # The victim is silently dropped — never acked, so its
                # sender retransmits it after backoff.
                shed = int(victim[3].size)
                victim[1].inflight -= shed
                self._metrics["shed"].inc(shed)
                break
        item[1].inflight += cost
        self._queue.put_nowait(item)
        self._observe_queue()
        return True

    # ------------------------------------------------------------------
    # control plane

    async def _on_control(self, conn: _Conn, ftype: FrameType, body: bytes) -> None:
        if conn.version < 2:
            raise ProtocolError(f"{ftype.name} requires negotiated protocol v2")
        payload = unpack_control(body)
        cid = payload["cid"]
        op = "add" if ftype is FrameType.ADD_STATIONS else "drop"
        if not self._credential_ok(payload.get("token"), conn.client_id, sign_control_token):
            self._metrics["auth_failures"].inc()
            self._metrics["control_denied"].inc()
            conn.send(
                pack_control_ack(
                    cid, op, False, self.n_stations, "control authorization failed"
                )
            )
            return
        # Churn rides the ingest queue so it applies in order with the
        # data already admitted ahead of it.  ``put`` (not put_nowait)
        # may wait for space — control is rare and must not be shed.
        await self._queue.put(("control", conn, ftype, payload))
        self._observe_queue()

    # ------------------------------------------------------------------
    # consumer

    async def _consume(self) -> None:
        while True:
            item = await self._queue.get()
            self._apply(item)
            self._observe_queue()

    def _observe_queue(self) -> None:
        if self._counting:
            self._metrics["queue_depth"].set(float(self._queue.qsize()))

    def _apply(self, item: tuple) -> None:
        if item[0] == "readings":
            self._apply_readings(*item[1:])
        else:
            self._apply_control(*item[1:])

    def _apply_readings(
        self, conn: _Conn, ftype: FrameType, stations, seqs, readings, arrival, width
    ) -> None:
        """File one admitted frame's readings and ack them.

        ``width`` is the fleet width the frame was admitted against.
        """
        conn.inflight -= int(stations.size)
        # Stations a drop renumbered away while this frame queued: their
        # timelines are over, so those readings are terminal LATE.
        stale = self.n_stations < width
        live = stations < self.n_stations if stale else slice(None)
        codes = self.reorder.offer_block(
            stations[live], seqs[live], readings[live], arrival=arrival
        )
        if stale:
            late = np.full(stations.size, int(AckStatus.LATE), dtype=np.uint8)
            late[live] = codes
            codes = late
        if self._counting:
            tally = np.bincount(codes, minlength=len(OFFER_BY_CODE)).tolist()
            # OVERFLOW is not terminal: the sender backs off and resends.
            for name, count in zip(("accepted", "duplicates", "late", "busy"), tally, strict=True):
                self._metrics[name].inc(count)
        # Reorder codes are the AckStatus values (OVERFLOW is BUSY).
        self._reply(conn, ftype, stations, seqs, codes)
        self._drain_columns()

    def _apply_control(self, conn: _Conn, ftype: FrameType, payload: dict) -> None:
        """Apply a queued churn op: engine, reorder window, partial block.

        Full blocks ahead of the op were already processed (it rides the
        same queue), so the churn lands exactly at the next unprocessed
        tick — the same boundary an engine-local ``add_stations``/
        ``drop_stations`` between two ``step_block`` calls would hit.
        """
        cid = payload["cid"]
        op = "add" if ftype is FrameType.ADD_STATIONS else "drop"
        try:
            if ftype is FrameType.ADD_STATIONS:
                n_new = int(payload["n_new"])
                thresholds = payload.get("thresholds")
                if thresholds is not None and not isinstance(thresholds, (int, float)):
                    thresholds = np.asarray(thresholds, dtype=np.float64)
                data_min = payload.get("data_min")
                if data_min is not None:
                    data_min = np.asarray(data_min, dtype=np.float64)
                data_max = payload.get("data_max")
                if data_max is not None:
                    data_max = np.asarray(data_max, dtype=np.float64)
                self.engine.add_stations(
                    n_new, thresholds=thresholds, data_min=data_min, data_max=data_max
                )
                self.reorder.add_stations(n_new)
                # Emitted-but-unprocessed columns predate the newcomers:
                # their slots serve as NaN missing.
                self._columns = [
                    (tick, np.concatenate([vals, np.full(n_new, np.nan)]), arr)
                    for tick, vals, arr in self._columns
                ]
            else:
                stations = np.unique(np.asarray(payload["stations"], dtype=np.int64))
                if (
                    stations.size == 0
                    or stations[0] < 0
                    or stations[-1] >= self.n_stations
                    or stations.size >= self.n_stations
                ):
                    raise ValueError(
                        f"stations to drop must be a non-empty strict subset of "
                        f"[0, {self.n_stations})"
                    )
                keep = np.setdiff1d(np.arange(self.n_stations, dtype=np.int64), stations)
                self.engine.drop_stations(stations)
                self.reorder.drop_stations(stations)
                self._columns = [
                    (tick, vals[keep].copy(), arr) for tick, vals, arr in self._columns
                ]
            self.n_stations = self.engine.n_stations
            self._metrics["control"].inc()
            conn.send(pack_control_ack(cid, op, True, self.n_stations))
        except Exception as exc:  # noqa: BLE001 — report to the client, keep serving
            self._metrics["control_denied"].inc()
            conn.send(pack_control_ack(cid, op, False, self.n_stations, str(exc)))

    def _drain_columns(self) -> None:
        self._columns.extend(self.reorder.drain())
        if self._counting:
            self._metrics["pending_ticks"].set(float(self.reorder.pending_ticks))
        while len(self._columns) >= self.block_size:
            self._process_block(self._columns[: self.block_size])
            del self._columns[: self.block_size]

    def _process_block(self, columns: list[tuple[int, np.ndarray, float]]) -> None:
        values = np.stack([col for _, col, _ in columns], axis=1)
        flags, scores, missing, mitigated = self.engine.step_block(values)
        done = time.perf_counter()
        for i, (tick, _, arrival) in enumerate(columns):
            self._served_ticks.append(tick)
            self._served_flags.append(flags[:, i])
            self._served_scores.append(scores[:, i])
            self._served_missing.append(missing[:, i])
            self._served_mitigated.append(mitigated[:, i])
            if arrival > 0.0:
                latency = max(0.0, done - arrival)
                self.ingest_latencies.append(latency)
                self._metrics["ingest_latency"].observe(latency)
        self._metrics["blocks"].inc()

    # ------------------------------------------------------------------
    # results

    def served(self) -> dict[str, np.ndarray]:
        """Everything decided so far, one column per processed tick.

        After a control-plane churn the fleet width differs across
        ticks; columns are padded at the *tail* to the widest width
        seen (flags/missing ``False``, scores/mitigated NaN) — a padded
        slot means the station did not exist at that tick.  Note a drop
        renumbers survivors, so row identities change at the churn
        boundary exactly as they do for the engine's ``drop_stations``.
        """

        def stack(cols: list[np.ndarray], dtype, fill) -> np.ndarray:
            if not cols:
                return np.empty((self.n_stations, 0), dtype=dtype)
            widths = {col.shape[0] for col in cols}
            if len(widths) == 1:
                return np.stack(cols, axis=1)
            out = np.full((max(widths), len(cols)), fill, dtype=dtype)
            for i, col in enumerate(cols):
                out[: col.shape[0], i] = col
            return out

        return {
            "ticks": np.asarray(self._served_ticks, dtype=np.int64),
            "flags": stack(self._served_flags, bool, False),
            "scores": stack(self._served_scores, np.float64, np.nan),
            "missing": stack(self._served_missing, bool, False),
            "mitigated": stack(self._served_mitigated, np.float64, np.nan),
        }
