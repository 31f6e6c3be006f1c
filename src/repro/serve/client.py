"""Client SDK: fault-tolerant delivery into the ingestion server.

Delivery contract: :meth:`IngestClient.send` files a reading and
:meth:`IngestClient.drain` returns once every filed reading reached a
*terminal* ack — ``OK`` (delivered), ``DUPLICATE`` (a previous copy
already landed), or ``LATE`` (past the watermark; the server served
that slot as missing).  Everything between is the client's problem and
handled automatically:

* **Idempotent resend by seq.**  Readings are retransmitted verbatim
  until terminally acked; the server dedups by ``(station, seq)``, so
  lost frames, lost acks, and chaos duplicates all converge.
* **Jittered exponential backoff.**  Retry ``k`` waits
  ``min(backoff_max, backoff_base * backoff_factor**k)`` scaled by a
  seeded uniform jitter in ``[0.5, 1.0)`` — no thundering herd.  BUSY
  acks (backpressure) reschedule the frame the same way without
  consuming a retry attempt.
* **Reconnect.**  A broken connection (reset, BYE, structural protocol
  desync) is re-dialed with the same backoff schedule and a fresh
  HELLO; unacked frames are marked due immediately after the handshake.
* **Timeouts.**  ``connect_timeout`` bounds dial+handshake;
  ``read_timeout`` is the poll granularity of the pump loop.

The client is deliberately single-task: no background reader, no locks
— :meth:`send`/:meth:`drain` pump I/O inline, so tests and the chaos
soak get deterministic interleavings.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.serve.protocol import (
    ACK_BY_CODE,
    MAX_BATCH_RECORDS,
    PROTOCOL_VERSIONS,
    SEQ_MOD,
    FrameDecoder,
    FrameType,
    AckStatus,
    ProtocolError,
    encode_frame,
    pack_add_stations,
    pack_batch_data,
    pack_data,
    pack_drop_stations,
    pack_hello,
    sign_control_token,
    sign_token,
    unpack_ack,
    unpack_batch_ack,
    unpack_busy,
    unpack_control_ack,
    unpack_welcome,
)


def _column(values, kind: type, n: int) -> list:
    """``values`` (a scalar or an array) broadcast to ``n`` ``kind`` entries."""
    if np.isscalar(values):
        return [kind(values)] * n
    return np.broadcast_to(np.asarray(values, dtype=kind), (n,)).tolist()


class DeliveryError(RuntimeError):
    """A reading exhausted its retry budget without a terminal ack."""


class ControlError(RuntimeError):
    """A control-plane op failed, was refused, or lost its connection.

    Control ops are not idempotent, so unlike data frames they are
    never retried automatically — the caller decides what a safe retry
    looks like for its fleet.
    """


class TcpTransport:
    """Thin asyncio TCP wrapper: connect, send bytes, read chunks."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    @property
    def closed(self) -> bool:
        return self._writer is None or self._writer.is_closing()

    async def connect(self, timeout: float = 5.0) -> None:
        self.close()
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), timeout
        )

    def send(self, frame: bytes) -> None:
        if self.closed:
            raise ConnectionError("transport is closed")
        self._writer.write(frame)

    async def drain(self) -> None:
        if not self.closed:
            await self._writer.drain()

    async def read(self, timeout: float) -> bytes:
        """One chunk off the socket; ``b""`` on poll timeout, raises on EOF."""
        if self._reader is None:
            raise ConnectionError("transport is closed")
        try:
            chunk = await asyncio.wait_for(self._reader.read(4096), timeout)
        except asyncio.TimeoutError:
            return b""
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        if self._writer is not None and not self._writer.is_closing():
            self._writer.close()
        self._reader = None
        self._writer = None


class _PendingSend:
    __slots__ = ("station", "seq", "timestamp", "reading", "attempts", "due", "_frame")

    def __init__(
        self, station: int, seq: int, timestamp: float, reading: float, due: float
    ) -> None:
        self.station = station
        self.seq = seq
        self.timestamp = timestamp
        self.reading = reading
        self.attempts = 0
        self.due = due
        self._frame: bytes | None = None

    @property
    def frame(self) -> bytes:
        """The v1 DATA frame for this reading, built once on first use.

        On a v2 session the pump usually coalesces due readings into
        BATCH_DATA frames instead, so the scalar frame is lazy.
        """
        if self._frame is None:
            self._frame = pack_data(self.station, self.seq, self.timestamp, self.reading)
        return self._frame


class IngestClient:
    """Deliver readings reliably over a (possibly chaotic) transport.

    ``transport`` accepts any object with the :class:`TcpTransport`
    interface — pass a :class:`~repro.serve.chaos.ChaosTransport` to
    inject faults between this client and the server.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        client_id: str = "client",
        token: str = "",
        secret: str | None = None,
        transport=None,
        max_attempts: int = 12,
        backoff_base: float = 0.02,
        backoff_factor: float = 2.0,
        backoff_max: float = 0.5,
        connect_timeout: float = 5.0,
        read_timeout: float = 0.02,
        seed: int = 0,
        versions: tuple[int, ...] = PROTOCOL_VERSIONS,
    ) -> None:
        self.client_id = client_id
        # A shared secret outranks an explicit token: the credential is
        # derived per client id, matching IngestionServer(auth_secret=...).
        self.token = sign_token(secret, client_id) if secret is not None else token
        #: Control-plane credential (HMAC, distinct from the HELLO one).
        self.control_token = (
            sign_control_token(secret, client_id) if secret is not None else token
        )
        #: Protocol versions this client offers in HELLO; ``(1,)`` pins
        #: a byte-for-byte v1 session against any server.
        self.versions = tuple(sorted(int(v) for v in versions))
        self.transport = transport if transport is not None else TcpTransport(host, port)
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self._rng = np.random.default_rng(seed)
        self._decoder = FrameDecoder()
        self._unacked: dict[tuple[int, int], _PendingSend] = {}
        #: Terminal ack per ``(station, seq)`` — the soak test's ground
        #: truth for which readings were effectively delivered.
        self.ack_log: dict[tuple[int, int], AckStatus] = {}
        self.max_inflight = 64
        self.busy_count = 0
        self.reconnect_count = 0
        self.retransmits = 0
        self._connected = False
        #: Negotiated per session (WELCOME); 1 until connected.
        self.protocol_version = 1
        #: Per-frame batch budget the server announced (v2 sessions).
        self.max_batch = MAX_BATCH_RECORDS
        self._control_cid = 0
        self._control_acks: dict[int, dict] = {}

    async def __aenter__(self) -> "IngestClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False

    # ------------------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        delay = min(self.backoff_max, self.backoff_base * self.backoff_factor**attempt)
        return delay * (0.5 + 0.5 * float(self._rng.random()))

    async def connect(self) -> None:
        """Dial + HELLO/WELCOME, with backoff across attempts."""
        failures = 0
        while True:
            try:
                await self.transport.connect(self.connect_timeout)
                self._decoder = FrameDecoder()
                self.transport.send(pack_hello(self.client_id, self.token, versions=self.versions))
                await self.transport.drain()
                deadline = time.perf_counter() + self.connect_timeout
                while True:
                    chunk = await self.transport.read(self.read_timeout)
                    for ftype, body in self._decoder.feed(chunk):
                        if ftype is FrameType.WELCOME:
                            welcome = unpack_welcome(body)  # validated ints
                            self.max_inflight = welcome["max_inflight"]
                            # A WELCOME without a version is a v1 server.
                            self.protocol_version = welcome.get("version", 1)
                            self.max_batch = welcome.get("max_batch", MAX_BATCH_RECORDS)
                            self._connected = True
                            return
                        if ftype is FrameType.ERROR:
                            raise ConnectionError(
                                f"server refused HELLO: {body.decode(errors='replace')}"
                            )
                    if time.perf_counter() > deadline:
                        raise ConnectionError("timed out waiting for WELCOME")
            except (ConnectionError, OSError, ProtocolError, asyncio.TimeoutError):
                self.transport.close()
                failures += 1
                if failures > self.max_attempts:
                    raise
                await asyncio.sleep(self._backoff(failures - 1))

    async def _reconnect(self) -> None:
        self.reconnect_count += 1
        self._connected = False
        await self.connect()
        now = time.perf_counter()
        for pending in self._unacked.values():
            pending.due = now  # resend everything unacked on the new session

    # ------------------------------------------------------------------

    async def send(
        self, station: int, seq: int, reading: float, timestamp: float | None = None
    ) -> None:
        """File one reading for delivery (returns before it is acked).

        A one-reading :meth:`send_block`: same idempotence, same quota.
        A lone due reading goes out as a DATA frame on either protocol
        version, so it is acked by ACK, or refused by BUSY.
        """
        await self.send_block([station], seq, reading, timestamp)

    async def send_block(
        self,
        stations,
        seqs,
        readings,
        timestamps=None,
    ) -> None:
        """File a block of readings, shipped as BATCH_DATA frames (v2).

        ``stations`` must be 1-D; ``seqs``/``readings``/``timestamps``
        broadcast against it (the common call sends one tick: all
        stations, one seq).  Filing happens in chunks small enough to
        respect the server's inflight quota and per-frame batch budget;
        already-filed or already-acked readings are skipped
        (idempotent).  On a v1 session the readings simply go out as
        per-reading DATA frames — same delivery contract.
        """
        stations = np.asarray(stations, dtype=np.int64)
        if stations.ndim != 1:
            raise ValueError("stations must be 1-D")
        n = stations.size
        if timestamps is None:
            timestamps = time.time()  # reprolint: disable=RPR004 — wire payload
        stations = stations.tolist()
        seqs, timestamps, readings = (
            _column(seqs, int, n),
            _column(timestamps, float, n),
            _column(readings, float, n),
        )
        chunk = max(1, min(self.max_batch, self.max_inflight))
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            # Keep total unacked within the server's quota so a whole
            # chunk can be admitted in one BATCH_DATA frame.
            while len(self._unacked) + (stop - start) > self.max_inflight:
                await self._pump()
            now = time.perf_counter()
            rows = zip(
                stations[start:stop],
                seqs[start:stop],
                timestamps[start:stop],
                readings[start:stop],
                strict=True,
            )
            for station, seq, stamp, reading in rows:
                key = (station, seq % SEQ_MOD)
                if key in self.ack_log or key in self._unacked:
                    continue
                self._unacked[key] = _PendingSend(station, key[1], stamp, reading, now)
            await self._pump()

    async def drain(self, timeout: float = 30.0) -> None:
        """Pump until every filed reading has a terminal ack."""
        deadline = time.perf_counter() + timeout
        while self._unacked:
            await self._pump()
            if time.perf_counter() > deadline:
                stuck = sorted(self._unacked)[:5]
                raise TimeoutError(
                    f"{len(self._unacked)} reading(s) still unacked after "
                    f"{timeout}s (e.g. {stuck})"
                )

    async def close(self) -> None:
        if self._connected and not self.transport.closed:
            try:
                self.transport.send(encode_frame(FrameType.BYE))
                await self.transport.drain()
            except (ConnectionError, OSError):
                pass
        self.transport.close()
        self._connected = False

    # ------------------------------------------------------------------

    async def _pump(self) -> None:
        """One I/O round: reconnect if needed, retransmit due, read acks."""
        if not self._connected or self.transport.closed:
            await self._reconnect()
        try:
            now = time.perf_counter()
            due: list[_PendingSend] = []
            for pending in list(self._unacked.values()):
                if pending.due > now:
                    continue
                if pending.attempts >= self.max_attempts:
                    raise DeliveryError(
                        f"reading (station={pending.station}, seq={pending.seq}) "
                        f"got no terminal ack after {pending.attempts} attempts"
                    )
                due.append(pending)
            if self.protocol_version >= 2 and len(due) > 1:
                # Coalesce everything due into BATCH_DATA frames — one
                # frame, one CRC, one vectorized ack for the lot.  This
                # covers fresh send_block chunks *and* retransmits.
                chunk = max(1, min(self.max_batch, self.max_inflight))
                for start in range(0, len(due), chunk):
                    group = due[start : start + chunk]
                    self.transport.send(
                        pack_batch_data(
                            np.asarray([p.station for p in group], dtype=np.int64),
                            np.asarray([p.seq for p in group], dtype=np.int64),
                            np.asarray([p.timestamp for p in group], dtype=np.float64),
                            np.asarray([p.reading for p in group], dtype=np.float64),
                        )
                    )
                    for pending in group:
                        if pending.attempts:
                            self.retransmits += 1
                        pending.attempts += 1
                        pending.due = now + self._backoff(pending.attempts)
            else:
                for pending in due:
                    self.transport.send(pending.frame)
                    if pending.attempts:
                        self.retransmits += 1
                    pending.attempts += 1
                    pending.due = now + self._backoff(pending.attempts)
            await self.transport.drain()
            chunk = await self.transport.read(self.read_timeout)
            for ftype, body in self._decoder.feed(chunk):
                self._on_frame(ftype, body)
        except (ConnectionError, OSError, ProtocolError, asyncio.IncompleteReadError):
            self.transport.close()
            self._connected = False  # next pump re-dials and resends

    def _on_frame(self, ftype: FrameType, body: bytes) -> None:
        retry_after = None
        if ftype is FrameType.ACK:
            station, seq, status = unpack_ack(body)
            stations, seqs, statuses = [station], [seq], [status]
        elif ftype is FrameType.BUSY:
            station, seq, retry_after = unpack_busy(body)
            stations, seqs, statuses = [station], [seq], [AckStatus.BUSY]
        elif ftype is FrameType.BATCH_ACK:
            stations, seqs, statuses = (a.tolist() for a in unpack_batch_ack(body))
        elif ftype is FrameType.CONTROL_ACK:
            ack = unpack_control_ack(body)
            self._control_acks[ack["cid"]] = ack
            return
        elif ftype is FrameType.BYE:
            raise ConnectionError("server said BYE")
        elif ftype is FrameType.ERROR:
            raise ConnectionError(f"server error: {body.decode(errors='replace')}")
        else:
            return  # CORRUPT or unexpected types: drop; retransmission recovers.
        now = time.perf_counter()
        for station, seq, status in zip(stations, seqs, statuses, strict=True):
            key = (station, seq)
            if status != AckStatus.BUSY:
                self._unacked.pop(key, None)
                self.ack_log.setdefault(key, ACK_BY_CODE[status])
                continue
            self.busy_count += 1
            pending = self._unacked.get(key)
            if pending is None:
                continue
            # Backpressure costs backoff, not a retry attempt.  A
            # retry-after hint is the token bucket's actual refill time;
            # jitter only stretches it so a fleet of limited clients does
            # not return in lockstep.
            if retry_after is not None:
                delay = retry_after * (1.0 + 0.5 * float(self._rng.random()))
            else:
                delay = self._backoff(max(1, pending.attempts))
            pending.due = now + delay

    # ------------------------------------------------------------------
    # control plane (v2)

    async def add_stations(
        self,
        n_new: int,
        *,
        thresholds=None,
        data_min=None,
        data_max=None,
        timeout: float = 30.0,
    ) -> int:
        """Grow the served fleet live; returns the new fleet width.

        Requires a v2 session and, on an authenticated server, the
        control credential derived from the shared ``secret``.  Mirrors
        :meth:`StreamReplayEngine.add_stations` — newcomers take the
        next station ids.
        """
        self._control_cid += 1
        cid = self._control_cid
        frame = pack_add_stations(
            n_new,
            thresholds=thresholds,
            data_min=data_min,
            data_max=data_max,
            token=self.control_token,
            cid=cid,
        )
        return await self._control(frame, cid, timeout)

    async def drop_stations(self, stations, *, timeout: float = 30.0) -> int:
        """Shrink the served fleet live; returns the new fleet width.

        Survivors renumber compactly (the engine's drop semantics) —
        wire station ids above the dropped ones shift down.
        """
        self._control_cid += 1
        cid = self._control_cid
        frame = pack_drop_stations(stations, token=self.control_token, cid=cid)
        return await self._control(frame, cid, timeout)

    async def _control(self, frame: bytes, cid: int, timeout: float) -> int:
        """Ship one control frame; pump until its CONTROL_ACK lands.

        No automatic retry: churn is not idempotent, so a connection
        loss mid-op raises :class:`ControlError` instead of re-dialing.
        """
        if not self._connected or self.transport.closed:
            await self._reconnect()
        if self.protocol_version < 2:
            raise ControlError(
                f"control plane requires protocol v2; session negotiated "
                f"v{self.protocol_version}"
            )
        deadline = time.perf_counter() + timeout
        try:
            self.transport.send(frame)
            await self.transport.drain()
            while True:
                ack = self._control_acks.pop(cid, None)
                if ack is not None:
                    if not ack.get("ok"):
                        raise ControlError(str(ack.get("error") or "control op refused"))
                    return int(ack.get("n_stations", -1))
                if time.perf_counter() > deadline:
                    raise ControlError(f"no CONTROL_ACK within {timeout}s")
                chunk = await self.transport.read(self.read_timeout)
                for ftype, body in self._decoder.feed(chunk):
                    self._on_frame(ftype, body)
        except (ConnectionError, OSError, ProtocolError, asyncio.IncompleteReadError) as exc:
            self.transport.close()
            self._connected = False
            raise ControlError(f"connection lost awaiting CONTROL_ACK: {exc}") from exc
