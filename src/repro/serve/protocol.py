"""Framed wire protocol for the live ingestion service.

Every message on the wire is one *frame*::

    +-------+----------------+------+----------+-----------+
    | magic | length (u32 BE)| type | body ... | crc32 (BE)|
    +-------+----------------+------+----------+-----------+
      0x7E    len(type+body+crc)      length - 5 bytes

``length`` counts everything after the length field (type byte + body +
4-byte CRC), so a reader can always consume exactly one frame without
understanding its type.  The CRC-32 (:func:`zlib.crc32`) covers the type
byte and body.  Two distinct failure modes fall out of this layout:

* **Payload corruption** — magic and length are intact, the CRC check
  fails.  Framing survives: the reader stays synchronized and reports
  the damaged frame as :data:`FrameType.CORRUPT` (a sentinel that never
  appears on the wire) so the server can count it and simply *not ack*;
  the client's idempotent resend-by-seq delivers a clean copy.
* **Structural desync** — wrong magic byte or an absurd length.  The
  byte stream can no longer be trusted at all; the reader raises
  :class:`ProtocolError` and the connection must be torn down (the
  client reconnects and resends everything unacked).

Body formats (all big-endian):

============= ======================= ====================================
type          body                    meaning
============= ======================= ====================================
HELLO         UTF-8 JSON              ``{"client_id", "token"[, "v"]}``
WELCOME       UTF-8 JSON              ``{"session", "max_inflight"
                                      [, "version", "max_batch"]}``
DATA          ``>IIdd``               station u32, seq u32, unix ts, reading
ACK           ``>IIB``                station, seq, :class:`AckStatus`
BUSY          ``>II`` or ``>IIf``     station, seq rejected — back off;
                                      the optional f32 is a retry-after
                                      hint in seconds
ERROR         UTF-8 text              fatal; server closes the connection
BYE           empty                   graceful close
BATCH_DATA    packed records (v2)     ``N × (station u32, seq u32,
                                      ts f64, reading f64)`` — 24 B each
BATCH_ACK     packed records (v2)     ``N × (station u32, seq u32,
                                      status u8)`` — 9 B each
ADD_STATIONS  UTF-8 JSON (v2)         control plane: grow the fleet
DROP_STATIONS UTF-8 JSON (v2)         control plane: shrink the fleet
CONTROL_ACK   UTF-8 JSON (v2)         outcome of a control-plane op
============= ======================= ====================================

**Version negotiation** rides the JSON handshake, so it is byte-for-byte
compatible with v1 peers (extra JSON keys are ignored): a HELLO may
advertise the versions the client speaks (``"v": [1, 2]``; absent means
``[1]``), and the WELCOME answers with the chosen one (``"version": 2``;
absent means 1).  The v2-only frame types above are valid only on a
session that negotiated version 2.

``seq`` is an unsigned 32-bit *tick index* that wraps at ``2**32``; the
server's reorder buffer unwraps it (see :mod:`repro.serve.reorder`).
``reading`` may be NaN — an explicit missing measurement, routed into
the detector's imputation path like any other gap.  BATCH_DATA/BATCH_ACK
bodies are numpy structured arrays on the wire — many readings cross in
one frame, one CRC, one ack — and are the only frames whose body may
exceed :data:`MAX_FRAME_BODY` (up to :data:`MAX_BATCH_BODY`).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import math
import struct
import zlib
from enum import IntEnum

import numpy as np

MAGIC = 0x7E
#: Wire seq numbers live in u32 and wrap at this modulus.
SEQ_MOD = 2**32
#: Protocol versions this implementation speaks.  Version 2 adds the
#: batch data frames and the fleet control plane.
PROTOCOL_VERSIONS = (1, 2)
#: Upper bound on ``length``; anything larger is structural desync, not
#: a plausible frame (the largest real body is a short JSON HELLO).
#: BATCH_DATA/BATCH_ACK frames are the one exception — see
#: :data:`MAX_BATCH_BODY`.
MAX_FRAME_BODY = 4096
#: Structural bound for BATCH_DATA/BATCH_ACK bodies, the only frame
#: types allowed past :data:`MAX_FRAME_BODY`.
MAX_BATCH_BODY = 65536
_HEADER = struct.Struct(">BI")  # magic, length
_CRC = struct.Struct(">I")
_DATA = struct.Struct(">IIdd")  # station, seq, timestamp, reading
_ACK = struct.Struct(">IIB")  # station, seq, status
_BUSY = struct.Struct(">II")  # station, seq
_BUSY_HINT = struct.Struct(">IIf")  # station, seq, retry-after seconds

#: One BATCH_DATA record — big-endian, packed (24 bytes).
BATCH_DTYPE = np.dtype(
    [("station", ">u4"), ("seq", ">u4"), ("timestamp", ">f8"), ("reading", ">f8")]
)
#: One BATCH_ACK record — big-endian, packed (9 bytes).
BATCH_ACK_DTYPE = np.dtype([("station", ">u4"), ("seq", ">u4"), ("status", "u1")])
#: Most readings one BATCH_DATA frame can carry.
MAX_BATCH_RECORDS = MAX_BATCH_BODY // BATCH_DTYPE.itemsize


class ProtocolError(RuntimeError):
    """The byte stream is structurally broken; close the connection."""


class FrameType(IntEnum):
    #: Never sent on the wire: a decoder sentinel for a frame whose CRC
    #: check failed but whose framing was intact.
    CORRUPT = 0
    HELLO = 1
    WELCOME = 2
    DATA = 3
    ACK = 4
    BUSY = 5
    ERROR = 6
    BYE = 7
    # Protocol v2 — only valid on a session that negotiated version 2.
    BATCH_DATA = 8
    BATCH_ACK = 9
    ADD_STATIONS = 10
    DROP_STATIONS = 11
    CONTROL_ACK = 12


#: The only frame types whose body may exceed :data:`MAX_FRAME_BODY`.
_BATCH_TYPES = (FrameType.BATCH_DATA, FrameType.BATCH_ACK)
#: Type byte -> frame type (a dict lookup is far cheaper than the Enum call).
_FRAME_TYPES = {int(t): t for t in FrameType}


class AckStatus(IntEnum):
    OK = 0  # accepted into the reorder buffer
    DUPLICATE = 1  # already delivered (resend/dup); nothing to do
    LATE = 2  # past the watermark; dropped, counted as missing
    #: v2, BATCH_ACK only: this reading overflowed the reorder window —
    #: not terminal, back off and resend (the batch-wide BUSY).
    BUSY = 3


#: :class:`AckStatus` members indexed by their wire code.
ACK_BY_CODE = tuple(AckStatus)


def encode_frame(ftype: FrameType, body: bytes = b"") -> bytes:
    """Serialize one frame (magic + length + type + body + CRC)."""
    limit = MAX_BATCH_BODY if ftype in _BATCH_TYPES else MAX_FRAME_BODY
    if len(body) > limit:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds {limit}")
    payload = bytes([ftype]) + body
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, len(payload) + 4) + payload + _CRC.pack(crc)


class FrameDecoder:
    """Incremental frame parser over an arbitrary chunking of the stream.

    Feed it whatever the socket hands you; it yields complete frames and
    buffers the rest.  CRC failures come back as ``(FrameType.CORRUPT,
    b"")``; structural desync raises :class:`ProtocolError`.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list[tuple[FrameType, bytes]]:
        self._buf.extend(chunk)
        frames: list[tuple[FrameType, bytes]] = []
        while len(self._buf) >= _HEADER.size:
            magic, length = _HEADER.unpack_from(self._buf)
            if magic != MAGIC:
                raise ProtocolError(f"bad magic byte 0x{magic:02x}; stream desynced")
            if not 5 <= length <= MAX_FRAME_BODY + 5:
                # Only batch frames may run longer; peek the type byte
                # (right after the header) before judging plausibility.
                if not 5 <= length <= MAX_BATCH_BODY + 5:
                    raise ProtocolError(f"implausible frame length {length}; stream desynced")
                if len(self._buf) < _HEADER.size + 1:
                    break  # need the type byte to judge this length
                if self._buf[_HEADER.size] not in _BATCH_TYPES:
                    raise ProtocolError(
                        f"implausible frame length {length} for type "
                        f"0x{self._buf[_HEADER.size]:02x}; stream desynced"
                    )
            end = _HEADER.size + length
            if len(self._buf) < end:
                break
            payload = bytes(self._buf[_HEADER.size : end - 4])
            (crc,) = _CRC.unpack_from(self._buf, end - 4)
            del self._buf[:end]
            # A CRC failure, an unknown-but-well-framed type, or the
            # CORRUPT sentinel itself: corrupt payload, framing intact.
            # Skip it; the sender's resend recovers.
            ftype = FrameType.CORRUPT
            if zlib.crc32(payload) & 0xFFFFFFFF == crc:
                ftype = _FRAME_TYPES.get(payload[0], FrameType.CORRUPT)
            frames.append((ftype, b"" if ftype is FrameType.CORRUPT else payload[1:]))
        return frames


def pack_data(station: int, seq: int, timestamp: float, reading: float) -> bytes:
    """Encode a DATA frame. ``seq`` is taken modulo :data:`SEQ_MOD`."""
    body = _DATA.pack(station, seq % SEQ_MOD, timestamp, reading)
    return encode_frame(FrameType.DATA, body)


def unpack_data(body: bytes) -> tuple[int, int, float, float]:
    if len(body) != _DATA.size:
        raise ProtocolError(f"DATA body must be {_DATA.size} bytes, got {len(body)}")
    return _DATA.unpack(body)


def pack_ack(station: int, seq: int, status: AckStatus) -> bytes:
    return encode_frame(FrameType.ACK, _ACK.pack(station, seq % SEQ_MOD, status))


def unpack_ack(body: bytes) -> tuple[int, int, AckStatus]:
    if len(body) != _ACK.size:
        raise ProtocolError(f"ACK body must be {_ACK.size} bytes, got {len(body)}")
    station, seq, status = _ACK.unpack(body)
    if status >= len(ACK_BY_CODE):
        raise ProtocolError(f"ACK carries unknown status {status}")
    return station, seq, ACK_BY_CODE[status]


def pack_busy(station: int, seq: int, retry_after: float | None = None) -> bytes:
    """Encode a BUSY frame, optionally hinting when to come back.

    ``retry_after`` (seconds) tells the sender how long the server's
    token bucket actually needs before this reading can be admitted, so
    a rate-limited client backs off for the real refill time instead of
    guessing with blind exponential backoff.  The hint is a trailing
    optional field: v1 peers that only know the 8-byte body still parse
    hint-less BUSY frames unchanged.
    """
    if retry_after is None:
        body = _BUSY.pack(station, seq % SEQ_MOD)
    else:
        body = _BUSY_HINT.pack(station, seq % SEQ_MOD, max(0.0, float(retry_after)))
    return encode_frame(FrameType.BUSY, body)


def unpack_busy(body: bytes) -> tuple[int, int, float | None]:
    if len(body) == _BUSY.size:
        station, seq = _BUSY.unpack(body)
        return station, seq, None
    if len(body) == _BUSY_HINT.size:
        station, seq, retry_after = _BUSY_HINT.unpack(body)
        # A sender schedules its retry by this hint: an infinite, NaN or
        # negative one would park the reading forever or retry at once.
        if not (math.isfinite(retry_after) and retry_after >= 0.0):
            raise ProtocolError(f"BUSY retry_after must be finite and >= 0, got {retry_after}")
        return station, seq, retry_after
    raise ProtocolError(
        f"BUSY body must be {_BUSY.size} or {_BUSY_HINT.size} bytes, got {len(body)}"
    )


def pack_batch_data(stations, seqs, timestamps, readings) -> bytes:
    """Encode one BATCH_DATA frame from parallel arrays (v2).

    ``stations`` must be 1-D; the other three broadcast against it
    (a scalar timestamp stamps the whole batch).  ``seqs`` are taken
    modulo :data:`SEQ_MOD`.  The body is a packed big-endian numpy
    structured array (:data:`BATCH_DTYPE`) — at most
    :data:`MAX_BATCH_RECORDS` readings per frame; callers chunk.
    """
    stations = np.asarray(stations, dtype=np.int64)
    if stations.ndim != 1 or stations.size == 0:
        raise ProtocolError("BATCH_DATA needs a non-empty 1-D station array")
    if stations.size > MAX_BATCH_RECORDS:
        raise ProtocolError(
            f"batch of {stations.size} readings exceeds {MAX_BATCH_RECORDS} per frame"
        )
    if int(stations.min()) < 0 or int(stations.max()) >= SEQ_MOD:
        raise ProtocolError("station ids must fit in u32")
    records = np.empty(stations.size, dtype=BATCH_DTYPE)
    records["station"] = stations
    records["seq"] = np.mod(
        np.broadcast_to(np.asarray(seqs, dtype=np.int64), stations.shape), SEQ_MOD
    )
    records["timestamp"] = np.broadcast_to(np.asarray(timestamps, dtype=np.float64), stations.shape)
    records["reading"] = np.broadcast_to(np.asarray(readings, dtype=np.float64), stations.shape)
    return encode_frame(FrameType.BATCH_DATA, records.tobytes())


def unpack_batch_data(body: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode a BATCH_DATA body into (stations, seqs, timestamps, readings).

    A body that is empty or cut mid-record (truncated despite a valid
    CRC) cannot be trusted record-by-record — structural error.
    """
    if not body or len(body) % BATCH_DTYPE.itemsize:
        raise ProtocolError(
            f"BATCH_DATA body empty or truncated mid-record: must be a "
            f"positive multiple of {BATCH_DTYPE.itemsize} bytes, got {len(body)}"
        )
    records = np.frombuffer(body, dtype=BATCH_DTYPE)
    return (
        records["station"].astype(np.int64),
        records["seq"].astype(np.int64),
        records["timestamp"].astype(np.float64),
        records["reading"].astype(np.float64),
    )


def pack_batch_ack(stations, seqs, statuses) -> bytes:
    """Encode one BATCH_ACK frame: per-reading statuses, one CRC (v2)."""
    stations = np.asarray(stations, dtype=np.int64)
    if stations.ndim != 1 or stations.size == 0:
        raise ProtocolError("BATCH_ACK needs a non-empty 1-D station array")
    records = np.empty(stations.size, dtype=BATCH_ACK_DTYPE)
    records["station"] = stations
    records["seq"] = np.mod(np.asarray(seqs, dtype=np.int64), SEQ_MOD)
    records["status"] = np.asarray(statuses, dtype=np.uint8)
    return encode_frame(FrameType.BATCH_ACK, records.tobytes())


def unpack_batch_ack(body: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a BATCH_ACK body into (stations, seqs, status codes)."""
    if not body or len(body) % BATCH_ACK_DTYPE.itemsize:
        raise ProtocolError(
            f"BATCH_ACK body empty or truncated mid-record: must be a "
            f"positive multiple of {BATCH_ACK_DTYPE.itemsize} bytes, got {len(body)}"
        )
    records = np.frombuffer(body, dtype=BATCH_ACK_DTYPE)
    if int(records["status"].max()) >= len(ACK_BY_CODE):
        raise ProtocolError("BATCH_ACK carries an unknown status")
    return (
        records["station"].astype(np.int64),
        records["seq"].astype(np.int64),
        records["status"].astype(np.uint8),
    )


def sign_token(secret: str, client_id: str) -> str:
    """HMAC-SHA256 credential binding ``client_id`` to a shared secret.

    The HELLO token under secret-based auth: the client derives it from
    the deployment's shared secret and its own id, the server recomputes
    and compares in constant time.  Unlike a bare shared token, a
    captured credential only impersonates that one ``client_id``, and
    the secret itself never crosses the wire.
    """
    return hmac.new(secret.encode(), client_id.encode(), hashlib.sha256).hexdigest()


def sign_control_token(secret: str, client_id: str) -> str:
    """HMAC-SHA256 credential for control-plane frames (ADD/DROP_STATIONS).

    Deliberately distinct from the HELLO credential (the message is
    prefixed with ``control:``): a captured data-plane token cannot be
    replayed to reshape the fleet.
    """
    return hmac.new(secret.encode(), b"control:" + client_id.encode(), hashlib.sha256).hexdigest()


def pack_hello(client_id: str, token: str = "", versions=None) -> bytes:
    """Encode HELLO; ``versions`` advertises protocol versions beyond 1.

    Omitted (or ``(1,)``) keeps the body byte-for-byte identical to a
    v1 client's HELLO.
    """
    payload: dict = {"client_id": client_id, "token": token}
    if versions is not None and tuple(versions) != (1,):
        payload["v"] = sorted(int(v) for v in versions)
    body = json.dumps(payload).encode()
    return encode_frame(FrameType.HELLO, body)


def _unpack_json(body: bytes, what: str, required: str | None = None) -> dict:
    """Decode a JSON-object body; anything else is a :class:`ProtocolError`."""
    try:
        payload = json.loads(body.decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, absurd nesting
        raise ProtocolError(f"malformed {what} body: {exc}") from exc
    if not isinstance(payload, dict) or (required is not None and required not in payload):
        suffix = f" with {required}" if required is not None else ""
        raise ProtocolError(f"{what} body must be a JSON object{suffix}")
    return payload


def _checked_cid(payload: dict, what: str) -> dict:
    """Default a control payload's ``cid`` to 0; a non-integer is a :class:`ProtocolError`."""
    cid = payload.setdefault("cid", 0)
    if type(cid) is not int:
        raise ProtocolError(f"{what} cid must be an integer, got {cid!r}")
    return payload


def unpack_hello(body: bytes) -> dict:
    return _unpack_json(body, "HELLO", "client_id")


def negotiate_version(hello: dict) -> int:
    """Protocol version a server should answer this HELLO with.

    The highest version both sides speak; a HELLO without a ``"v"``
    offer is a v1 client.  An offer with no overlap falls back to 1 —
    the base version every peer that produced a well-formed HELLO
    necessarily speaks.
    """
    offered = hello.get("v")
    if offered is None:
        return 1
    try:
        common = {int(v) for v in offered} & set(PROTOCOL_VERSIONS)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed HELLO version offer {offered!r}") from exc
    return max(common) if common else 1


def pack_welcome(
    session: str,
    max_inflight: int,
    version: int | None = None,
    max_batch: int | None = None,
) -> bytes:
    """Encode WELCOME; ``version`` > 1 announces the negotiated protocol.

    ``version=None`` (or 1) keeps the body byte-for-byte identical to a
    v1 server's WELCOME.  ``max_batch`` tells a v2 client how many
    readings the server accepts per BATCH_DATA frame.
    """
    payload: dict = {"session": session, "max_inflight": max_inflight}
    if version is not None and int(version) != 1:
        payload["version"] = int(version)
        payload["max_batch"] = int(max_batch if max_batch is not None else MAX_BATCH_RECORDS)
    body = json.dumps(payload).encode()
    return encode_frame(FrameType.WELCOME, body)


def unpack_welcome(body: bytes) -> dict:
    welcome = _unpack_json(body, "WELCOME", "max_inflight")
    for key in ("max_inflight", "max_batch"):
        value = welcome.get(key, 1)
        if type(value) is not int or value < 1:
            raise ProtocolError(f"WELCOME {key} must be a positive integer, got {value!r}")
    version = welcome.get("version", 1)
    if type(version) is not int or version not in PROTOCOL_VERSIONS:
        raise ProtocolError(f"WELCOME version {version!r} is not one of {PROTOCOL_VERSIONS}")
    return welcome


def pack_error(message: str) -> bytes:
    return encode_frame(FrameType.ERROR, message.encode())


def _pack_control(ftype: FrameType, payload: dict) -> bytes:
    return encode_frame(ftype, json.dumps(payload).encode())


def pack_add_stations(
    n_new: int,
    *,
    thresholds=None,
    data_min=None,
    data_max=None,
    token: str = "",
    cid: int = 0,
) -> bytes:
    """Encode an ADD_STATIONS control frame (v2, auth-gated).

    Mirrors the engine churn API: per-newcomer thresholds (optional) and
    scaler bounds (required when the served detector owns a scaler)
    travel as JSON lists.  ``cid`` is an opaque
    correlation id echoed back in the CONTROL_ACK.
    """
    payload: dict = {"cid": int(cid), "n_new": int(n_new), "token": token}
    if thresholds is not None:
        payload["thresholds"] = (
            float(thresholds)
            if np.isscalar(thresholds)
            else np.asarray(thresholds, dtype=np.float64).tolist()
        )
    if data_min is not None:
        payload["data_min"] = np.asarray(data_min, dtype=np.float64).tolist()
    if data_max is not None:
        payload["data_max"] = np.asarray(data_max, dtype=np.float64).tolist()
    return _pack_control(FrameType.ADD_STATIONS, payload)


def pack_drop_stations(stations, *, token: str = "", cid: int = 0) -> bytes:
    """Encode a DROP_STATIONS control frame (v2, auth-gated)."""
    payload = {
        "cid": int(cid),
        "stations": np.asarray(stations, dtype=np.int64).tolist(),
        "token": token,
    }
    return _pack_control(FrameType.DROP_STATIONS, payload)


def unpack_control(body: bytes) -> dict:
    """Decode an ADD_STATIONS/DROP_STATIONS body (shared JSON shape)."""
    return _checked_cid(_unpack_json(body, "control"), "control")


def pack_control_ack(cid: int, op: str, ok: bool, n_stations: int = 0, error: str = "") -> bytes:
    """Encode the outcome of a control-plane op (v2).

    ``n_stations`` reports the fleet width after the op (clients learn
    the post-churn station id range from it).
    """
    payload = {
        "cid": int(cid),
        "op": op,
        "ok": bool(ok),
        "n_stations": int(n_stations),
        "error": error,
    }
    return _pack_control(FrameType.CONTROL_ACK, payload)


def unpack_control_ack(body: bytes) -> dict:
    return _checked_cid(_unpack_json(body, "CONTROL_ACK", "ok"), "CONTROL_ACK")
