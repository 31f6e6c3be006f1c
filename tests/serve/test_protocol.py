"""Wire protocol: framing, round-trips, and corruption behavior.

The load-bearing property: a CRC failure is a *payload* problem — the
decoder reports it and stays synchronized — while a bad magic byte or
an absurd length is a *stream* problem and kills the connection.
"""

import json
import math
import struct

import numpy as np
import pytest

from repro.serve.protocol import (
    MAGIC,
    MAX_BATCH_RECORDS,
    MAX_FRAME_BODY,
    SEQ_MOD,
    AckStatus,
    FrameDecoder,
    FrameType,
    ProtocolError,
    encode_frame,
    negotiate_version,
    pack_ack,
    pack_add_stations,
    pack_batch_ack,
    pack_batch_data,
    pack_busy,
    pack_control_ack,
    pack_data,
    pack_drop_stations,
    pack_hello,
    pack_welcome,
    sign_control_token,
    sign_token,
    unpack_ack,
    unpack_batch_ack,
    unpack_batch_data,
    unpack_busy,
    unpack_control,
    unpack_control_ack,
    unpack_data,
    unpack_hello,
    unpack_welcome,
)


def decode_all(payload: bytes, chunk: int = 0):
    decoder = FrameDecoder()
    if chunk <= 0:
        return decoder.feed(payload)
    frames = []
    for start in range(0, len(payload), chunk):
        frames.extend(decoder.feed(payload[start : start + chunk]))
    return frames


class TestRoundTrips:
    def test_data_frame_round_trips(self):
        frame = pack_data(7, 123456, 1700000000.25, -3.5)
        ((ftype, body),) = decode_all(frame)
        assert ftype is FrameType.DATA
        assert unpack_data(body) == (7, 123456, 1700000000.25, -3.5)

    def test_data_nan_reading_survives(self):
        frame = pack_data(0, 1, 0.0, float("nan"))
        ((_, body),) = decode_all(frame)
        assert math.isnan(unpack_data(body)[3])

    def test_data_seq_wraps_at_u32(self):
        frame = pack_data(1, SEQ_MOD + 5, 0.0, 1.0)
        ((_, body),) = decode_all(frame)
        assert unpack_data(body)[1] == 5

    def test_ack_round_trips_every_status(self):
        for status in AckStatus:
            ((_, body),) = decode_all(pack_ack(3, 9, status))
            assert unpack_ack(body) == (3, 9, status)

    def test_unknown_ack_status_raises(self):
        with pytest.raises(ProtocolError, match="status"):
            unpack_ack(struct.pack(">IIB", 0, 0, max(AckStatus) + 1))
        records = struct.pack(">IIB", 0, 0, 0) + struct.pack(">IIB", 1, 0, 200)
        with pytest.raises(ProtocolError, match="status"):
            unpack_batch_ack(records)

    def test_busy_round_trips(self):
        ((_, body),) = decode_all(pack_busy(2, 11))
        assert unpack_busy(body) == (2, 11, None)

    def test_busy_round_trips_with_retry_hint(self):
        ((_, body),) = decode_all(pack_busy(2, 11, 0.125))
        station, seq, hint = unpack_busy(body)
        assert (station, seq) == (2, 11)
        assert hint == pytest.approx(0.125)

    def test_hello_welcome_round_trip(self):
        ((_, hello),) = decode_all(pack_hello("station-3", token="sekrit"))
        assert unpack_hello(hello) == {"client_id": "station-3", "token": "sekrit"}
        ((_, welcome),) = decode_all(pack_welcome("s1", 32))
        assert unpack_welcome(welcome) == {"session": "s1", "max_inflight": 32}

    def test_bye_has_empty_body(self):
        ((ftype, body),) = decode_all(encode_frame(FrameType.BYE))
        assert ftype is FrameType.BYE and body == b""


class TestDecoder:
    def test_byte_at_a_time_chunking(self):
        stream = pack_data(1, 2, 3.0, 4.0) + pack_ack(1, 2, AckStatus.OK) + pack_busy(0, 7)
        frames = decode_all(stream, chunk=1)
        assert [ftype for ftype, _ in frames] == [
            FrameType.DATA,
            FrameType.ACK,
            FrameType.BUSY,
        ]

    def test_partial_frame_is_buffered_not_dropped(self):
        frame = pack_data(1, 2, 3.0, 4.0)
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        ((ftype, _),) = decoder.feed(frame[-1:])
        assert ftype is FrameType.DATA

    @pytest.mark.parametrize("offset", [5, 9, 20])
    def test_crc_failure_yields_corrupt_and_stream_stays_synced(self, offset):
        """A flipped payload byte damages ONE frame, not the stream."""
        bad = bytearray(pack_data(1, 2, 3.0, 4.0))
        bad[offset] ^= 0xFF
        stream = bytes(bad) + pack_data(5, 6, 7.0, 8.0)
        frames = decode_all(stream, chunk=3)
        assert frames[0] == (FrameType.CORRUPT, b"")
        assert frames[1][0] is FrameType.DATA
        assert unpack_data(frames[1][1]) == (5, 6, 7.0, 8.0)

    def test_unknown_frame_type_is_corrupt_not_fatal(self):
        payload = bytes([200]) + b"xx"
        import zlib

        crc = zlib.crc32(payload) & 0xFFFFFFFF
        frame = struct.pack(">BI", MAGIC, len(payload) + 4) + payload + struct.pack(">I", crc)
        assert decode_all(frame) == [(FrameType.CORRUPT, b"")]

    def test_bad_magic_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="magic"):
            decode_all(b"\x00" + pack_data(1, 2, 3.0, 4.0))

    def test_implausible_length_raises_protocol_error(self):
        header = struct.pack(">BI", MAGIC, MAX_FRAME_BODY + 6)
        with pytest.raises(ProtocolError, match="length"):
            decode_all(header + b"\x00" * 16)

    def test_oversized_body_rejected_at_encode_time(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(FrameType.ERROR, b"x" * (MAX_FRAME_BODY + 1))

    def test_malformed_hello_json_raises(self):
        with pytest.raises(ProtocolError, match="HELLO"):
            unpack_hello(b"{not json")

    def test_truncated_data_body_raises(self):
        with pytest.raises(ProtocolError, match="DATA body"):
            unpack_data(b"\x00\x01")


class TestBatchFrames:
    """BATCH_DATA/BATCH_ACK: the v2 bulk codecs and their frame rules."""

    def _arrays(self, n=5):
        rng = np.random.default_rng(3)
        return (
            np.arange(n, dtype=np.int64),
            np.arange(n, dtype=np.int64) + 40,
            np.linspace(0.0, 1.0, n),
            rng.normal(size=n),
        )

    def test_batch_data_round_trips(self):
        stations, seqs, stamps, readings = self._arrays()
        ((ftype, body),) = decode_all(pack_batch_data(stations, seqs, stamps, readings))
        assert ftype is FrameType.BATCH_DATA
        s, q, t, r = unpack_batch_data(body)
        np.testing.assert_array_equal(s, stations)
        np.testing.assert_array_equal(q, seqs)
        np.testing.assert_array_equal(t, stamps)
        np.testing.assert_array_equal(r, readings)

    def test_batch_data_broadcasts_scalars(self):
        ((_, body),) = decode_all(pack_batch_data(np.arange(3), 7, 0.5, 1.25))
        s, q, t, r = unpack_batch_data(body)
        assert q.tolist() == [7, 7, 7] and t.tolist() == [0.5] * 3

    def test_batch_data_nan_readings_survive(self):
        ((_, body),) = decode_all(pack_batch_data(np.arange(2), 0, 0.0, np.array([np.nan, 1.0])))
        readings = unpack_batch_data(body)[3]
        assert math.isnan(readings[0]) and readings[1] == 1.0

    def test_batch_data_seq_wraps_at_u32(self):
        ((_, body),) = decode_all(
            pack_batch_data(np.zeros(1, dtype=np.int64), SEQ_MOD + 3, 0.0, 0.0)
        )
        assert unpack_batch_data(body)[1].tolist() == [3]

    def test_empty_batch_rejected_at_pack_time(self):
        with pytest.raises(ProtocolError, match="empty"):
            pack_batch_data(np.empty(0, dtype=np.int64), 0, 0.0, 0.0)

    def test_oversize_batch_rejected_at_pack_time(self):
        n = MAX_BATCH_RECORDS + 1
        with pytest.raises(ProtocolError, match=str(MAX_BATCH_RECORDS)):
            pack_batch_data(np.zeros(n, dtype=np.int64), 0, 0.0, np.zeros(n))

    def test_truncated_mid_record_body_raises(self):
        stations, seqs, stamps, readings = self._arrays()
        ((_, body),) = decode_all(pack_batch_data(stations, seqs, stamps, readings))
        with pytest.raises(ProtocolError, match="truncated"):
            unpack_batch_data(body[:-7])
        with pytest.raises(ProtocolError, match="truncated|empty"):
            unpack_batch_data(b"")

    def test_batch_ack_round_trips(self):
        stations = np.arange(4, dtype=np.int64)
        seqs = stations + 9
        statuses = np.array(
            [AckStatus.OK, AckStatus.DUPLICATE, AckStatus.LATE, AckStatus.BUSY],
            dtype=np.uint8,
        )
        ((ftype, body),) = decode_all(pack_batch_ack(stations, seqs, statuses))
        assert ftype is FrameType.BATCH_ACK
        s, q, c = unpack_batch_ack(body)
        np.testing.assert_array_equal(s, stations)
        np.testing.assert_array_equal(q, seqs)
        np.testing.assert_array_equal(c, statuses)

    def test_large_batch_frame_decodes_beyond_scalar_limit(self):
        n = 2000  # 48KB body: larger than any v1 frame, within batch cap
        frame = pack_batch_data(np.zeros(n, dtype=np.int64), np.arange(n), 0.0, np.zeros(n))
        assert len(frame) > MAX_FRAME_BODY + 5
        for chunk in (0, 1, 1000):
            ((ftype, body),) = decode_all(frame, chunk=chunk)
            assert ftype is FrameType.BATCH_DATA
            assert unpack_batch_data(body)[1].size == n

    def test_large_frame_with_non_batch_type_is_structural(self):
        """A >MAX_FRAME_BODY length is only plausible for batch types;
        claimed by any other type byte it means the stream is desynced
        (e.g. chaos flipped the type byte) and must die, not buffer."""
        frame = bytearray(pack_batch_data(np.zeros(400, dtype=np.int64), 0, 0.0, np.zeros(400)))
        frame[5] = int(FrameType.DATA)
        with pytest.raises(ProtocolError, match="length"):
            decode_all(bytes(frame))

    def test_corrupt_payload_in_large_batch_is_crc_not_fatal(self):
        """Payload corruption (type byte intact) stays a per-frame CRC
        event even beyond the scalar size limit — sync survives."""
        frame = bytearray(pack_batch_data(np.zeros(400, dtype=np.int64), 0, 0.0, np.zeros(400)))
        frame[100] ^= 0xFF
        follow = pack_data(1, 2, 3.0, 4.0)
        frames = decode_all(bytes(frame) + follow)
        assert [ftype for ftype, _ in frames] == [FrameType.CORRUPT, FrameType.DATA]


class TestNegotiationCodecs:
    def test_hello_without_versions_is_legacy_bytes(self):
        assert pack_hello("c", token="t") == pack_hello("c", token="t", versions=(1,))

    def test_hello_advertises_versions(self):
        ((_, body),) = decode_all(pack_hello("c", versions=(1, 2)))
        assert unpack_hello(body)["v"] == [1, 2]

    def test_negotiate_picks_highest_common(self):
        assert negotiate_version({"v": [1, 2]}) == 2
        assert negotiate_version({"v": [1]}) == 1
        assert negotiate_version({}) == 1  # legacy HELLO: no key at all
        assert negotiate_version({"v": [99]}) == 1  # no overlap -> floor

    def test_welcome_v2_advertises_batch_budget(self):
        ((_, body),) = decode_all(pack_welcome("s1", 32, version=2, max_batch=MAX_BATCH_RECORDS))
        welcome = unpack_welcome(body)
        assert welcome["version"] == 2
        assert welcome["max_batch"] == MAX_BATCH_RECORDS

    def test_welcome_without_version_is_legacy_bytes(self):
        assert pack_welcome("s1", 32) == pack_welcome("s1", 32, version=None, max_batch=None)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_inflight", 0),
            ("max_inflight", -3),
            ("max_inflight", True),
            ("max_inflight", 2.5),
            ("max_inflight", "64"),
            ("max_batch", 0),
            ("max_batch", False),
            ("max_batch", None),
        ],
    )
    def test_welcome_rejects_a_budget_that_is_not_a_positive_int(self, field, value):
        payload = {"session": "s", "max_inflight": 8, "version": 2, "max_batch": 16}
        body = json.dumps(payload | {field: value}).encode()
        with pytest.raises(ProtocolError, match=field):
            unpack_welcome(body)

    @pytest.mark.parametrize("version", [0, 3, True, 2.0, "2", None])
    def test_welcome_rejects_an_unknown_version(self, version):
        body = json.dumps({"session": "s", "max_inflight": 8, "version": version}).encode()
        with pytest.raises(ProtocolError, match="version"):
            unpack_welcome(body)

    @pytest.mark.parametrize("hint", [math.inf, -math.inf, math.nan, -1.0])
    def test_busy_rejects_an_unusable_retry_hint(self, hint):
        with pytest.raises(ProtocolError, match="retry_after"):
            unpack_busy(struct.pack(">IIf", 3, 9, hint))


class TestControlCodecs:
    def test_add_stations_round_trips(self):
        frame = pack_add_stations(
            2,
            thresholds=np.array([0.5, 0.75]),
            data_min=np.zeros(2),
            data_max=np.ones(2),
            token="tok",
            cid=11,
        )
        ((ftype, body),) = decode_all(frame)
        assert ftype is FrameType.ADD_STATIONS
        payload = unpack_control(body)
        assert payload["n_new"] == 2 and payload["cid"] == 11
        assert payload["thresholds"] == [0.5, 0.75]
        assert payload["token"] == "tok"

    def test_drop_stations_round_trips(self):
        ((ftype, body),) = decode_all(pack_drop_stations([3, 1], token="tok", cid=4))
        assert ftype is FrameType.DROP_STATIONS
        assert unpack_control(body)["stations"] == [3, 1]

    def test_control_ack_round_trips(self):
        ((ftype, body),) = decode_all(
            pack_control_ack(4, "drop", False, n_stations=8, error="nope")
        )
        assert ftype is FrameType.CONTROL_ACK
        ack = unpack_control_ack(body)
        assert ack == {
            "cid": 4,
            "op": "drop",
            "ok": False,
            "n_stations": 8,
            "error": "nope",
        }

    def test_control_token_differs_from_data_token(self):
        """The control credential must not be forgeable from a captured
        data-plane token (separate HMAC domains)."""
        assert sign_control_token("s", "c") != sign_token("s", "c")
        assert sign_control_token("s", "c") == sign_control_token("s", "c")

    @pytest.mark.parametrize("cid", ['"7"', "1.5", "null", "true", "[1]"])
    def test_non_integer_cid_raises(self, cid):
        body = f'{{"cid": {cid}, "ok": true}}'.encode()
        with pytest.raises(ProtocolError, match="cid"):
            unpack_control(body)
        with pytest.raises(ProtocolError, match="cid"):
            unpack_control_ack(body)

    def test_absent_cid_defaults_to_zero(self):
        assert unpack_control(b'{"n_new": 1}')["cid"] == 0
        assert unpack_control_ack(b'{"ok": true}')["cid"] == 0

    def test_malformed_control_body_raises(self):
        with pytest.raises(ProtocolError, match="control"):
            unpack_control(b"{nope")
        with pytest.raises(ProtocolError, match="CONTROL_ACK"):
            unpack_control_ack(b"[]")
