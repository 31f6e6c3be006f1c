"""Property-based fuzzing of the wire decoders.

Every byte a peer sends crosses a trust boundary, so the decoders are
held to one contract on *arbitrary* input: they return well-typed
results whose values are in range, or raise :class:`ProtocolError` —
never any other exception, which would escape the connection handler
instead of closing the connection cleanly, and never a value (a zero
inflight budget, an infinite retry hint) that a caller acting on it
would misbehave with.  Example counts are bounded so the suite stays
fast.
"""

import json
import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    MAGIC,
    PROTOCOL_VERSIONS,
    AckStatus,
    FrameDecoder,
    FrameType,
    ProtocolError,
    encode_frame,
    pack_ack,
    pack_add_stations,
    pack_batch_ack,
    pack_batch_data,
    pack_busy,
    pack_control_ack,
    pack_data,
    pack_drop_stations,
    pack_error,
    pack_hello,
    pack_welcome,
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

FUZZ = settings(deadline=None, max_examples=150)
#: magic + length: the fixed 5-byte frame header.
HEADER = struct.Struct(">BI")

u32 = st.integers(0, 2**32 - 1)
readings = st.floats(allow_nan=True, allow_infinity=True)
small_text = st.text(max_size=24)
station_arrays = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=32)

#: Every frame a well-behaved peer can put on the wire (bodies kept
#: under the scalar length bound, so any one flipped byte is a CRC
#: failure and never a structural one).
valid_frames = st.one_of(
    st.builds(pack_data, u32, u32, readings, readings),
    st.builds(pack_ack, u32, u32, st.sampled_from(list(AckStatus))),
    st.builds(pack_busy, u32, u32, st.none() | st.floats(0, 1e3)),
    station_arrays.flatmap(
        lambda s: st.builds(
            pack_batch_data,
            st.just(s),
            st.lists(u32, min_size=len(s), max_size=len(s)),
            readings,
            st.lists(readings, min_size=len(s), max_size=len(s)),
        )
    ),
    station_arrays.flatmap(
        lambda s: st.builds(
            pack_batch_ack,
            st.just(s),
            st.lists(u32, min_size=len(s), max_size=len(s)),
            st.lists(st.integers(0, 3), min_size=len(s), max_size=len(s)),
        )
    ),
    st.builds(pack_hello, small_text, small_text, st.none() | st.just((1, 2))),
    st.builds(pack_welcome, small_text, st.integers(1, 1024), st.none() | st.just(2)),
    st.builds(pack_error, small_text),
    st.builds(encode_frame, st.just(FrameType.BYE)),
    st.builds(pack_add_stations, st.integers(1, 8), token=small_text, cid=u32),
    st.builds(
        pack_drop_stations, st.lists(st.integers(0, 64), max_size=8), token=small_text, cid=u32
    ),
    st.builds(pack_control_ack, u32, small_text, st.booleans(), st.integers(0, 64), small_text),
)


@st.composite
def damaged_streams(draw) -> bytes:
    """Valid frames, then a few bytes flipped, cut, or spliced in."""
    stream = bytearray(b"".join(draw(st.lists(valid_frames, max_size=4))))
    for _ in range(draw(st.integers(0, 3))):
        if not stream:
            break
        pos = draw(st.integers(0, len(stream) - 1))
        edit = draw(st.sampled_from(["flip", "cut", "splice"]))
        if edit == "flip":
            stream[pos] ^= draw(st.integers(1, 255))
        elif edit == "cut":
            del stream[pos : pos + draw(st.integers(1, 8))]
        else:
            stream[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    return bytes(stream)


#: A plausible header (right magic, any length, any type byte) over
#: arbitrary bytes: gets past the magic check into the length logic.
headed_garbage = st.builds(
    lambda length, ftype, rest: HEADER.pack(MAGIC, length) + bytes([ftype]) + rest,
    st.integers(0, 2**32 - 1) | st.integers(0, 80),
    st.integers(0, 255),
    st.binary(max_size=80),
)

streams = st.one_of(st.binary(max_size=256), damaged_streams(), headed_garbage)


def _decode(stream: bytes, cuts: list[int]):
    """Frames from feeding ``stream`` in chunks of the given sizes, or
    the :class:`ProtocolError` class if decoding fails."""
    decoder = FrameDecoder()
    frames = []
    start = 0
    try:
        for size in [*cuts, len(stream)]:
            frames.extend(decoder.feed(stream[start : start + size]))
            start += size
    except ProtocolError:
        return ProtocolError
    return frames


class TestFrameDecoderFuzz:
    @FUZZ
    @given(streams, st.lists(st.integers(1, 64), max_size=16))
    def test_arbitrary_bytes_yield_known_frames_or_protocol_error(self, stream, cuts):
        """Any chunking decodes exactly like one whole-buffer feed, and
        the only outcomes are known frame types or ProtocolError."""
        chunked = _decode(stream, cuts)
        assert chunked == _decode(stream, [])
        if chunked is not ProtocolError:
            for ftype, body in chunked:
                assert isinstance(ftype, FrameType)
                assert isinstance(body, bytes)

    @FUZZ
    @given(valid_frames, valid_frames, st.integers(0), st.integers(1, 255), st.integers(1, 64))
    def test_valid_frame_after_crc_damaged_one_still_decodes(
        self, damaged, follower, pos, flip, chunk
    ):
        """One flipped byte past the header is a CRC failure: reported
        as CORRUPT, and the decoder stays synchronized for the next."""
        raw = bytearray(damaged)
        raw[HEADER.size + pos % (len(raw) - HEADER.size)] ^= flip
        stream = bytes(raw) + follower
        cuts = [chunk] * (len(stream) // chunk)
        assert _decode(stream, cuts) == [(FrameType.CORRUPT, b""), *_decode(follower, [])]


def _json_bodies():
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | small_text
    values = st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(small_text, inner)
    )
    keyed = st.fixed_dictionaries(
        {},
        optional={
            key: values
            for key in (
                "client_id",
                "max_inflight",
                "max_batch",
                "version",
                "ok",
                "cid",
                "v",
                "token",
            )
        },
    )
    return st.one_of(values, keyed).map(lambda v: json.dumps(v).encode())


#: Bodies sized like each fixed-width record (so the decoders get past
#: their length checks) plus arbitrary bytes and arbitrary JSON.
bodies = st.one_of(
    st.binary(max_size=64),
    st.sampled_from([8, 9, 12, 18, 24, 27, 48]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    _json_bodies(),
    st.just(b"[" * 3000 + b"]" * 3000),
)

DECODERS = [
    unpack_data,
    unpack_ack,
    unpack_busy,
    unpack_batch_data,
    unpack_batch_ack,
    unpack_hello,
    unpack_welcome,
    unpack_control,
    unpack_control_ack,
]


def _positive_int(value) -> bool:
    return type(value) is int and value >= 1


def _assert_in_range(decode, decoded) -> None:
    """The values a caller acts on are usable as decoded."""
    if decode is unpack_welcome:
        assert _positive_int(decoded["max_inflight"])
        assert _positive_int(decoded.get("max_batch", 1))
        assert decoded.get("version", 1) in PROTOCOL_VERSIONS
        assert type(decoded.get("version", 1)) is int
    elif decode is unpack_busy:
        retry_after = decoded[2]
        assert retry_after is None or (math.isfinite(retry_after) and retry_after >= 0)
    elif decode is unpack_ack:
        assert isinstance(decoded[2], AckStatus)
    elif decode in (unpack_control, unpack_control_ack):
        assert type(decoded["cid"]) is int


class TestBodyDecoderFuzz:
    @FUZZ
    @given(st.sampled_from(DECODERS), bodies)
    def test_body_decoders_return_in_range_or_raise_protocol_error(self, decode, body):
        try:
            decoded = decode(body)
        except ProtocolError:
            return
        _assert_in_range(decode, decoded)

    @FUZZ
    @given(
        st.fixed_dictionaries(
            {"session": small_text, "max_inflight": st.integers(-2, 4) | st.floats()},
            optional={
                "max_batch": st.integers(-2, 4) | st.booleans() | st.none(),
                "version": st.integers(0, 3) | st.floats(0, 3) | st.booleans(),
            },
        )
    )
    def test_welcome_values_are_in_range_or_rejected(self, payload):
        """WELCOME bodies built near the valid range's edges."""
        try:
            decoded = unpack_welcome(json.dumps(payload).encode())
        except ProtocolError:
            return
        _assert_in_range(unpack_welcome, decoded)

    @FUZZ
    @given(u32, u32, st.floats(width=32))
    def test_busy_hint_is_in_range_or_rejected(self, station, seq, hint):
        try:
            decoded = unpack_busy(struct.pack(">IIf", station, seq, hint))
        except ProtocolError:
            return
        _assert_in_range(unpack_busy, decoded)
