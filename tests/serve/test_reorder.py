"""Reorder buffer: re-sequencing, dedup, watermark, wraparound, overflow.

Covers the ISSUE's named edge cases: seq wraparound, duplicate *after*
the watermark dropped a tick, a station that never sends (all-NaN
column), and a burst landing exactly on the watermark boundary.
"""

import numpy as np
import pytest

from repro.serve.protocol import SEQ_MOD, AckStatus
from repro.serve.reorder import OFFER_BY_CODE, Offer, ReorderBuffer


def drained_matrix(emitted, n_stations):
    """Stack drained (tick, values, arrival) triples into (n, T)."""
    if not emitted:
        return np.empty((n_stations, 0))
    return np.stack([values for _, values, _ in emitted], axis=1)


class TestBasics:
    def test_in_order_ticks_emit_behind_watermark(self):
        buf = ReorderBuffer(2, lateness=2, capacity=16)
        for tick in range(5):
            for station in range(2):
                assert buf.offer(station, tick, float(tick)) is Offer.ACCEPTED
        emitted = buf.drain()
        # high=4, lateness=2 -> ticks 0..2 are flushable
        assert [tick for tick, _, _ in emitted] == [0, 1, 2]
        np.testing.assert_array_equal(drained_matrix(emitted, 2), [[0, 1, 2], [0, 1, 2]])
        assert buf.pending_ticks == 2

    def test_out_of_order_arrivals_resequence(self):
        buf = ReorderBuffer(1, lateness=0, capacity=16)
        buf.offer(0, 2, 22.0)
        buf.offer(0, 0, 20.0)
        buf.offer(0, 1, 21.0)
        emitted = buf.drain()
        assert [tick for tick, _, _ in emitted] == [0, 1, 2]
        np.testing.assert_array_equal(drained_matrix(emitted, 1), [[20.0, 21.0, 22.0]])

    def test_duplicate_pending_reading_rejected(self):
        buf = ReorderBuffer(1, lateness=4, capacity=16)
        assert buf.offer(0, 0, 1.0) is Offer.ACCEPTED
        assert buf.offer(0, 0, 99.0) is Offer.DUPLICATE
        buf.offer(0, 9, 9.0)
        emitted = buf.drain()
        assert emitted[0][1][0] == 1.0  # first write wins

    def test_late_frame_after_emission_dropped(self):
        buf = ReorderBuffer(1, lateness=0, capacity=16)
        buf.offer(0, 0, 1.0)
        buf.offer(0, 1, 2.0)
        buf.drain()  # emits ticks 0..1 (watermark = high = 1)... tick 0 surely
        assert buf.next_emit >= 1
        assert buf.offer(0, 0, 1.0) is Offer.LATE
        assert buf.counts[Offer.LATE] == 1

    def test_gap_tick_emits_all_nan_column(self):
        buf = ReorderBuffer(2, lateness=0, capacity=16)
        buf.offer(0, 0, 1.0)
        buf.offer(1, 0, 2.0)
        buf.offer(0, 3, 4.0)  # nobody ever mentions ticks 1..2
        emitted = buf.drain()
        assert [tick for tick, _, _ in emitted] == [0, 1, 2, 3]
        matrix = drained_matrix(emitted, 2)
        assert np.isnan(matrix[:, 1]).all() and np.isnan(matrix[:, 2]).all()
        np.testing.assert_array_equal(matrix[:, 0], [1.0, 2.0])

    def test_partial_tick_missing_station_is_nan(self):
        buf = ReorderBuffer(3, lateness=0, capacity=16)
        buf.offer(0, 0, 1.0)
        buf.offer(2, 0, 3.0)
        buf.offer(0, 1, 1.5)
        tick0 = buf.drain()[0]
        np.testing.assert_array_equal(np.isnan(tick0[1]), [False, True, False])

    def test_flush_emits_everything_buffered(self):
        buf = ReorderBuffer(1, lateness=100, capacity=200)
        for tick in range(5):
            buf.offer(0, tick, float(tick))
        assert buf.drain() == []  # all held by the huge lateness
        emitted = buf.flush()
        assert [tick for tick, _, _ in emitted] == [0, 1, 2, 3, 4]
        assert buf.pending_ticks == 0

    def test_station_out_of_range_raises(self):
        buf = ReorderBuffer(2, lateness=0, capacity=4)
        with pytest.raises(ValueError, match="station"):
            buf.offer(2, 0, 1.0)

    def test_capacity_must_cover_lateness(self):
        with pytest.raises(ValueError, match="capacity"):
            ReorderBuffer(1, lateness=8, capacity=4)


class TestBackpressure:
    def test_offer_beyond_capacity_overflows(self):
        buf = ReorderBuffer(1, lateness=0, capacity=4)
        buf.offer(0, 0, 0.0)
        assert buf.offer(0, 4, 4.0) is Offer.OVERFLOW  # would span 5 ticks
        assert buf.offer(0, 3, 3.0) is Offer.ACCEPTED
        assert buf.counts[Offer.OVERFLOW] == 1

    def test_overflowed_tick_accepted_after_drain_advances(self):
        buf = ReorderBuffer(1, lateness=0, capacity=4)
        buf.offer(0, 0, 0.0)
        buf.offer(0, 3, 3.0)
        assert buf.offer(0, 4, 4.0) is Offer.OVERFLOW
        buf.drain()  # advances next_emit past the watermark
        assert buf.offer(0, 4, 4.0) is Offer.ACCEPTED


class TestEdgeCases:
    """The ISSUE's named corners."""

    def test_seq_wraparound_keeps_timeline_monotone(self):
        start = SEQ_MOD - 3
        buf = ReorderBuffer(1, lateness=0, capacity=16, start=start)
        readings = {}
        for i, raw in enumerate(
            [(start + i) % SEQ_MOD for i in range(6)]  # crosses the u32 wrap
        ):
            assert buf.offer(0, raw, float(i)) is Offer.ACCEPTED
            readings[start + i] = float(i)
        emitted = buf.flush()
        assert [tick for tick, _, _ in emitted] == sorted(readings)
        assert emitted[-1][0] == start + 5  # absolute ticks keep growing past 2**32
        for tick, values, _ in emitted:
            assert values[0] == readings[tick]

    def test_wrapped_duplicate_is_not_a_new_epoch(self):
        """A stale resend of seq 0 after the wrap must not be filed
        2**32 ticks in the future."""
        start = SEQ_MOD - 2
        buf = ReorderBuffer(1, lateness=0, capacity=16, start=start)
        for i in range(4):  # absolute ticks 2**32-2 .. 2**32+1
            buf.offer(0, (start + i) % SEQ_MOD, float(i))
        buf.drain()
        # raw seq 0 == absolute tick 2**32, already emitted -> LATE
        assert buf.offer(0, 0, 99.0) is Offer.LATE

    def test_duplicate_after_watermark_is_late(self):
        buf = ReorderBuffer(1, lateness=1, capacity=16)
        buf.offer(0, 0, 1.0)
        buf.offer(0, 1, 2.0)
        buf.offer(0, 2, 3.0)
        emitted = buf.drain()  # watermark = 1 -> ticks 0..1 out
        assert [tick for tick, _, _ in emitted] == [0, 1]
        assert buf.offer(0, 0, 1.0) is Offer.LATE
        assert buf.offer(0, 1, 2.0) is Offer.LATE
        assert buf.offer(0, 2, 3.0) is Offer.DUPLICATE  # still pending

    def test_never_sending_station_yields_all_nan_row(self):
        buf = ReorderBuffer(3, lateness=0, capacity=32)
        for tick in range(6):
            buf.offer(0, tick, float(tick))
            buf.offer(2, tick, float(-tick))
        emitted = buf.drain() + buf.flush()
        matrix = drained_matrix(emitted, 3)
        assert np.isnan(matrix[1]).all()
        assert np.isfinite(matrix[0]).all() and np.isfinite(matrix[2]).all()

    def test_burst_exactly_at_watermark_boundary(self):
        """Frames for tick == watermark arrive just in time; one tick
        earlier is already gone."""
        buf = ReorderBuffer(2, lateness=2, capacity=32)
        for tick in range(6):
            buf.offer(0, tick, float(tick))
        assert buf.watermark == 3
        emitted = buf.drain()  # emits 0..3
        assert [tick for tick, _, _ in emitted] == [0, 1, 2, 3]
        # station 1's straggler burst: ticks 4 and 5 are the pending
        # window (>= next_emit); ticks <= 3 are gone.
        assert buf.offer(1, 4, 40.0) is Offer.ACCEPTED
        assert buf.offer(1, 5, 50.0) is Offer.ACCEPTED
        assert buf.offer(1, 3, 30.0) is Offer.LATE
        emitted = buf.flush()
        matrix = drained_matrix(emitted, 2)
        np.testing.assert_array_equal(matrix[1], [40.0, 50.0])


class TestCheckpoint:
    def test_state_dict_round_trip_is_exact(self):
        buf = ReorderBuffer(3, lateness=2, capacity=32, start=100)
        rng = np.random.default_rng(0)
        for raw in rng.permutation(np.arange(100, 118)):
            for station in range(3):
                if rng.random() < 0.7:
                    buf.offer(station, int(raw), float(raw + station))
        buf.drain()
        clone = ReorderBuffer(3, lateness=0, capacity=8)
        clone.load_state_dict(buf.state_dict())
        assert (clone.next_emit, clone.high) == (buf.next_emit, buf.high)
        assert (clone.lateness, clone.capacity) == (buf.lateness, buf.capacity)
        np.testing.assert_array_equal(clone.last_seen, buf.last_seen)
        a, b = buf.flush(), clone.flush()
        assert [t for t, _, _ in a] == [t for t, _, _ in b]
        np.testing.assert_array_equal(drained_matrix(a, 3), drained_matrix(b, 3))

    def test_station_count_mismatch_rejected(self):
        buf = ReorderBuffer(3, lateness=0, capacity=8)
        clone = ReorderBuffer(2, lateness=0, capacity=8)
        with pytest.raises(ValueError, match="stations"):
            clone.load_state_dict(buf.state_dict())


class TestOfferBlock:
    """The bulk path's contract: bit-identical to sequential offers."""

    @staticmethod
    def _twin_buffers(**kwargs):
        defaults = dict(lateness=3, capacity=32)
        defaults.update(kwargs)
        return (
            ReorderBuffer(8, **defaults),
            ReorderBuffer(8, **defaults),
        )

    def _assert_twins_equal(self, a: ReorderBuffer, b: ReorderBuffer):
        sa, sb = a.state_dict(), b.state_dict()
        assert sa.keys() == sb.keys()
        for key in sa:
            np.testing.assert_array_equal(sa[key], sb[key], err_msg=key)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_block_equals_sequential_offers(self, seed):
        """Random batches (in-window, late, duplicate, overflow, gaps)
        produce the same codes, counts, drains, and internal state as
        scalar offers in order."""
        rng = np.random.default_rng(seed)
        block_buf, scalar_buf = self._twin_buffers()
        for _ in range(30):
            n = int(rng.integers(1, 9))
            stations = rng.choice(8, size=n, replace=False)
            # Seqs spread around the current frontier: some late, some
            # duplicates, some far enough ahead to overflow capacity.
            base = int(scalar_buf.next_emit)
            seqs = base + rng.integers(-6, 40, size=n)
            seqs = np.mod(seqs, SEQ_MOD)
            readings = rng.normal(size=n)
            codes = block_buf.offer_block(stations, seqs, readings, arrival=1.0)
            expected = [
                scalar_buf.offer(int(s), int(q), float(r), arrival=1.0)
                for s, q, r in zip(stations, seqs, readings, strict=True)
            ]
            assert [OFFER_BY_CODE[c] for c in codes] == expected
            drained_a = block_buf.drain()
            drained_b = scalar_buf.drain()
            np.testing.assert_array_equal(
                drained_matrix(drained_a, 8), drained_matrix(drained_b, 8)
            )
            self._assert_twins_equal(block_buf, scalar_buf)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_repeats_and_single_records_equal_sequential_offers(self, seed):
        """Stations drawn *with* replacement: one-record batches (every
        v1 DATA frame) and repeated-station batches, across the u32
        wrap, match scalar offers in order exactly like unique ones."""
        rng = np.random.default_rng(seed)
        block_buf, scalar_buf = self._twin_buffers(start=SEQ_MOD - 16)
        for _ in range(60):
            n = 1 if rng.random() < 0.4 else int(rng.integers(2, 12))
            stations = rng.choice(8, size=n, replace=True)
            base = int(scalar_buf.next_emit)
            seqs = np.mod(base + rng.integers(-6, 40, size=n), SEQ_MOD)
            readings = rng.normal(size=n)
            codes = block_buf.offer_block(stations, seqs, readings, arrival=2.0)
            expected = [
                scalar_buf.offer(int(s), int(q), float(r), arrival=2.0)
                for s, q, r in zip(stations, seqs, readings, strict=True)
            ]
            assert [OFFER_BY_CODE[c] for c in codes] == expected
            np.testing.assert_array_equal(
                drained_matrix(block_buf.drain(), 8), drained_matrix(scalar_buf.drain(), 8)
            )
            self._assert_twins_equal(block_buf, scalar_buf)
        assert block_buf.counts == scalar_buf.counts
        assert scalar_buf.next_emit > SEQ_MOD  # the run crossed the wrap

    def test_codes_are_the_ack_statuses_sent(self):
        """The server acks reorder codes as they are: pin the equality."""
        assert {offer: AckStatus(code) for code, offer in enumerate(OFFER_BY_CODE)} == {
            Offer.ACCEPTED: AckStatus.OK,
            Offer.DUPLICATE: AckStatus.DUPLICATE,
            Offer.LATE: AckStatus.LATE,
            Offer.OVERFLOW: AckStatus.BUSY,
        }

    def test_repeated_stations_in_one_batch_match_sequential(self):
        """A batch mentioning a station twice (client retransmit merged
        with fresh data) must apply in order — dedup included."""
        block_buf, scalar_buf = self._twin_buffers()
        stations = np.array([0, 1, 0, 0, 2])
        seqs = np.array([0, 0, 0, 1, 0])  # station 0: dup of tick 0 + tick 1
        readings = np.arange(5, dtype=np.float64)
        codes = block_buf.offer_block(stations, seqs, readings)
        expected = [
            scalar_buf.offer(int(s), int(q), float(r))
            for s, q, r in zip(stations, seqs, readings, strict=True)
        ]
        assert [OFFER_BY_CODE[c] for c in codes] == expected
        assert OFFER_BY_CODE[codes[2]] is Offer.DUPLICATE
        self._assert_twins_equal(block_buf, scalar_buf)

    def test_block_counts_match_scalar_tallies(self):
        buf = ReorderBuffer(4, lateness=1, capacity=8)
        buf.offer_block(np.arange(4), np.zeros(4, dtype=np.int64), np.ones(4))
        buf.offer_block(np.arange(4), np.ones(4, dtype=np.int64), np.ones(4))
        buf.drain()
        codes = buf.offer_block(
            np.array([0, 1, 2, 3]),
            np.array([0, 1, 2, 100]),  # late, dup, fresh, overflow
            np.ones(4),
        )
        assert [OFFER_BY_CODE[c] for c in codes] == [
            Offer.LATE,
            Offer.DUPLICATE,
            Offer.ACCEPTED,
            Offer.OVERFLOW,
        ]

    def test_mismatched_lengths_raise(self):
        buf = ReorderBuffer(4, lateness=1, capacity=8)
        with pytest.raises(ValueError, match="length"):
            buf.offer_block(np.arange(3), np.arange(2), np.ones(3))

    def test_station_out_of_range_raises(self):
        buf = ReorderBuffer(4, lateness=1, capacity=8)
        with pytest.raises(ValueError, match="station"):
            buf.offer_block(np.array([0, 4]), np.zeros(2, dtype=np.int64), np.ones(2))

    def test_empty_block_is_a_noop(self):
        buf = ReorderBuffer(4, lateness=1, capacity=8)
        codes = buf.offer_block(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
        )
        assert codes.size == 0


class TestReorderChurn:
    def test_add_stations_extends_pending_with_nan(self):
        buf = ReorderBuffer(2, lateness=2, capacity=16)
        buf.offer(0, 0, 1.0)
        buf.offer(1, 0, 2.0)
        buf.offer(0, 2, 3.0)  # advance high so tick 0 emits later
        buf.add_stations(2)
        assert buf.n_stations == 4
        buf.offer(3, 2, 9.0)  # a newcomer reports, same pending tick
        buf.offer(0, 4, 0.0)  # advance the watermark
        emitted = buf.drain()
        matrix = drained_matrix(emitted, 4)
        np.testing.assert_array_equal(matrix[:, 0], [1.0, 2.0, np.nan, np.nan])
        np.testing.assert_array_equal(matrix[:2, 2], [3.0, np.nan])
        assert matrix[3, 2] == 9.0

    def test_drop_stations_renumbers_pending_rows(self):
        buf = ReorderBuffer(4, lateness=4, capacity=16)
        for station in range(4):
            buf.offer(station, 0, float(station))
        buf.drop_stations([1])
        assert buf.n_stations == 3
        # Survivors renumbered compactly: old station 2 -> row 1.
        buf.offer(0, 4, 0.0)
        matrix = drained_matrix(buf.flush(), 3)
        np.testing.assert_array_equal(matrix[:, 0], [0.0, 2.0, 3.0])

    def test_drop_validates_strict_subset(self):
        buf = ReorderBuffer(4, lateness=1, capacity=8)
        with pytest.raises(ValueError):
            buf.drop_stations([0, 1, 2, 3])
        with pytest.raises(ValueError):
            buf.drop_stations([4])
        with pytest.raises(ValueError):
            buf.drop_stations([])

    def test_dropped_then_readded_station_starts_cold(self):
        """Churn must not leak last_seen across identities: drop the
        tail station, add a new one, and the newcomer's first seq is
        unwrapped from the emission frontier, not the ghost's history."""
        buf = ReorderBuffer(2, lateness=1, capacity=64)
        buf.offer(1, 30, 1.0)  # station 1 far ahead
        buf.drop_stations([1])
        buf.add_stations(1)
        # The fresh station 1 reporting seq 0 is LATE only relative to
        # the frontier, never judged against the dead station's seq 30.
        outcome = buf.offer(1, int(buf.next_emit), 5.0)
        assert outcome is Offer.ACCEPTED
