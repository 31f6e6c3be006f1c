"""Block-mode streaming: parity, heterogeneous schedules, allocations.

The block-ingestion contract (PR 3):

* ``block_size=1`` reproduces the tick-by-tick pipeline **bit-for-bit**
  (detector, scaler, buffers, engine report);
* for any ``B`` the results are bit-identical to
  tick-by-tick replay — and hence to the batch detector, whose parity
  with tick replay is already pinned by ``test_stream_parity.py``;
* every bulk bank API (``push_block``, ``mitigate_block``) equals its
  sequential counterpart exactly;
* the steady-state block loop does not grow allocations call over call.
"""

import tracemalloc

import numpy as np
import pytest

from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.stream._ticks import check_block
from repro.stream.buffers import RingBufferBank
from repro.stream.detector import StreamingDetector
from repro.stream.engine import StreamReplayEngine, synthesize_fleet
from repro.stream.mitigation import (
    CausalLinearMitigator,
    HoldLastGoodMitigator,
    SeasonalHoldMitigator,
    StreamingMitigator,
)
from repro.stream.scaler import StreamingMinMaxScaler


@pytest.fixture(scope="module")
def small_autoencoder():
    config = AutoencoderConfig(
        sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
    )
    return LSTMAutoencoder(config, seed=11)


@pytest.fixture(scope="module")
def fleet():
    return synthesize_fleet(4, 60, seed=4)


def _detector(autoencoder, fleet, threshold=0.01):
    scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
    return StreamingDetector(
        autoencoder, fleet.shape[0], scaler=scaler, threshold=threshold
    )


def _tick_replay(detector, fleet):
    scores = np.full(fleet.shape, np.nan)
    flags = np.zeros(fleet.shape, dtype=bool)
    for t in range(fleet.shape[1]):
        result = detector.process_tick(fleet[:, t])
        scores[:, t] = result.scores
        flags[:, t] = result.flags
    return scores, flags


def _block_replay(detector, fleet, block_size):
    scores = np.full(fleet.shape, np.nan)
    flags = np.zeros(fleet.shape, dtype=bool)
    for first in range(0, fleet.shape[1], block_size):
        sl = slice(first, min(first + block_size, fleet.shape[1]))
        result = detector.process_block(fleet[:, sl])
        scores[:, sl] = result.scores
        flags[:, sl] = result.flags
    return scores, flags


class TestBlockTickParity:
    def test_block_size_one_is_bit_identical(self, small_autoencoder, fleet):
        d_tick = _detector(small_autoencoder, fleet)
        d_block = _detector(small_autoencoder, fleet)
        for t in range(fleet.shape[1]):
            tick = d_tick.process_tick(fleet[:, t])
            block = d_block.process_block(fleet[:, t : t + 1])
            assert block.first_tick == tick.tick
            np.testing.assert_array_equal(block.scored[:, 0], tick.scored)
            np.testing.assert_array_equal(block.flags[:, 0], tick.flags)
            np.testing.assert_array_equal(block.scores[:, 0], tick.scores)
        np.testing.assert_array_equal(d_tick.buffers._data, d_block.buffers._data)

    @pytest.mark.parametrize("block_size", [3, 7, 16, 60, 100])
    def test_open_loop_blocks_match_tick_replay(
        self, small_autoencoder, fleet, block_size
    ):
        """Any B (including B > ring length and B > T) matches tick replay.

        Scores are compared to round-off rather than bitwise: float32
        inference can round the last ulp differently across batch sizes
        (different BLAS kernel paths), and block mode batches B ticks of
        windows into one call.
        """
        tick_scores, tick_flags = _tick_replay(_detector(small_autoencoder, fleet), fleet)
        block_scores, block_flags = _block_replay(
            _detector(small_autoencoder, fleet), fleet, block_size
        )
        np.testing.assert_allclose(tick_scores, block_scores, rtol=1e-6, atol=0)
        np.testing.assert_array_equal(tick_flags, block_flags)

    def test_nan_reading_raises_without_poisoning_state(
        self, small_autoencoder, fleet
    ):
        """Tick and block both reject a NaN reading (under the default
        ``missing="raise"``) without touching scaler bounds, so one bad
        sensor value never silently disables a station — and the
        pipeline recovers on the next clean input."""
        bad_tick = fleet[:, 0].copy()
        bad_tick[1] = np.nan
        for mode in ("tick", "block"):
            detector = _detector(small_autoencoder, fleet)
            with pytest.raises(ValueError, match="missing='impute'"):
                if mode == "tick":
                    detector.process_tick(bad_tick)
                else:
                    detector.process_block(bad_tick[:, None])
            assert np.isfinite(detector.scaler.data_min_).all()
            detector.process_tick(fleet[:, 1])  # recovers

    def test_warmup_columns_not_scored(self, small_autoencoder, fleet):
        detector = _detector(small_autoencoder, fleet)
        result = detector.process_block(fleet[:, :10])
        length = small_autoencoder.config.sequence_length
        assert not result.scored[:, : length - 1].any()
        assert result.scored[:, length - 1 :].all()
        assert np.isnan(result.scores[:, : length - 1]).all()


class TestEngineBlockMode:
    def test_block_size_one_report_is_bit_identical(self, small_autoencoder, fleet):
        def run(block_size):
            detector = _detector(small_autoencoder, fleet)
            detector.calibrate(fleet)
            engine = StreamReplayEngine(detector, mitigator="hold_last_good")
            if block_size is None:
                return engine.run(fleet)
            return engine.run(fleet, block_size=block_size)

        default, block = run(None), run(1)
        np.testing.assert_array_equal(default.flags, block.flags)
        np.testing.assert_array_equal(default.scores, block.scores)
        np.testing.assert_array_equal(default.mitigated, block.mitigated)

    @pytest.mark.parametrize("block_size", [7, 13])
    def test_open_loop_block_run_matches_tick_run(
        self, small_autoencoder, fleet, block_size
    ):
        """Mitigation never rewrites detection history, so the block
        engine reproduces the tick engine for any block size — including
        a trailing partial block (60 % 7 != 0)."""

        def run(block_size):
            detector = _detector(small_autoencoder, fleet)
            detector.calibrate(fleet)
            engine = StreamReplayEngine(detector, mitigator="hold_last_good")
            return engine.run(fleet, block_size=block_size)

        tick, block = run(1), run(block_size)
        np.testing.assert_array_equal(tick.flags, block.flags)
        np.testing.assert_allclose(tick.scores, block.scores, rtol=1e-6, atol=0)
        np.testing.assert_array_equal(tick.mitigated, block.mitigated)

    def test_mitigated_block_run_produces_full_report(self, small_autoencoder, fleet):
        detector = _detector(small_autoencoder, fleet)
        detector.calibrate(fleet)
        engine = StreamReplayEngine(detector, mitigator="hold_last_good")
        report = engine.run(fleet, block_size=16)
        assert report.flags.shape == fleet.shape
        assert np.isfinite(report.latencies).all()
        assert report.ticks_per_second > 0

    def test_masked_amend_preserves_clean_history(self, small_autoencoder, fleet):
        """A masked amend rewrites only the selected entries: a clean
        station's buffered history stays as it was while the flagged
        station is rewritten, although every row offers new values."""
        detector = _detector(small_autoencoder, fleet)
        detector.process_block(fleet[:, :20])
        before = detector.buffers.windows().copy()
        flags = np.zeros((fleet.shape[0], 20), dtype=bool)
        flags[0, :] = True
        repaired = fleet[:, :20] * 0.5
        detector.amend_block(repaired, flags=flags)
        after = detector.buffers.windows()
        np.testing.assert_array_equal(before[1:], after[1:])
        assert not np.array_equal(before[0], after[0])

    def test_block_size_must_be_positive(self, small_autoencoder, fleet):
        detector = _detector(small_autoencoder, fleet)
        with pytest.raises(ValueError, match="block_size"):
            StreamReplayEngine(detector).run(fleet, block_size=0)


class TestHeterogeneousBlocks:
    def test_subset_block_matches_subset_ticks(self, small_autoencoder, fleet):
        """Stations reporting on their own schedule ingest block-wise too."""
        subset = np.array([2, 0])
        d_tick = _detector(small_autoencoder, fleet)
        d_block = _detector(small_autoencoder, fleet)
        for first in range(0, 56, 4):
            chunk = fleet[subset, first : first + 4]
            tick_scores = []
            for t in range(4):
                tick_scores.append(d_tick.process_tick(chunk[:, t], subset).scores[subset])
            block = d_block.process_block(chunk, subset)
            np.testing.assert_allclose(
                np.column_stack(tick_scores), block.scores[subset], rtol=1e-6, atol=0
            )
            assert not block.scored[[1, 3]].any(), "absent stations are never scored"
        np.testing.assert_array_equal(d_tick.buffers._data, d_block.buffers._data)
        np.testing.assert_array_equal(d_tick.buffers.counts, d_block.buffers.counts)

    def test_absent_station_columns_carry_nan(self, small_autoencoder, fleet):
        detector = _detector(small_autoencoder, fleet)
        result = detector.process_block(fleet[[1], :20], np.array([1]))
        assert np.isnan(result.scores[[0, 2, 3]]).all()
        assert not result.flags[[0, 2, 3]].any()


class TestCalibrateRegression:
    def test_history_of_exactly_one_window_is_accepted(self, small_autoencoder):
        """T == sequence_length is one full window, not 'shorter than one'."""
        length = small_autoencoder.config.sequence_length
        detector = StreamingDetector(small_autoencoder, 3)
        fleet = synthesize_fleet(3, length, seed=1)
        thresholds = detector.calibrate(fleet, scale=False)
        assert thresholds.shape == (3,)
        assert np.isfinite(thresholds).all()

    def test_history_shorter_than_one_window_raises(self, small_autoencoder):
        length = small_autoencoder.config.sequence_length
        detector = StreamingDetector(small_autoencoder, 3)
        with pytest.raises(ValueError, match="shorter than one window"):
            detector.calibrate(synthesize_fleet(3, length - 1, seed=1), scale=False)


class TestRingBufferBlocks:
    def test_push_block_matches_sequential_pushes(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 11))
        seq, blk = RingBufferBank(3, 5), RingBufferBank(3, 5)
        for t in range(values.shape[1]):
            seq.push(values[:, t])
        blk.push_block(values)
        np.testing.assert_array_equal(seq._data, blk._data)
        np.testing.assert_array_equal(seq.counts, blk.counts)
        np.testing.assert_array_equal(seq._write, blk._write)

    def test_push_block_longer_than_ring_keeps_tail(self):
        bank = RingBufferBank(2, 4)
        values = np.arange(20, dtype=float).reshape(2, 10)
        bank.push_block(values)
        np.testing.assert_array_equal(bank.windows(), values[:, -4:])

    def test_recent_right_aligns_history(self):
        bank = RingBufferBank(2, 4)
        bank.push_block(np.arange(10, dtype=float).reshape(2, 5))
        np.testing.assert_array_equal(bank.recent(2), [[3.0, 4.0], [8.0, 9.0]])
        assert bank.recent(0).shape == (2, 0)
        with pytest.raises(ValueError, match="recent"):
            bank.recent(5)

    def test_amend_block_rewrites_newest_columns(self):
        bank = RingBufferBank(2, 4)
        bank.push_block(np.arange(10, dtype=float).reshape(2, 5))
        bank.amend_block(np.full((2, 2), -1.0))
        np.testing.assert_array_equal(
            bank.windows(), [[1.0, 2.0, -1.0, -1.0], [6.0, 7.0, -1.0, -1.0]]
        )

    def test_amend_block_clips_overlong_repairs(self):
        bank = RingBufferBank(1, 3)
        bank.push_block(np.arange(5, dtype=float)[None, :])
        bank.amend_block(np.full((1, 5), -2.0))
        np.testing.assert_array_equal(bank.windows(), [[-2.0, -2.0, -2.0]])

    def test_amend_block_requires_prior_pushes(self):
        bank = RingBufferBank(1, 3)
        bank.push(np.array([1.0]))
        with pytest.raises(ValueError, match="pushed"):
            bank.amend_block(np.zeros((1, 2)))


class TestScalerBlocks:
    def test_transform_block_uses_fixed_bounds(self):
        scaler = StreamingMinMaxScaler.from_bounds([0.0], [10.0])
        out = scaler.transform_block(np.array([[5.0, 20.0]]))
        np.testing.assert_array_equal(out, [[0.5, 2.0]])
        np.testing.assert_array_equal(scaler.data_max_, [10.0])

    def test_fixed_block_transform_never_widens(self):
        scaler = StreamingMinMaxScaler.from_bounds([0.0], [10.0])
        out = scaler.transform_block_fixed_checked(
            np.array([[50.0, 5.0]]), np.array([0])
        )
        np.testing.assert_array_equal(out, [[5.0, 0.5]])
        np.testing.assert_array_equal(scaler.data_max_, [10.0])


class TestMitigatorBlockParity:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: HoldLastGoodMitigator(5),
            lambda: CausalLinearMitigator(5),
            lambda: SeasonalHoldMitigator(5, period=6),
        ],
        ids=["hold_last_good", "causal_linear", "seasonal_hold"],
    )
    @pytest.mark.parametrize("block_size", [1, 7, 40])
    def test_block_equals_sequential_ticks(self, factory, block_size):
        rng = np.random.default_rng(5)
        values = rng.normal(10.0, 3.0, size=(5, 40))
        # Includes leading flags (nothing clean yet) and long runs that
        # cross block boundaries.
        flags = rng.random((5, 40)) < 0.35
        flags[0, :9] = True
        seq_m, blk_m = factory(), factory()
        expected = np.column_stack(
            [seq_m.mitigate(values[:, t], flags[:, t]) for t in range(values.shape[1])]
        )
        repaired = np.empty_like(values)
        for first in range(0, values.shape[1], block_size):
            sl = slice(first, min(first + block_size, values.shape[1]))
            repaired[:, sl] = blk_m.mitigate_block(values[:, sl], flags[:, sl])
        np.testing.assert_array_equal(expected, repaired)

    def test_nan_clean_reading_never_becomes_a_repair(self):
        """A clean NaN refreshes hold-last-good state but is unusable as a
        repair — the flagged tick must pass the raw value through, block
        and tick alike."""
        values = np.array([[5.0, np.nan, 7.0]])
        flags = np.array([[False, False, True]])
        tick = HoldLastGoodMitigator(1)
        expected = np.column_stack(
            [tick.mitigate(values[:, t], flags[:, t]) for t in range(3)]
        )
        block = HoldLastGoodMitigator(1).mitigate_block(values, flags)
        np.testing.assert_array_equal(expected, block)
        np.testing.assert_array_equal(block, values)  # raw passes through

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: HoldLastGoodMitigator(4),
            lambda: CausalLinearMitigator(4),
            lambda: SeasonalHoldMitigator(4, period=5),
        ],
        ids=["hold_last_good", "causal_linear", "seasonal_hold"],
    )
    def test_block_parity_with_nan_readings(self, factory):
        rng = np.random.default_rng(8)
        values = rng.normal(10.0, 3.0, size=(4, 30))
        values[rng.random((4, 30)) < 0.15] = np.nan
        flags = rng.random((4, 30)) < 0.35
        seq_m, blk_m = factory(), factory()
        expected = np.column_stack(
            [seq_m.mitigate(values[:, t], flags[:, t]) for t in range(values.shape[1])]
        )
        repaired = np.empty_like(values)
        for first in range(0, values.shape[1], 7):
            sl = slice(first, min(first + 7, values.shape[1]))
            repaired[:, sl] = blk_m.mitigate_block(values[:, sl], flags[:, sl])
        np.testing.assert_array_equal(expected, repaired)

    def test_base_class_fallback_serves_custom_policies(self):
        class Zeroing(StreamingMitigator):
            def mitigate(self, values, flags):
                values, flags = self._check(values, flags)
                return np.where(flags, 0.0, values)

        mitigator = Zeroing(2)
        values = np.arange(8, dtype=float).reshape(2, 4)
        flags = np.array([[True, False, True, False], [False, True, False, True]])
        np.testing.assert_array_equal(
            mitigator.mitigate_block(values, flags), np.where(flags, 0.0, values)
        )

    def test_block_shape_validation(self):
        mitigator = HoldLastGoodMitigator(2)
        with pytest.raises(ValueError, match="block values/flags"):
            mitigator.mitigate_block(np.zeros((2, 3)), np.zeros((2, 2), dtype=bool))


class TestCheckBlock:
    def test_rejects_non_2d_and_empty_blocks(self):
        with pytest.raises(ValueError, match="2-D"):
            check_block(np.zeros(3), None, 3)
        with pytest.raises(ValueError, match="at least one tick"):
            check_block(np.zeros((3, 0)), None, 3)

    def test_rejects_duplicates_and_out_of_range(self):
        with pytest.raises(ValueError, match="duplicate"):
            check_block(np.zeros((2, 4)), np.array([1, 1]), 3)
        with pytest.raises(ValueError, match="station indices"):
            check_block(np.zeros((2, 4)), np.array([0, 3]), 3)

    def test_full_fleet_defaults_station_index(self):
        values, stations = check_block(np.zeros((3, 2)), None, 3)
        np.testing.assert_array_equal(stations, [0, 1, 2])


class TestBlockLoopAllocations:
    def test_steady_state_block_loop_does_not_grow(self, small_autoencoder):
        """Mirrors tests/nn/test_engine.py: after warmup, repeated blocks
        at a fixed shape reuse workspaces instead of accumulating."""
        fleet = synthesize_fleet(8, 16 * 12, seed=6)
        detector = _detector(small_autoencoder, fleet)
        block = 16

        def run_block(i):
            sl = slice(i * block, (i + 1) * block)
            result = detector.process_block(fleet[:, sl])
            return result.scores.nbytes + result.flags.nbytes + result.scored.nbytes

        for i in range(3):  # warm scaler/buffer state and infer workspaces
            run_block(i)
        tracemalloc.start()
        run_block(3)  # establish the steady-state live set under tracing
        baseline, _ = tracemalloc.get_traced_memory()
        for i in range(4, 12):
            run_block(i)
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Steady state: every per-call tensor (results, windows, scratch)
        # is either freed or reused from a workspace; only trace/allocator
        # bookkeeping drift may remain.
        assert current - baseline < 8 * 1024
