"""Missing-data semantics: NaN readings under ``missing="impute"``.

The contract (vs. the default ``missing="raise"``, which rejects NaNs
with a clear error and commits nothing):

* a missing reading is imputed causally (last buffered value, scale
  floor for a cold buffer) so the station keeps scoring;
* it never moves the (fixed) scaler bounds;
* the station is never flagged at a missing tick, and per-station
  missing counts are tracked (detector) and reported (engine);
* the replay engine repairs missing entries through the mitigation
  policy, exactly like flagged ones;
* ``process_block`` at any ``B`` matches ``B`` sequential ticks.
"""

import numpy as np
import pytest

from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.stream.detector import StreamingDetector
from repro.stream.engine import StreamReplayEngine, attack_fleet, synthesize_fleet
from repro.stream.scaler import StreamingMinMaxScaler


@pytest.fixture(scope="module")
def small_autoencoder():
    config = AutoencoderConfig(
        sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
    )
    return LSTMAutoencoder(config, seed=11)


def _detector(autoencoder, fleet, missing="impute", threshold=0.5):
    scaler = StreamingMinMaxScaler.from_bounds(
        np.nanmin(fleet, axis=1), np.nanmax(fleet, axis=1)
    )
    return StreamingDetector(
        autoencoder,
        fleet.shape[0],
        scaler=scaler,
        threshold=threshold,
        missing=missing,
    )


class TestDefaultRaise:
    def test_nan_raises_with_actionable_message(self, small_autoencoder):
        fleet = synthesize_fleet(2, 20, seed=1)
        detector = _detector(small_autoencoder, fleet, missing="raise")
        bad = fleet[:, 0].copy()
        bad[0] = np.nan
        with pytest.raises(ValueError, match="missing='impute'"):
            detector.process_tick(bad)
        with pytest.raises(ValueError, match="missing='impute'"):
            detector.process_block(bad[:, None])

    def test_invalid_mode_rejected(self, small_autoencoder):
        fleet = synthesize_fleet(2, 20, seed=1)
        with pytest.raises(ValueError, match="missing"):
            _detector(small_autoencoder, fleet, missing="ignore")


class TestImputeSemantics:
    def test_missing_station_is_never_flagged(self, small_autoencoder):
        length = small_autoencoder.config.sequence_length
        fleet = synthesize_fleet(1, 2 * length, seed=4)
        # Threshold 0: everything scorable flags — except missing ticks.
        detector = _detector(small_autoencoder, fleet, threshold=0.0)
        for t in range(length):
            detector.process_tick(fleet[:, t])
        flagged = detector.process_tick(fleet[:, length])
        assert flagged.flags[0]
        missed = detector.process_tick(np.array([np.nan]))
        assert not missed.flags[0]
        assert missed.missing[0]
        assert missed.scored[0]
        assert np.isfinite(missed.scores[0])

    def test_impute_holds_last_buffered_value(self, small_autoencoder):
        fleet = synthesize_fleet(1, 20, seed=5)
        detector = _detector(small_autoencoder, fleet)
        detector.process_tick(np.array([30.0]))
        buffered = detector.buffers.last().copy()
        detector.process_tick(np.array([np.nan]))
        np.testing.assert_array_equal(detector.buffers.last(), buffered)

    def test_cold_buffer_imputes_scale_floor(self, small_autoencoder):
        fleet = synthesize_fleet(1, 20, seed=5)
        detector = _detector(small_autoencoder, fleet)
        detector.process_tick(np.array([np.nan]))
        assert detector.buffers.last()[0] == detector.scaler.feature_range[0]
        assert detector.missing_counts[0] == 1

    def test_block_matches_sequential_ticks(self, small_autoencoder):
        """B = 1 blocks, interleaved missing/present, fixed thresholds."""
        fleet = synthesize_fleet(3, 48, seed=6, dropout_rate=0.2)
        tick_det = _detector(small_autoencoder, fleet, threshold=0.01)
        block_det = _detector(small_autoencoder, fleet, threshold=0.01)
        t_flags, t_scores, t_missing = [], [], []
        for t in range(fleet.shape[1]):
            result = tick_det.process_tick(fleet[:, t])
            t_flags.append(result.flags)
            t_scores.append(result.scores)
            t_missing.append(result.missing)
        # B=1 is exact parity; larger blocks are compared to float32
        # round-off below.
        b_flags, b_scores, b_missing = [], [], []
        for t in range(fleet.shape[1]):
            result = block_det.process_block(fleet[:, t : t + 1])
            b_flags.append(result.flags[:, 0])
            b_scores.append(result.scores[:, 0])
            b_missing.append(result.missing[:, 0])
        np.testing.assert_array_equal(np.array(t_flags), np.array(b_flags))
        np.testing.assert_array_equal(np.array(t_scores), np.array(b_scores))
        np.testing.assert_array_equal(np.array(t_missing), np.array(b_missing))

    def test_block_fixed_threshold_equals_ticks_for_any_block_size(
        self, small_autoencoder
    ):
        fleet = synthesize_fleet(3, 45, seed=7, dropout_rate=0.15)
        tick_det = _detector(small_autoencoder, fleet, threshold=0.01)
        flags = np.zeros(fleet.shape, dtype=bool)
        scores = np.full(fleet.shape, np.nan)
        for t in range(fleet.shape[1]):
            result = tick_det.process_tick(fleet[:, t])
            flags[:, t] = result.flags
            scores[:, t] = result.scores
        block_det = _detector(small_autoencoder, fleet, threshold=0.01)
        b_flags = np.zeros(fleet.shape, dtype=bool)
        b_scores = np.full(fleet.shape, np.nan)
        for first in range(0, fleet.shape[1], 9):
            result = block_det.process_block(fleet[:, first : first + 9])
            b_flags[:, first : first + 9] = result.flags
            b_scores[:, first : first + 9] = result.scores
        np.testing.assert_array_equal(flags, b_flags)
        np.testing.assert_allclose(scores, b_scores, rtol=0, atol=5e-7)
        np.testing.assert_array_equal(
            tick_det.missing_counts, block_det.missing_counts
        )
        np.testing.assert_array_equal(
            tick_det.scaler.data_min_, block_det.scaler.data_min_
        )


class TestEngineIntegration:
    def test_missing_entries_repaired_by_policy(self, small_autoencoder):
        fleet = synthesize_fleet(2, 40, seed=8)
        dropped = fleet.copy()
        dropped[0, 25] = np.nan
        detector = _detector(small_autoencoder, dropped)
        engine = StreamReplayEngine(detector, mitigator="hold_last_good")
        report = engine.run(dropped)
        assert report.missing[0, 25]
        assert np.isfinite(report.mitigated[0, 25])
        # hold_last_good: the repair is the last clean reading.
        assert report.mitigated[0, 25] == dropped[0, 24]
        np.testing.assert_array_equal(report.missing_counts, [1, 0])
        assert "missing readings: 1 imputed" in report.summary()

    def test_without_mitigator_missing_stays_nan_in_output(self, small_autoencoder):
        fleet = synthesize_fleet(2, 30, seed=8)
        fleet[1, 12] = np.nan
        detector = _detector(small_autoencoder, fleet)
        report = StreamReplayEngine(detector).run(fleet)
        assert np.isnan(report.mitigated[1, 12])
        assert report.missing[1, 12]

    def test_dropout_acceptance_thousand_stations(self, small_autoencoder):
        """Acceptance: 5% dropout at 1000 stations completes, excludes
        missing readings from updates, reports per-station counts."""
        fleet = synthesize_fleet(1000, 24, seed=9, dropout_rate=0.05)
        n_missing = int(np.isnan(fleet).sum())
        assert n_missing > 0
        detector = _detector(small_autoencoder, fleet)
        bounds = (detector.scaler.data_min_.copy(), detector.scaler.data_max_.copy())
        engine = StreamReplayEngine(detector, mitigator="hold_last_good")
        report = engine.run(fleet, block_size=8)
        assert int(report.missing.sum()) == n_missing
        np.testing.assert_array_equal(
            report.missing_counts, detector.missing_counts
        )
        # Fixed bounds: no reading, present or missing, moves them.
        np.testing.assert_array_equal(detector.scaler.data_min_, bounds[0])
        np.testing.assert_array_equal(detector.scaler.data_max_, bounds[1])

    def test_attack_fleet_dropout_knob(self, tiny_clients):
        from repro.attacks import AttackScenario, DDoSVolumeAttack

        scenario = AttackScenario([DDoSVolumeAttack()], name="dropout-test")
        clean, labels, _ = attack_fleet(tiny_clients, scenario, seed=3)
        dropped, labels2, _ = attack_fleet(
            tiny_clients, scenario, seed=3, dropout_rate=0.1
        )
        mask = np.isnan(dropped)
        assert 0 < mask.sum() < dropped.size
        np.testing.assert_array_equal(labels, labels2)
        np.testing.assert_array_equal(clean[~mask], dropped[~mask])

    def test_first_reading_missing_with_explicit_fallback(self, small_autoencoder):
        """Regression: a finite fallback repair on a station whose very
        first reading is missing must not crash mitigation — tick and
        block replays both complete, and the explicit fallback wins."""
        from repro.stream.mitigation import HoldLastGoodMitigator

        fleet = synthesize_fleet(3, 24, seed=11)
        fleet[2, 0] = np.nan  # station 2's first-ever reading is missing

        def run(block_size):
            detector = _detector(small_autoencoder, fleet)
            mitigator = HoldLastGoodMitigator(3, fallback=5.0)
            engine = StreamReplayEngine(detector, mitigator=mitigator)
            return engine.run(fleet, block_size=block_size)

        tick_report = run(1)
        block_report = run(4)
        assert tick_report.mitigated[2, 0] == 5.0
        assert block_report.mitigated[2, 0] == 5.0

    def test_synthesize_fleet_dropout_validation_and_determinism(self):
        with pytest.raises(ValueError, match="dropout_rate"):
            synthesize_fleet(2, 10, seed=0, dropout_rate=1.0)
        a = synthesize_fleet(3, 50, seed=1, dropout_rate=0.2)
        b = synthesize_fleet(3, 50, seed=1, dropout_rate=0.2)
        np.testing.assert_array_equal(a, b)
        clean = synthesize_fleet(3, 50, seed=1)
        mask = np.isnan(a)
        assert mask.any()
        np.testing.assert_array_equal(a[~mask], clean[~mask])
