"""Streaming-vs-batch parity and StreamingDetector behaviour.

The core contract of the subsystem: replaying a series tick-by-tick
through :class:`~repro.stream.detector.StreamingDetector` must reproduce
the batch :class:`~repro.anomaly.detector.ReconstructionAnomalyDetector`
(window-scoring mode) decision-for-decision on the same trained
autoencoder.
"""

import numpy as np
import pytest

from repro.anomaly.detector import ReconstructionAnomalyDetector
from repro.data.scaling import MinMaxScaler
from repro.stream.detector import StreamingDetector
from repro.stream.scaler import StreamingMinMaxScaler


@pytest.fixture(scope="module")
def trained_batch_detector(tiny_ae_config):
    """One trained window-mode batch detector plus its scaled series."""
    config = tiny_ae_config
    t = np.arange(400)
    series = (
        30.0
        + 8.0 * np.sin(2 * np.pi * t / 24.0)
        + np.random.default_rng(7).normal(0.0, 0.5, t.size)
    )
    scaler = MinMaxScaler()
    scaled = scaler.fit_transform(series)
    detector = ReconstructionAnomalyDetector(scoring="window", config=config, seed=3)
    detector.fit(scaled)
    return detector, scaled


@pytest.fixture(scope="module")
def tiny_ae_config():
    # Module-scoped clone of the session fixture so the trained detector
    # is shared across this module's tests.
    from repro.anomaly.autoencoder import AutoencoderConfig

    return AutoencoderConfig(
        sequence_length=12,
        encoder_units=(8, 4),
        decoder_units=(4, 8),
        dropout=0.1,
        epochs=3,
        patience=2,
        batch_size=32,
    )


class TestStreamingBatchParity:
    def test_flags_and_scores_match_batch_window_mode(self, trained_batch_detector):
        batch, scaled = trained_batch_detector
        streaming = StreamingDetector(
            batch.autoencoder,
            n_stations=1,
            threshold=np.array([batch.threshold_rule.threshold_]),
        )
        flags = np.zeros(len(scaled), dtype=bool)
        scores = np.full(len(scaled), np.nan)
        for t, value in enumerate(scaled):
            result = streaming.process_tick(np.array([value]))
            flags[t] = result.flags[0]
            scores[t] = result.scores[0]

        report = batch.detect(scaled)
        assert report.n_flagged > 0, "test series should trip the threshold somewhere"
        np.testing.assert_array_equal(flags, report.flags)
        np.testing.assert_array_equal(np.isfinite(scores), np.isfinite(report.scores))
        finite = np.isfinite(report.scores)
        np.testing.assert_allclose(scores[finite], report.scores[finite], rtol=1e-10)

    def test_block_replay_matches_batch_window_mode(self, trained_batch_detector):
        """Open-loop block ingestion reproduces the batch detector too."""
        batch, scaled = trained_batch_detector
        streaming = StreamingDetector(
            batch.autoencoder,
            n_stations=1,
            threshold=np.array([batch.threshold_rule.threshold_]),
        )
        flags = np.zeros(len(scaled), dtype=bool)
        scores = np.full(len(scaled), np.nan)
        block_size = 37
        for first in range(0, len(scaled), block_size):
            chunk = scaled[first : first + block_size]
            result = streaming.process_block(chunk[None, :])
            flags[first : first + len(chunk)] = result.flags[0]
            scores[first : first + len(chunk)] = result.scores[0]

        report = batch.detect(scaled)
        np.testing.assert_array_equal(flags, report.flags)
        finite = np.isfinite(report.scores)
        np.testing.assert_array_equal(np.isfinite(scores), finite)
        np.testing.assert_allclose(scores[finite], report.scores[finite], rtol=1e-10)

    def test_parity_holds_with_streaming_scaler(self, trained_batch_detector, tiny_ae_config):
        """Raw-space replay through a from_bounds scaler matches scaled-space batch."""
        batch, scaled = trained_batch_detector
        low, high = 12.0, 55.0
        raw = scaled * (high - low) + low
        fleet_scaler = StreamingMinMaxScaler.from_bounds([low], [high])
        streaming = StreamingDetector(
            batch.autoencoder,
            n_stations=1,
            scaler=fleet_scaler,
            threshold=np.array([batch.threshold_rule.threshold_]),
        )
        flags = np.zeros(len(raw), dtype=bool)
        for t, value in enumerate(raw):
            flags[t] = streaming.process_tick(np.array([value])).flags[0]
        np.testing.assert_array_equal(flags, batch.detect(scaled).flags)


class TestStreamingDetector:
    def test_no_flags_before_window_fills(self, trained_batch_detector):
        batch, scaled = trained_batch_detector
        streaming = StreamingDetector(batch.autoencoder, 1, threshold=0.0)
        for t in range(batch.sequence_length - 1):
            result = streaming.process_tick(scaled[t : t + 1])
            assert not result.scored.any()
            assert not result.flags.any()
            assert np.isnan(result.scores).all()
        result = streaming.process_tick(scaled[:1])
        assert result.scored.all()

    def test_fleet_scoring_matches_single_station_replay(self, trained_batch_detector):
        batch, scaled = trained_batch_detector
        length = 3 * batch.sequence_length
        fleet = np.stack([scaled[:length], scaled[50 : 50 + length]])
        together = StreamingDetector(batch.autoencoder, 2, threshold=0.5)
        alone = [
            StreamingDetector(batch.autoencoder, 1, threshold=0.5) for _ in range(2)
        ]
        for t in range(length):
            fleet_result = together.process_tick(fleet[:, t])
            for j in range(2):
                solo = alone[j].process_tick(fleet[j : j + 1, t])
                if fleet_result.scored[j]:
                    np.testing.assert_allclose(
                        fleet_result.scores[j], solo.scores[0], rtol=1e-10
                    )

    def test_calibrate_sets_per_station_percentile(self, trained_batch_detector):
        batch, scaled = trained_batch_detector
        streaming = StreamingDetector(batch.autoencoder, 2, percentile=90.0)
        fleet = np.stack([scaled, scaled[::-1]])
        thresholds = streaming.calibrate(fleet, scale=False)
        assert thresholds.shape == (2,)
        assert np.all(np.isfinite(thresholds))
        # Scores of the calibration data itself exceed the 90th pct ~10% of the time.
        flags = np.zeros_like(fleet, dtype=bool)
        for t in range(fleet.shape[1]):
            flags[:, t] = streaming.process_tick(fleet[:, t]).flags
        rates = flags[:, batch.sequence_length :].mean(axis=1)
        assert np.all(rates < 0.25)
        assert np.all(rates > 0.0)

    def test_validation(self, trained_batch_detector):
        batch, _ = trained_batch_detector
        with pytest.raises(ValueError, match="n_stations"):
            StreamingDetector(batch.autoencoder, 0)
        with pytest.raises(ValueError, match="scaler tracks"):
            StreamingDetector(
                batch.autoencoder,
                2,
                scaler=StreamingMinMaxScaler.from_bounds(np.zeros(3), np.ones(3)),
            )
        with pytest.raises(ValueError, match="normal_fleet"):
            StreamingDetector(batch.autoencoder, 2).calibrate(np.zeros((3, 100)))
