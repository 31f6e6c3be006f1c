"""Fixed thresholds: the streaming detector's one decision boundary.

A reading is flagged when its window score is strictly above its
station's threshold.  Thresholds are passed to the constructor (scalar
or per-station) or set by :meth:`StreamingDetector.calibrate` to the
configured percentile of each station's own normal-history window
scores — the paper's per-client 98th-percentile rule.  Once set they
are constants: scoring, missing readings and the ingestion block size
never move them, and they survive a state round trip and fleet churn
bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.anomaly.detector import ReconstructionAnomalyDetector
from repro.data.windowing import sliding_windows
from repro.stream.detector import StreamingDetector
from repro.stream.engine import synthesize_fleet
from repro.nn import LSTM
from repro.nn.layers.lstm import _TILE
from repro.stream.scaler import StreamingMinMaxScaler

N_STATIONS = 3
N_TICKS = 48


@pytest.fixture(scope="module")
def fleet():
    return synthesize_fleet(N_STATIONS, N_TICKS, seed=9)


@pytest.fixture(scope="module")
def gappy_fleet():
    return synthesize_fleet(N_STATIONS, N_TICKS, seed=10, dropout_rate=0.15)


def _scaler(fleet):
    return StreamingMinMaxScaler.from_bounds(
        np.nanmin(fleet, axis=1), np.nanmax(fleet, axis=1)
    )


def _detector(autoencoder, fleet, threshold=None, percentile=98.0, missing="raise"):
    return StreamingDetector(
        autoencoder,
        fleet.shape[0],
        scaler=_scaler(fleet),
        threshold=threshold,
        percentile=percentile,
        missing=missing,
    )


def _calibrated(autoencoder, fleet, percentile=98.0, missing="raise"):
    detector = _detector(autoencoder, fleet, percentile=percentile, missing=missing)
    detector.calibrate(np.nan_to_num(fleet, nan=np.nanmean(fleet)))
    return detector


def _replay(detector, fleet, block_size=1):
    scores = np.full(fleet.shape, np.nan)
    flags = np.zeros(fleet.shape, dtype=bool)
    for first in range(0, fleet.shape[1], block_size):
        sl = slice(first, min(first + block_size, fleet.shape[1]))
        result = detector.process_block(fleet[:, sl])
        scores[:, sl] = result.scores
        flags[:, sl] = result.flags
    return scores, flags


class TestCalibrate:
    @pytest.mark.parametrize("percentile", [50.0, 90.0, 98.0, 99.5])
    def test_threshold_is_percentile_of_batch_window_scores(
        self, small_autoencoder, fleet, percentile
    ):
        """Each station's threshold is the percentile of the window
        scores the batch window-mode detector gives its own history."""
        detector = _detector(small_autoencoder, fleet, percentile=percentile)
        thresholds = detector.calibrate(fleet)
        batch = ReconstructionAnomalyDetector(small_autoencoder, scoring="window")
        scaled = detector.scaler.transform_fleet(fleet)
        expected = [
            np.nanpercentile(batch.score(scaled[j]), percentile) for j in range(N_STATIONS)
        ]
        np.testing.assert_allclose(thresholds, expected, rtol=1e-6, atol=0)
        np.testing.assert_array_equal(detector.thresholds, thresholds)

    def test_thresholds_equal_per_station_window_construction(
        self, small_autoencoder, fleet
    ):
        """One strided view over the fleet yields each station's windows in
        order, so the thresholds are those of scoring the stations'
        separately built windows, bit for bit."""
        detector = _detector(small_autoencoder, fleet)
        thresholds = detector.calibrate(fleet)
        scaled = detector.scaler.transform_fleet(fleet)
        windows = np.concatenate(
            [sliding_windows(row, detector.sequence_length) for row in scaled]
        )
        errors = small_autoencoder.window_errors(windows[:, :, None])
        expected = np.percentile(errors.reshape(N_STATIONS, -1), 98.0, axis=1)
        np.testing.assert_array_equal(thresholds, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_history_is_rejected_naming_its_stations(
        self, small_autoencoder, fleet, bad
    ):
        """A NaN threshold never flags, so history that would give one is
        refused whole: the error names the stations, thresholds stay."""
        history = fleet.copy()
        history[1, 17] = bad
        history[2, 0] = bad
        detector = _detector(small_autoencoder, fleet, threshold=0.5)
        with pytest.raises(ValueError, match=r"stations \[1, 2\]"):
            detector.calibrate(history)
        np.testing.assert_array_equal(detector.thresholds, np.full(N_STATIONS, 0.5))

    def test_raw_history_is_scaled_through_the_scaler(self, small_autoencoder, fleet):
        raw = _detector(small_autoencoder, fleet)
        prescaled = _detector(small_autoencoder, fleet)
        np.testing.assert_array_equal(
            raw.calibrate(fleet),
            prescaled.calibrate(prescaled.scaler.transform_fleet(fleet), scale=False),
        )

    @pytest.mark.parametrize("initial", [None, 0.5], ids=["uncalibrated", "fixed"])
    def test_recalibration_replaces_every_threshold(
        self, small_autoencoder, fleet, initial
    ):
        """Calibrating keeps no memory of earlier thresholds or history."""
        other = synthesize_fleet(N_STATIONS, N_TICKS, seed=11)
        detector = _detector(small_autoencoder, fleet, threshold=initial)
        detector.calibrate(fleet)
        detector.calibrate(other)
        fresh = _detector(small_autoencoder, fleet)
        np.testing.assert_array_equal(detector.thresholds, fresh.calibrate(other))

    @pytest.mark.parametrize("percentile", [80.0, 90.0, 98.0])
    def test_history_flags_at_most_its_tail_share(
        self, small_autoencoder, fleet, percentile
    ):
        """Replaying the calibration history flags about (100 - q)% of its
        windows per station: never more, up to interpolation slack."""
        detector = _calibrated(small_autoencoder, fleet, percentile=percentile)
        scores, flags = _replay(detector, fleet, block_size=N_TICKS)
        n_scored = np.isfinite(scores).sum(axis=1)
        rates = flags.sum(axis=1) / n_scored
        assert np.all(rates <= 1.0 - percentile / 100.0 + 2.0 / n_scored)
        assert flags.any()


class TestCalibrationPinsNothing:
    """Calibration is a one-off pass: it scores in call-local LSTM
    workspaces, so the model keeps only what the streaming step reuses."""

    @staticmethod
    def _setup():
        # A fresh model per test: the package-wide one's workspace LRUs
        # carry other tests' widths.
        config = AutoencoderConfig(
            sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
        )
        autoencoder = LSTMAutoencoder(config, seed=11)
        fleet = synthesize_fleet(200, N_TICKS, seed=12)
        assert fleet.shape[0] * (N_TICKS - config.sequence_length + 1) >= 2 * _TILE
        return autoencoder, fleet

    @staticmethod
    def _lstms(autoencoder):
        return [layer for layer in autoencoder.model.layers if isinstance(layer, LSTM)]

    def test_calibration_retains_under_a_megabyte(self):
        autoencoder, fleet = self._setup()
        detector = _detector(autoencoder, fleet)
        _detector(autoencoder, fleet[:2]).calibrate(fleet[:2])  # lazy set-up, imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            detector.calibrate(fleet)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000

    def test_calibration_leaves_no_inference_workspace(self):
        autoencoder, fleet = self._setup()
        _detector(autoencoder, fleet).calibrate(fleet)
        assert all(not layer._infer_workspaces for layer in self._lstms(autoencoder))

    def test_recalibration_keeps_the_streaming_workspaces(self):
        """The hot widths keep their buffers and LRU order: the pass never
        inserts into, evicts from or reorders a layer's LRU."""
        autoencoder, fleet = self._setup()
        detector = _calibrated(autoencoder, fleet)
        _replay(detector, fleet[:, :16], block_size=8)

        def snapshot():
            return [
                [(width, {key: id(a) for key, a in ws.items()})
                 for width, ws in layer._infer_workspaces.items()]
                for layer in self._lstms(autoencoder)
            ]

        hot = snapshot()
        assert all(hot)
        before = detector.thresholds.copy()
        detector.calibrate(fleet)
        assert snapshot() == hot
        np.testing.assert_array_equal(detector.thresholds, before)


class TestDecisionBoundary:
    def test_uncalibrated_detector_scores_but_never_flags(self, small_autoencoder, fleet):
        detector = _detector(small_autoencoder, fleet)
        assert np.isnan(detector.thresholds).all()
        scores, flags = _replay(detector, fleet)
        length = small_autoencoder.config.sequence_length
        assert np.isfinite(scores[:, length - 1 :]).all()
        assert not flags.any()

    def test_flags_start_once_calibrated(self, small_autoencoder, fleet):
        detector = _detector(small_autoencoder, fleet, percentile=50.0)
        half = N_TICKS // 2
        _, early = _replay(detector, fleet[:, :half])
        assert not early.any()
        detector.calibrate(fleet)
        _, late = _replay(detector, fleet[:, half:])
        assert late.any(axis=1).all()

    def test_scalar_threshold_applies_to_every_station(self, small_autoencoder, fleet):
        detector = _detector(small_autoencoder, fleet, threshold=0.3)
        np.testing.assert_array_equal(detector.thresholds, np.full(N_STATIONS, 0.3))

    def test_per_station_thresholds_decide_independently(self, small_autoencoder, fleet):
        scores, _ = _replay(_detector(small_autoencoder, fleet), fleet)
        middle = float(np.nanmedian(scores[2]))
        detector = _detector(
            small_autoencoder, fleet, threshold=np.array([-np.inf, np.inf, middle])
        )
        again, flags = _replay(detector, fleet)
        np.testing.assert_array_equal(again, scores)
        scored = np.isfinite(scores)
        np.testing.assert_array_equal(flags[0], scored[0])
        assert not flags[1].any()
        np.testing.assert_array_equal(flags[2], scored[2] & (scores[2] > middle))
        assert 0 < flags[2].sum() < scored[2].sum()

    def test_score_equal_to_threshold_is_not_flagged(self, small_autoencoder, fleet):
        scores, _ = _replay(_detector(small_autoencoder, fleet), fleet)
        tick = N_TICKS - 1
        boundary = scores[:, tick]
        _, at = _replay(_detector(small_autoencoder, fleet, threshold=boundary), fleet)
        assert not at[:, tick].any()
        below = np.nextafter(boundary, -np.inf)
        _, above = _replay(_detector(small_autoencoder, fleet, threshold=below), fleet)
        assert above[:, tick].all()

    def test_threshold_of_wrong_length_is_rejected(self, small_autoencoder, fleet):
        with pytest.raises(ValueError):
            _detector(small_autoencoder, fleet, threshold=np.zeros(N_STATIONS - 1))

    def test_non_numeric_threshold_is_rejected(self, small_autoencoder, fleet):
        """Thresholds are numbers; no string selects another mechanism."""
        with pytest.raises(ValueError):
            _detector(small_autoencoder, fleet, threshold="p2")

    @pytest.mark.parametrize("percentile", [0.0, 100.0, -5.0, 120.0])
    def test_percentile_outside_open_interval_is_rejected(
        self, small_autoencoder, fleet, percentile
    ):
        with pytest.raises(ValueError, match="percentile must be in"):
            _detector(small_autoencoder, fleet, percentile=percentile)

    def test_unknown_missing_mode_is_rejected(self, small_autoencoder, fleet):
        with pytest.raises(ValueError, match="missing must be one of"):
            _detector(small_autoencoder, fleet, missing="skip")


class TestThresholdsAreConstants:
    @pytest.mark.parametrize("block_size", [1, 5, N_TICKS])
    def test_ingestion_never_moves_thresholds(
        self, small_autoencoder, gappy_fleet, block_size
    ):
        """Scored, flagged and missing readings alike leave them alone."""
        detector = _calibrated(small_autoencoder, gappy_fleet, missing="impute")
        before = detector.thresholds.copy()
        _, flags = _replay(detector, gappy_fleet, block_size)
        assert flags.any()
        assert detector.missing_counts.sum() > 0
        np.testing.assert_array_equal(detector.thresholds, before)

    @pytest.mark.parametrize("block_size", [3, 7, 16, N_TICKS])
    def test_calibrated_blocks_match_tick_replay(
        self, small_autoencoder, gappy_fleet, block_size
    ):
        """Column ``t`` of a block is the tick result, missing readings
        and per-station calibrated thresholds included."""
        tick_scores, tick_flags = _replay(
            _calibrated(small_autoencoder, gappy_fleet, missing="impute"), gappy_fleet
        )
        block_scores, block_flags = _replay(
            _calibrated(small_autoencoder, gappy_fleet, missing="impute"),
            gappy_fleet,
            block_size,
        )
        assert tick_flags.any()
        np.testing.assert_allclose(tick_scores, block_scores, rtol=1e-6, atol=0)
        np.testing.assert_array_equal(tick_flags, block_flags)

    @pytest.mark.parametrize("calibrate", [False, True], ids=["uncalibrated", "calibrated"])
    def test_state_round_trip_keeps_thresholds(self, small_autoencoder, fleet, calibrate):
        half = N_TICKS // 2
        source = _calibrated(small_autoencoder, fleet) if calibrate else _detector(
            small_autoencoder, fleet
        )
        _replay(source, fleet[:, :half])
        clone = _detector(small_autoencoder, fleet, threshold=0.5)
        clone.load_state_dict(source.state_dict())
        np.testing.assert_array_equal(clone.thresholds, source.thresholds)
        rest_source = _replay(source, fleet[:, half:])
        rest_clone = _replay(clone, fleet[:, half:])
        np.testing.assert_array_equal(rest_clone[0], rest_source[0])
        np.testing.assert_array_equal(rest_clone[1], rest_source[1])

    def test_state_with_wrong_threshold_shape_is_rejected_whole(
        self, small_autoencoder, fleet
    ):
        detector = _calibrated(small_autoencoder, fleet)
        _replay(detector, fleet[:, :10])
        before = detector.state_dict()
        state = detector.state_dict()
        state["thresholds"] = np.zeros(N_STATIONS + 1)
        with pytest.raises(ValueError, match="thresholds"):
            detector.load_state_dict(state)
        after = detector.state_dict()
        assert after.keys() == before.keys()
        for key in before:
            np.testing.assert_array_equal(after[key], before[key])


class TestChurn:
    @pytest.mark.parametrize(
        ("given", "expected"),
        [
            (None, [np.nan, np.nan]),
            (0.25, [0.25, 0.25]),
            (np.array([0.1, 0.7]), [0.1, 0.7]),
        ],
        ids=["none", "scalar", "per-station"],
    )
    def test_newcomers_take_given_thresholds(self, small_autoencoder, fleet, given, expected):
        detector = _calibrated(small_autoencoder, fleet)
        survivors = detector.thresholds.copy()
        detector.add_stations(
            2, thresholds=given, data_min=np.zeros(2), data_max=np.ones(2)
        )
        np.testing.assert_array_equal(detector.thresholds[:N_STATIONS], survivors)
        np.testing.assert_array_equal(detector.thresholds[N_STATIONS:], expected)

    def test_drop_keeps_survivor_thresholds(self, small_autoencoder, fleet):
        detector = _calibrated(small_autoencoder, fleet)
        before = detector.thresholds.copy()
        detector.drop_stations([1])
        np.testing.assert_array_equal(detector.thresholds, before[[0, 2]])

    def test_add_with_wrong_threshold_length_changes_nothing(
        self, small_autoencoder, fleet
    ):
        detector = _calibrated(small_autoencoder, fleet)
        before = detector.thresholds.copy()
        with pytest.raises(ValueError):
            detector.add_stations(
                2, thresholds=np.zeros(3), data_min=np.zeros(2), data_max=np.ones(2)
            )
        assert detector.n_stations == N_STATIONS
        assert detector.scaler.n_stations == N_STATIONS
        np.testing.assert_array_equal(detector.thresholds, before)
