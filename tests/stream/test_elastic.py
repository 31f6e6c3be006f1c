"""Elastic fleets: stations join and leave at runtime.

The churn contract: ``add_stations`` brings newcomers in cold (empty
buffers, their own fixed scaler bounds, NaN or given thresholds) and
``drop_stations`` removes rows — in both cases every SURVIVING
station's state is bit-for-bit untouched, so its future decisions match
a churn-free run exactly.
"""

import numpy as np
import pytest

from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.stream.buffers import RingBufferBank
from repro.stream.detector import StreamingDetector
from repro.stream.engine import StreamReplayEngine, synthesize_fleet
from repro.stream.mitigation import (
    CausalLinearMitigator,
    HoldLastGoodMitigator,
    SeasonalHoldMitigator,
)
from repro.stream.scaler import StreamingMinMaxScaler


@pytest.fixture(scope="module")
def small_autoencoder():
    config = AutoencoderConfig(
        sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
    )
    return LSTMAutoencoder(config, seed=11)


class TestBankResizing:
    def test_ring_buffer_add_then_drop_preserves_survivors(self):
        bank = RingBufferBank(3, 4)
        for t in range(5):
            bank.push(np.arange(3, dtype=float) + t)
        before = bank.state_dict()
        bank.add_stations(2)
        assert bank.n_stations == 5
        assert not bank.ready[3:].any()
        bank.drop_stations([3, 4])
        after = bank.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_ring_buffer_drop_renumbers(self):
        bank = RingBufferBank(3, 2)
        bank.push(np.array([10.0, 20.0, 30.0]))
        bank.drop_stations([1])
        np.testing.assert_array_equal(bank.last(), [10.0, 30.0])

    def test_scaler_requires_bounds_for_newcomers(self):
        scaler = StreamingMinMaxScaler.from_bounds([0.0], [1.0])
        with pytest.raises(ValueError, match="both data_min and data_max"):
            scaler.add_stations(1, data_min=None, data_max=None)
        scaler.add_stations(1, data_min=np.array([2.0]), data_max=np.array([4.0]))
        np.testing.assert_array_equal(
            scaler.transform(np.array([0.5, 3.0])), [0.5, 0.5]
        )

    def test_mitigators_add_drop(self):
        for mitigator in (
            HoldLastGoodMitigator(2),
            CausalLinearMitigator(2),
            SeasonalHoldMitigator(2, period=3),
        ):
            mitigator.mitigate(np.array([1.0, 2.0]), np.array([False, False]))
            mitigator.add_stations(1)
            assert mitigator.n_stations == 3
            out = mitigator.mitigate(
                np.array([9.0, 9.0, 9.0]), np.array([True, True, True])
            )
            np.testing.assert_array_equal(out[:2], [1.0, 2.0])
            mitigator.drop_stations([2])
            assert mitigator.n_stations == 2
            out = mitigator.mitigate(np.array([8.0, 8.0]), np.array([True, True]))
            np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_cannot_drop_every_station(self):
        bank = RingBufferBank(2, 3)
        with pytest.raises(ValueError, match="every station"):
            bank.drop_stations([0, 1])

    def test_drop_validates_indices(self):
        bank = RingBufferBank(3, 2)
        with pytest.raises(ValueError, match="station indices"):
            bank.drop_stations([5])
        with pytest.raises(ValueError, match="duplicate"):
            bank.drop_stations([1, 1])


class TestDetectorChurn:
    def _engine(self, autoencoder, fleet, threshold=None, mitigator="hold_last_good"):
        """Thresholds calibrated on ``fleet`` unless ``threshold`` is given."""
        scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
        detector = StreamingDetector(
            autoencoder, fleet.shape[0], scaler=scaler, threshold=threshold
        )
        if threshold is None:
            detector.calibrate(fleet)
        return StreamReplayEngine(detector, mitigator=mitigator)

    def test_survivors_match_churn_free_run(self, small_autoencoder):
        """Mid-stream join+leave must not change surviving stations'
        remaining flags/scores at all (stations are independent)."""
        fleet = synthesize_fleet(4, 60, seed=7)
        reference = self._engine(small_autoencoder, fleet).run(fleet)
        # The survivors flag after the churn, so the flag parity is not vacuous.
        assert reference.flags[:, 40:].any()

        engine = self._engine(small_autoencoder, fleet)
        first = engine.run(fleet[:, :30])
        engine.add_stations(3, data_min=np.zeros(3), data_max=np.full(3, 100.0))
        assert engine.detector.n_stations == 7
        # The newcomers tick along with everyone for a while...
        joined = np.concatenate(
            [fleet[:, 30:40], synthesize_fleet(3, 10, seed=1)], axis=0
        )
        engine.run(joined)
        # ...then leave again.
        engine.drop_stations([4, 5, 6])
        second = engine.run(fleet[:, 40:])

        np.testing.assert_array_equal(reference.flags[:, :30], first.flags)
        np.testing.assert_array_equal(reference.flags[:, 40:], second.flags)
        np.testing.assert_array_equal(
            reference.scores[:, 40:], second.scores
        )
        np.testing.assert_array_equal(reference.mitigated[:, 40:], second.mitigated)

    def test_newcomer_fallback_wired_from_its_bounds(self, small_autoencoder):
        """A newcomer's no-anchor fallback is its own scaler minimum;
        survivors keep theirs, explicit ones included."""
        fleet = synthesize_fleet(2, 20, seed=5)
        engine = self._engine(small_autoencoder, fleet, threshold=0.01)
        engine.mitigator.set_fallback([33.0, engine.mitigator.fallback[1]])
        before = engine.mitigator.fallback.copy()
        engine.add_stations(2, data_min=np.array([4.0, 7.0]), data_max=np.full(2, 90.0))
        np.testing.assert_array_equal(engine.mitigator.fallback, [*before, 4.0, 7.0])
        assert before[0] == 33.0

    def test_newcomers_warm_up_before_scoring(self, small_autoencoder):
        fleet = synthesize_fleet(2, 40, seed=5)
        engine = self._engine(small_autoencoder, fleet, threshold=0.01)
        engine.run(fleet[:, :20])
        engine.add_stations(1, data_min=np.zeros(1), data_max=np.full(1, 100.0))
        length = small_autoencoder.config.sequence_length
        extended = np.concatenate(
            [fleet[:, 20:], synthesize_fleet(1, 20, seed=8)], axis=0
        )
        report = engine.run(extended)
        # The newcomer cannot be scored until it holds a full window.
        assert np.isnan(report.scores[2, : length - 1]).all()
        assert np.isfinite(report.scores[2, length - 1 :]).all()

    def test_fixed_mode_newcomers_need_thresholds_to_flag(self, small_autoencoder):
        fleet = synthesize_fleet(2, 20, seed=5)
        scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
        detector = StreamingDetector(small_autoencoder, 2, scaler=scaler, threshold=0.01)
        detector.add_stations(
            1, data_min=np.zeros(1), data_max=np.ones(1)
        )
        assert np.isnan(detector.thresholds[2])
        detector.add_stations(
            1, thresholds=0.5, data_min=np.zeros(1), data_max=np.ones(1)
        )
        assert detector.thresholds[3] == 0.5
        np.testing.assert_array_equal(detector.thresholds[:2], [0.01, 0.01])

    def test_missing_counts_resize_with_fleet(self, small_autoencoder):
        fleet = synthesize_fleet(2, 20, seed=5)
        scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
        detector = StreamingDetector(
            small_autoencoder, 2, scaler=scaler, threshold=0.5, missing="impute"
        )
        tick = fleet[:, 0].copy()
        tick[1] = np.nan
        detector.process_tick(tick)
        detector.add_stations(1, data_min=np.zeros(1), data_max=np.ones(1))
        np.testing.assert_array_equal(detector.missing_counts, [0, 1, 0])
        detector.drop_stations([0])
        np.testing.assert_array_equal(detector.missing_counts, [1, 0])
