"""Tests for causal streaming mitigation policies."""

import numpy as np
import pytest

from repro.stream.engine import StreamReplayEngine, synthesize_fleet
from repro.stream.mitigation import (
    CausalLinearMitigator,
    HoldLastGoodMitigator,
    SeasonalHoldMitigator,
    StreamingMitigator,
    get,
)

from .conftest import build_fleet_engine


def _replay(mitigator, values, flags):
    out = np.empty_like(np.asarray(values, dtype=np.float64))
    for t, (value, flag) in enumerate(zip(values, flags, strict=True)):
        out[t] = mitigator.mitigate(np.array([float(value)]), np.array([flag]))[0]
    return out


class TestHoldLastGood:
    def test_holds_through_a_burst(self):
        values = [1.0, 2.0, 50.0, 60.0, 3.0]
        flags = [False, False, True, True, False]
        out = _replay(HoldLastGoodMitigator(1), values, flags)
        np.testing.assert_array_equal(out, [1.0, 2.0, 2.0, 2.0, 3.0])

    def test_flag_before_any_clean_value_passes_through(self):
        out = _replay(HoldLastGoodMitigator(1), [9.0, 1.0], [True, False])
        np.testing.assert_array_equal(out, [9.0, 1.0])

    def test_vectorized_across_stations(self):
        mitigator = HoldLastGoodMitigator(2)
        mitigator.mitigate(np.array([1.0, 10.0]), np.array([False, False]))
        out = mitigator.mitigate(np.array([99.0, 11.0]), np.array([True, False]))
        np.testing.assert_array_equal(out, [1.0, 11.0])


class TestCausalLinear:
    def test_extrapolates_local_trend(self):
        values = [1.0, 2.0, 50.0, 60.0, 5.0]
        flags = [False, False, True, True, False]
        out = _replay(CausalLinearMitigator(1), values, flags)
        # slope = 2 - 1 = 1: burst repaired as 3, 4.
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_slope_capped_after_max_ticks(self):
        mitigator = CausalLinearMitigator(1, max_slope_ticks=2)
        values = [1.0, 2.0] + [99.0] * 5
        flags = [False, False] + [True] * 5
        out = _replay(mitigator, values, flags)
        np.testing.assert_array_equal(out[2:], [3.0, 4.0, 4.0, 4.0, 4.0])

    def test_repairs_floored_at_zero(self):
        values = [5.0, 1.0, 99.0, 99.0, 99.0]
        flags = [False, False, True, True, True]
        out = _replay(CausalLinearMitigator(1), values, flags)
        assert (out >= 0.0).all()


class TestSeasonalHold:
    def test_uses_value_one_period_ago(self):
        period = 4
        mitigator = SeasonalHoldMitigator(1, period=period)
        season = [10.0, 20.0, 30.0, 40.0]
        values = season + [99.0, 21.0, 31.0, 41.0]
        flags = [False] * 4 + [True, False, False, False]
        out = _replay(mitigator, values, flags)
        assert out[4] == 10.0  # same slot last period, not last-good 40.0
        np.testing.assert_array_equal(out[5:], [21.0, 31.0, 41.0])

    def test_falls_back_to_hold_before_full_period(self):
        mitigator = SeasonalHoldMitigator(1, period=10)
        out = _replay(mitigator, [7.0, 99.0], [False, True])
        np.testing.assert_array_equal(out, [7.0, 7.0])


class TestNoAnchorFallback:
    """Regression: a station flagged before ANY clean reading must not
    pass the attacked value through as "mitigated" when a fallback is
    available — tick and block paths alike."""

    def test_hold_last_good_first_tick_attack_uses_fallback(self):
        mitigator = HoldLastGoodMitigator(1, fallback=2.5)
        out = mitigator.mitigate(np.array([99.0]), np.array([True]))
        assert out[0] == 2.5

    def test_hold_last_good_block_first_tick_attack_uses_fallback(self):
        mitigator = HoldLastGoodMitigator(1, fallback=2.5)
        out = mitigator.mitigate_block(
            np.array([[99.0, 88.0, 1.0]]), np.array([[True, True, False]])
        )
        np.testing.assert_array_equal(out[0], [2.5, 2.5, 1.0])

    def test_causal_linear_first_tick_attack_uses_fallback(self):
        mitigator = CausalLinearMitigator(1, fallback=2.5)
        out = mitigator.mitigate(np.array([99.0]), np.array([True]))
        assert out[0] == 2.5

    def test_causal_linear_block_first_tick_attack_uses_fallback(self):
        mitigator = CausalLinearMitigator(1, fallback=2.5)
        out = mitigator.mitigate_block(
            np.array([[99.0, 88.0]]), np.array([[True, True]])
        )
        np.testing.assert_array_equal(out[0], [2.5, 2.5])

    def test_seasonal_hold_first_tick_attack_uses_fallback(self):
        mitigator = SeasonalHoldMitigator(1, period=4, fallback=2.5)
        out = mitigator.mitigate(np.array([99.0]), np.array([True]))
        assert out[0] == 2.5

    def test_tick_and_block_paths_agree_mixed_anchors(self):
        """Same stream through tick replay and one block call: identical
        repairs, including the pre-anchor fallback region."""
        values = [99.0, 88.0, 1.0, 2.0, 77.0, 66.0, 3.0]
        flags = [True, True, False, False, True, True, False]
        for make in (
            lambda: HoldLastGoodMitigator(1, fallback=2.5),
            lambda: CausalLinearMitigator(1, fallback=2.5),
            lambda: SeasonalHoldMitigator(1, period=3, fallback=2.5),
        ):
            tick_out = _replay(make(), values, flags)
            block_out = make().mitigate_block(
                np.array([values]), np.array([flags])
            )[0]
            np.testing.assert_array_equal(tick_out, block_out)

    def test_per_station_fallback_and_unset_passthrough(self):
        mitigator = HoldLastGoodMitigator(2, fallback=[2.5, np.nan])
        out = mitigator.mitigate(np.array([99.0, 99.0]), np.array([True, True]))
        # Station 0 repairs to its fallback; station 1 has none set and
        # keeps the historical raw passthrough.
        np.testing.assert_array_equal(out, [2.5, 99.0])

    def test_set_fallback_broadcasts_and_fallback_stops_after_first_clean(self):
        mitigator = HoldLastGoodMitigator(2).set_fallback(1.0)
        np.testing.assert_array_equal(mitigator.fallback, [1.0, 1.0])
        mitigator.mitigate(np.array([7.0, 8.0]), np.array([False, False]))
        out = mitigator.mitigate(np.array([99.0, 99.0]), np.array([True, True]))
        np.testing.assert_array_equal(out, [7.0, 8.0])


class TestRegistry:
    def test_get_by_name(self):
        assert isinstance(get("hold_last_good", 3), HoldLastGoodMitigator)
        assert isinstance(get("causal_linear", 3), CausalLinearMitigator)
        assert isinstance(get("seasonal_hold", 3), SeasonalHoldMitigator)

    def test_get_passthrough_checks_fleet_size(self):
        mitigator = HoldLastGoodMitigator(3)
        assert get(mitigator, 3) is mitigator
        with pytest.raises(ValueError, match="stations"):
            get(mitigator, 4)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown streaming mitigator"):
            get("nope", 1)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="values/flags"):
            HoldLastGoodMitigator(2).mitigate(np.zeros(3), np.zeros(3, dtype=bool))


class _BlockOnly(StreamingMitigator):
    """A custom policy written against the block contract only."""

    def mitigate_block(self, values, flags):
        values, flags = self._check_block(values, flags)
        return np.where(flags, -1.0, values)


class TestExtensionContract:
    """A policy overrides ``mitigate_block`` or ``mitigate``; the base
    class derives the other (overriding only ``mitigate`` is covered in
    test_stream_block.py and test_checkpoint.py)."""

    def test_block_only_policy_serves_single_ticks(self):
        repaired = _BlockOnly(2).mitigate(np.array([1.0, 2.0]), np.array([True, False]))
        np.testing.assert_array_equal(repaired, [-1.0, 2.0])

    def test_block_only_policy_runs_through_step_tick_and_run(self, small_autoencoder):
        fleet = synthesize_fleet(3, 30, seed=12, dropout_rate=0.05)
        # Calibration history must be finite; the gaps are streamed below.
        history = np.nan_to_num(fleet, nan=np.nanmean(fleet))
        detector = build_fleet_engine(small_autoencoder, history, mitigator=None).detector
        report = StreamReplayEngine(detector, _BlockOnly(3)).run(fleet, block_size=1)
        assert report.flags.any() and report.missing.any()
        repair = report.flags | report.missing
        np.testing.assert_array_equal(report.mitigated, np.where(repair, -1.0, fleet))

        detector = build_fleet_engine(small_autoencoder, history, mitigator=None).detector
        engine = StreamReplayEngine(detector, _BlockOnly(3))
        for t in range(fleet.shape[1]):
            _flags, _scores, _missing, mitigated = engine.step_tick(fleet[:, t])
            np.testing.assert_array_equal(mitigated, report.mitigated[:, t])

    def test_policy_overriding_neither_method_raises_clearly(self):
        class Incomplete(StreamingMitigator):
            pass

        policy = Incomplete(2)
        with pytest.raises(NotImplementedError, match="Incomplete must override"):
            policy.mitigate(np.zeros(2), np.zeros(2, dtype=bool))
        with pytest.raises(NotImplementedError, match="Incomplete must override"):
            policy.mitigate_block(np.zeros((2, 3)), np.zeros((2, 3), dtype=bool))
