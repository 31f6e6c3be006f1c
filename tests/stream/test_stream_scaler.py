"""Tests for the fixed-bounds per-station MinMax scaler."""

import numpy as np
import pytest

from repro.data.scaling import MinMaxScaler
from repro.stream.scaler import StreamingMinMaxScaler


class TestStreamingMinMaxScaler:
    def test_batch_scaler_bounds_give_bit_identical_transform(self):
        """One batch scaler per station, its bounds fed through
        ``from_bounds``: the streaming transform is the batch transform
        bit for bit, per tick, per block and over a whole history."""
        rng = np.random.default_rng(1)
        series = np.stack([rng.random(40) * scale for scale in (10, 100)])
        batch_scalers = [MinMaxScaler().fit(s) for s in series]
        streaming = StreamingMinMaxScaler.from_bounds(
            [b.data_min_[0] for b in batch_scalers], [b.data_max_[0] for b in batch_scalers]
        )
        expected = np.stack([b.transform(s) for b, s in zip(batch_scalers, series, strict=True)])
        np.testing.assert_array_equal(streaming.transform(series[:, 7]), expected[:, 7])
        np.testing.assert_array_equal(streaming.transform_block(series[:, 5:9]), expected[:, 5:9])
        np.testing.assert_array_equal(streaming.transform_fleet(series), expected)

    def test_constant_station_maps_to_lower_bound(self):
        streaming = StreamingMinMaxScaler.from_bounds([4.0], [4.0])
        np.testing.assert_array_equal(streaming.transform(np.array([4.0])), [0.0])

    def test_partial_fit_names_are_a_no_op(self):
        """Bounds are fixed: every fit name returns the scaler untouched."""
        scaler = StreamingMinMaxScaler.from_bounds([1.0, 2.0], [3.0, 4.0])
        assert scaler.partial_fit(np.array([100.0, -100.0])) is scaler
        assert scaler.partial_fit_checked(np.array([100.0]), np.array([0])) is scaler
        assert scaler.partial_fit_block(np.full((2, 3), 100.0)) is scaler
        assert scaler.partial_fit_block_checked(np.full((2, 3), -9.0), np.arange(2)) is scaler
        np.testing.assert_array_equal(scaler.data_min_, [1.0, 2.0])
        np.testing.assert_array_equal(scaler.data_max_, [3.0, 4.0])

    def test_tick_and_block_names_share_one_transform(self):
        scaler = StreamingMinMaxScaler.from_bounds([0.0, 10.0], [10.0, 30.0])
        values = np.array([5.0, 40.0])
        stations = np.arange(2)
        expected = scaler.transform_block(values[:, None])[:, 0]
        np.testing.assert_array_equal(expected, [0.5, 1.5])
        np.testing.assert_array_equal(scaler.transform(values), expected)
        np.testing.assert_array_equal(scaler.ingest_tick_checked(values, stations), expected)
        np.testing.assert_array_equal(
            scaler.transform_block_fixed_checked(values[:, None], stations)[:, 0], expected
        )

    def test_partial_station_transform(self):
        streaming = StreamingMinMaxScaler.from_bounds([0.0, 1.0, 0.0], [1.0, 9.0, 1.0])
        assert streaming.transform(np.array([5.0]), stations=np.array([1]))[0] == 0.5

    def test_transform_fleet_matches_per_tick_transform(self):
        rng = np.random.default_rng(3)
        fleet = rng.random((4, 25)) * 40
        scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
        per_tick = np.stack(
            [scaler.transform(fleet[:, t]) for t in range(fleet.shape[1])], axis=1
        )
        np.testing.assert_array_equal(scaler.transform_fleet(fleet), per_tick)

    def test_transform_fleet_constant_station(self):
        scaler = StreamingMinMaxScaler.from_bounds([5.0, 0.0], [5.0, 10.0])
        scaled = scaler.transform_fleet(np.array([[5.0, 5.0], [0.0, 10.0]]))
        np.testing.assert_array_equal(scaled, [[0.0, 0.0], [0.0, 1.0]])

    def test_transform_fleet_shape_validation(self):
        scaler = StreamingMinMaxScaler.from_bounds([0.0], [1.0])
        with pytest.raises(ValueError, match="fleet must be"):
            scaler.transform_fleet(np.zeros((2, 5)))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one station"):
            StreamingMinMaxScaler.from_bounds([], [])
        with pytest.raises(ValueError, match="feature_range"):
            StreamingMinMaxScaler.from_bounds([0.0], [1.0], feature_range=(1.0, 1.0))
        scaler = StreamingMinMaxScaler.from_bounds([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="expected 2 values"):
            scaler.transform(np.zeros(3))
        three = StreamingMinMaxScaler.from_bounds(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="duplicate"):
            three.transform(np.array([1.0, 2.0]), stations=np.array([0, 0]))


BAD_BOUNDS = [
    pytest.param([np.nan], [1.0], id="nan-min"),
    pytest.param([0.0], [np.nan], id="nan-max"),
    pytest.param([-np.inf], [1.0], id="neg-inf-min"),
    pytest.param([0.0], [np.inf], id="inf-max"),
    pytest.param([2.0], [1.0], id="inverted"),
    pytest.param([-1e308], [1e308], id="overflowing-span"),
    pytest.param([0.0], [1e-320], id="subnormal-span"),
]


class TestBoundsValidation:
    """Bounds are checked wherever they enter; a refusal changes nothing."""

    @pytest.mark.parametrize(("data_min", "data_max"), BAD_BOUNDS)
    def test_constructor_rejects(self, data_min, data_max):
        with pytest.raises(ValueError, match="data_min/data_max"):
            StreamingMinMaxScaler.from_bounds(data_min, data_max)

    @pytest.mark.parametrize(("data_min", "data_max"), BAD_BOUNDS)
    def test_add_stations_rejects_and_changes_nothing(self, data_min, data_max):
        scaler = StreamingMinMaxScaler.from_bounds([0.0], [1.0])
        with pytest.raises(ValueError, match="data_min/data_max"):
            scaler.add_stations(1, data_min=data_min, data_max=data_max)
        assert scaler.n_stations == 1
        np.testing.assert_array_equal(scaler.data_min_, [0.0])
        np.testing.assert_array_equal(scaler.data_max_, [1.0])

    @pytest.mark.parametrize(("data_min", "data_max"), BAD_BOUNDS)
    def test_load_state_dict_rejects_and_changes_nothing(self, data_min, data_max):
        scaler = StreamingMinMaxScaler.from_bounds([0.0], [1.0])
        state = {"data_min": np.array(data_min), "data_max": np.array(data_max)}
        with pytest.raises(ValueError, match="data_min/data_max"):
            scaler.load_state_dict(state)
        np.testing.assert_array_equal(scaler.data_min_, [0.0])
        np.testing.assert_array_equal(scaler.data_max_, [1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same number"):
            StreamingMinMaxScaler.from_bounds([0.0, 1.0], [2.0])
        scaler = StreamingMinMaxScaler.from_bounds([0.0], [1.0])
        with pytest.raises(ValueError, match="each hold 2 values"):
            scaler.add_stations(2, data_min=[0.0], data_max=[1.0])

    def test_add_stations_requires_both_bounds(self):
        scaler = StreamingMinMaxScaler.from_bounds([0.0], [1.0])
        with pytest.raises(ValueError, match="both data_min and data_max"):
            scaler.add_stations(1, data_min=[0.0], data_max=None)
        with pytest.raises(ValueError, match="both data_min and data_max"):
            scaler.add_stations(1, data_min=None, data_max=None)

    def test_bounds_are_copied(self):
        data_min, data_max = np.array([0.0]), np.array([1.0])
        scaler = StreamingMinMaxScaler.from_bounds(data_min, data_max)
        data_min[0] = 0.5
        np.testing.assert_array_equal(scaler.data_min_, [0.0])
