"""The one engine's stepping contract, held bit-for-bit.

:class:`StreamReplayEngine` exposes three ways to feed readings —
:meth:`run`, :meth:`step_block` and :meth:`step_tick` — and two ways to
reshape the fleet mid-stream — :meth:`add_stations` and
:meth:`drop_stations`.  They share one loop body, so:

- a loop of ``step_block`` calls reproduces ``run`` at the same block
  size exactly, with and without mitigation and with adaptive
  thresholds;
- a rejected block or a rejected churn request leaves the engine as it
  was, so the stream continues exactly as if it had never been sent;
- a drop renumbers survivors compactly and an add never moves an
  existing station, each keeping its state bit for bit;
- a churned fleet checkpoints and resumes like any other.

Every comparison is ``array_equal`` between runs that push the same
number of rows through the forward pass, so the parity holds on every
BLAS kernel, not only on the ones whose per-row results do not depend on
the batch's row count.
"""

import numpy as np
import pytest

from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.engine import synthesize_fleet

from .conftest import build_fleet_engine

N_STATIONS = 9
N_TICKS = 30
POLICIES = [None, "hold_last_good", "causal_linear", "seasonal_hold"]
OUTPUTS = ("flags", "scores", "missing", "mitigated")


@pytest.fixture(scope="module")
def train_fleet():
    return synthesize_fleet(N_STATIONS, 60, seed=31)


@pytest.fixture(scope="module")
def live_fleet():
    # 5% NaN dropout: the missing/impute path is part of every run.
    return synthesize_fleet(N_STATIONS, N_TICKS, seed=32, dropout_rate=0.05)


def _step_blocks(engine, fleet, block_size):
    """Feed ``fleet`` through ``step_block`` in ``block_size`` columns."""
    outs = [
        engine.step_block(fleet[:, t : t + block_size])
        for t in range(0, fleet.shape[1], block_size)
    ]
    return tuple(np.concatenate(column, axis=1) for column in zip(*outs, strict=True))


def _assert_outputs_equal(got, expected):
    for name, a, b in zip(OUTPUTS, got, expected, strict=True):
        assert np.array_equal(a, b, equal_nan=True), name


def _report_outputs(report):
    return tuple(getattr(report, name) for name in OUTPUTS)


class TestRunIsTheStepLoop:
    @pytest.mark.parametrize("block_size", [1, 4, 7, N_TICKS])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_step_block_loop_matches_run(
        self, small_autoencoder, train_fleet, live_fleet, policy, block_size
    ):
        """``run`` is the ``step_block`` loop, partial tail block included."""
        reference = build_fleet_engine(small_autoencoder, train_fleet, policy).run(
            live_fleet, block_size=block_size
        )
        engine = build_fleet_engine(small_autoencoder, train_fleet, policy)
        _assert_outputs_equal(
            _step_blocks(engine, live_fleet, block_size), _report_outputs(reference)
        )

    @pytest.mark.parametrize("block_size", [1, 4, 7, N_TICKS])
    def test_adaptive_step_block_loop_matches_run(
        self, small_autoencoder, train_fleet, live_fleet, block_size
    ):
        """P² thresholds adapt per block the same way in both entry points."""
        reference = build_fleet_engine(small_autoencoder, train_fleet, adaptive=True).run(
            live_fleet, block_size=block_size
        )
        engine = build_fleet_engine(small_autoencoder, train_fleet, adaptive=True)
        _assert_outputs_equal(
            _step_blocks(engine, live_fleet, block_size), _report_outputs(reference)
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_step_tick_loop_matches_tick_mode_run(
        self, small_autoencoder, train_fleet, live_fleet, policy
    ):
        reference = build_fleet_engine(small_autoencoder, train_fleet, policy).run(live_fleet)
        engine = build_fleet_engine(small_autoencoder, train_fleet, policy)
        outs = [engine.step_tick(live_fleet[:, t]) for t in range(N_TICKS)]
        got = tuple(np.stack(column, axis=1) for column in zip(*outs, strict=True))
        _assert_outputs_equal(got, _report_outputs(reference))

    def test_tick_counter_tracks_every_entry_point(
        self, small_autoencoder, train_fleet, live_fleet
    ):
        engine = build_fleet_engine(small_autoencoder, train_fleet)
        start = engine.detector.tick
        engine.step_tick(live_fleet[:, 0])
        engine.step_block(live_fleet[:, 1:4])
        engine.run(live_fleet[:, 4:9], block_size=2)
        assert engine.detector.tick == start + 9


def _bad_input(kind, live_fleet, t):
    """A block or tick the engine must reject at stream position ``t``."""
    if kind == "block_missing_a_station":
        return "step_block", live_fleet[:-1, t : t + 4]
    if kind == "block_with_an_extra_station":
        return "step_block", np.vstack([live_fleet[:, t : t + 4], live_fleet[:1, t : t + 4]])
    if kind == "empty_block":
        return "step_block", live_fleet[:, t:t]
    if kind == "three_dimensional_block":
        return "step_block", live_fleet[:, t : t + 4, None]
    if kind == "tick_missing_a_station":
        return "step_tick", live_fleet[:-1, t]
    if kind == "non_numeric_block":
        return "step_block", np.full((N_STATIONS, 4), "reading")
    if kind == "nan_when_missing_readings_raise":
        block = live_fleet[:, t : t + 4].copy()
        block[3, 1] = np.nan
        return "step_block", block
    raise AssertionError(kind)


class TestRejectedInputLeavesEngineIntact:
    @pytest.mark.parametrize(
        "kind",
        [
            "block_missing_a_station",
            "block_with_an_extra_station",
            "empty_block",
            "three_dimensional_block",
            "tick_missing_a_station",
            "non_numeric_block",
            "nan_when_missing_readings_raise",
        ],
    )
    def test_stream_continues_as_if_never_sent(
        self, small_autoencoder, train_fleet, live_fleet, kind
    ):
        """A rejected call raises ``ValueError`` and changes nothing: the
        rest of the stream matches an engine that never saw it."""
        engine = build_fleet_engine(small_autoencoder, train_fleet)
        reference = build_fleet_engine(small_autoencoder, train_fleet)
        if kind == "nan_when_missing_readings_raise":
            engine.detector.missing = reference.detector.missing = "raise"
            clean = np.nan_to_num(live_fleet, nan=float(np.nanmean(live_fleet)))
        else:
            clean = live_fleet
        _assert_outputs_equal(
            _step_blocks(engine, clean[:, :8], 4), _step_blocks(reference, clean[:, :8], 4)
        )
        method, bad = _bad_input(kind, live_fleet, 8)
        with pytest.raises(ValueError):
            getattr(engine, method)(bad)
        assert engine.detector.tick == reference.detector.tick
        _assert_outputs_equal(
            _step_blocks(engine, clean[:, 8:], 4), _step_blocks(reference, clean[:, 8:], 4)
        )


def _bad_churn(kind):
    """``(method, args, kwargs)`` of a churn request the engine must reject."""
    bounds = {"data_min": np.zeros(2), "data_max": np.full(2, 60.0)}
    if kind == "drop_every_station":
        return "drop_stations", (np.arange(N_STATIONS),), {}
    if kind == "drop_duplicate_station":
        return "drop_stations", ([2, 2],), {}
    if kind == "drop_out_of_range":
        return "drop_stations", ([N_STATIONS],), {}
    if kind == "drop_negative_index":
        return "drop_stations", ([-1],), {}
    if kind == "add_zero":
        return "add_stations", (0,), {}
    if kind == "add_negative":
        return "add_stations", (-2,), {}
    if kind == "add_to_frozen_scaler_without_bounds":
        return "add_stations", (2,), {"thresholds": 0.5}
    if kind == "add_with_wrong_threshold_count":
        return "add_stations", (2,), {"thresholds": np.ones(3), **bounds}
    if kind == "add_with_wrong_bound_count":
        return "add_stations", (2,), {"data_min": np.zeros(3), "data_max": np.ones(3)}
    if kind == "add_with_only_one_bound":
        return "add_stations", (2,), {"data_min": np.zeros(2)}
    raise AssertionError(kind)


class TestChurn:
    @pytest.mark.parametrize(
        "kind",
        [
            "drop_every_station",
            "drop_duplicate_station",
            "drop_out_of_range",
            "drop_negative_index",
            "add_zero",
            "add_negative",
            "add_to_frozen_scaler_without_bounds",
            "add_with_wrong_threshold_count",
            "add_with_wrong_bound_count",
            "add_with_only_one_bound",
        ],
    )
    def test_rejected_churn_changes_nothing(
        self, small_autoencoder, train_fleet, live_fleet, kind
    ):
        engine = build_fleet_engine(small_autoencoder, train_fleet)
        reference = build_fleet_engine(small_autoencoder, train_fleet)
        _step_blocks(engine, live_fleet[:, :8], 4)
        _step_blocks(reference, live_fleet[:, :8], 4)
        method, args, kwargs = _bad_churn(kind)
        with pytest.raises(ValueError):
            getattr(engine, method)(*args, **kwargs)
        assert engine.n_stations == engine.mitigator.n_stations == N_STATIONS
        _assert_outputs_equal(
            _step_blocks(engine, live_fleet[:, 8:], 4),
            _step_blocks(reference, live_fleet[:, 8:], 4),
        )

    @pytest.mark.parametrize("order", ["add_then_drop", "drop_then_add"])
    @pytest.mark.parametrize("block_size", [1, 4])
    def test_churned_fleet_resumes_bit_exact(
        self, small_autoencoder, train_fleet, live_fleet, tmp_path, order, block_size
    ):
        """Churn, checkpoint, restore: the restored engine continues
        exactly like the engine that was never stopped."""
        grow = {
            "thresholds": np.asarray([0.5, 0.9]),
            "data_min": np.zeros(2),
            "data_max": np.full(2, 60.0),
        }
        drop = [0, 4]

        def churn(engine):
            for op in order.split("_then_"):
                if op == "add":
                    engine.add_stations(2, **grow)
                else:
                    engine.drop_stations(drop)

        uninterrupted = build_fleet_engine(small_autoencoder, train_fleet)
        stopped = build_fleet_engine(small_autoencoder, train_fleet)
        for engine in (uninterrupted, stopped):
            _step_blocks(engine, live_fleet[:, :12], block_size)
            churn(engine)
        assert stopped.n_stations == N_STATIONS
        restored, _extra = load_checkpoint(save_checkpoint(tmp_path / "ckpt", stopped))
        assert restored.n_stations == N_STATIONS
        later = synthesize_fleet(N_STATIONS, 16, seed=33, dropout_rate=0.05)
        _assert_outputs_equal(
            _step_blocks(restored, later, block_size),
            _step_blocks(uninterrupted, later, block_size),
        )


def _per_station_rows(state: dict, n_stations: int, rows) -> dict:
    """``state`` with every per-station array cut down to ``rows``."""
    return {
        key: value[rows] if getattr(value, "ndim", 0) >= 1 and len(value) == n_stations else value
        for key, value in state.items()
    }


def _assert_states_equal(got: dict, expected: dict) -> None:
    assert got.keys() == expected.keys()
    for key in got:
        assert np.array_equal(got[key], expected[key], equal_nan=True), key


class TestChurnKeepsSurvivorState:
    @pytest.mark.parametrize("drop", [[0], [8], [1, 6], [0, 4, 8], [2, 3, 4, 5]])
    def test_drop_renumbers_survivors_compactly(
        self, small_autoencoder, train_fleet, live_fleet, drop
    ):
        """Station ``j`` becomes ``j - (dropped below j)`` with its
        detector and mitigator state bit for bit."""
        engine = build_fleet_engine(small_autoencoder, train_fleet, adaptive=True)
        _step_blocks(engine, live_fleet[:, :12], 4)
        survivors = np.setdiff1d(np.arange(N_STATIONS), drop)
        detector = _per_station_rows(engine.detector.state_dict(), N_STATIONS, survivors)
        mitigator = _per_station_rows(engine.mitigator.state_dict(), N_STATIONS, survivors)
        engine.drop_stations(drop)
        assert engine.n_stations == engine.mitigator.n_stations == len(survivors)
        _assert_states_equal(engine.detector.state_dict(), detector)
        _assert_states_equal(engine.mitigator.state_dict(), mitigator)

    @pytest.mark.parametrize("n_new", [1, 3])
    def test_add_never_moves_existing_stations(
        self, small_autoencoder, train_fleet, live_fleet, n_new
    ):
        engine = build_fleet_engine(small_autoencoder, train_fleet)
        _step_blocks(engine, live_fleet[:, :12], 4)
        before = engine.detector.state_dict()
        engine.add_stations(
            n_new, thresholds=0.5, data_min=np.zeros(n_new), data_max=np.ones(n_new)
        )
        assert engine.n_stations == engine.mitigator.n_stations == N_STATIONS + n_new
        after = _per_station_rows(
            engine.detector.state_dict(), N_STATIONS + n_new, slice(0, N_STATIONS)
        )
        _assert_states_equal(after, before)
