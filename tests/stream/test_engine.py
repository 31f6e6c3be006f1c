"""Tests for the stream replay engine and its scenario adapters."""

import numpy as np
import pytest

from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.attacks import AttackScenario, DDoSVolumeAttack
from repro.stream.detector import StreamingDetector
from repro.stream.engine import (
    StreamReplayEngine,
    attack_fleet,
    synthesize_fleet,
)
from repro.stream.mitigation import HoldLastGoodMitigator
from repro.stream.scaler import StreamingMinMaxScaler


@pytest.fixture(scope="module")
def small_autoencoder():
    config = AutoencoderConfig(
        sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
    )
    return LSTMAutoencoder(config, seed=11)


def _make_detector(autoencoder, fleet):
    scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
    detector = StreamingDetector(autoencoder, fleet.shape[0], scaler=scaler)
    detector.calibrate(fleet)
    return detector


class TestStreamReplayEngine:
    def test_report_shapes_and_throughput(self, small_autoencoder):
        fleet = synthesize_fleet(3, 60, seed=4)
        engine = StreamReplayEngine(_make_detector(small_autoencoder, fleet))
        report = engine.run(fleet)
        assert report.flags.shape == fleet.shape
        assert report.scores.shape == fleet.shape
        assert report.mitigated.shape == fleet.shape
        assert report.latencies.shape == (60,)
        assert report.ticks_per_second > 0
        assert report.readings_per_second == pytest.approx(
            3 * report.ticks_per_second
        )
        assert report.metrics is None
        assert "throughput" in report.summary()

    def test_mitigation_replaces_flagged_values_only(self, small_autoencoder):
        fleet = synthesize_fleet(2, 80, seed=9)
        detector = _make_detector(small_autoencoder, fleet)
        engine = StreamReplayEngine(detector, mitigator="hold_last_good")
        report = engine.run(fleet)
        untouched = ~report.flags
        np.testing.assert_array_equal(report.mitigated[untouched], fleet[untouched])

    def test_metrics_computed_with_labels(self, small_autoencoder, tiny_clients):
        scenario = AttackScenario([DDoSVolumeAttack()], name="engine-test")
        attacked, labels, names = attack_fleet(tiny_clients, scenario, seed=5)
        normal = np.stack([client.series for client in tiny_clients])
        detector = _make_detector(small_autoencoder, normal)
        report = StreamReplayEngine(detector, HoldLastGoodMitigator(len(names))).run(
            attacked, labels, names
        )
        assert report.metrics is not None
        assert 0.0 <= report.metrics.precision <= 1.0
        assert 0.0 <= report.metrics.false_positive_rate <= 1.0
        assert "detection:" in report.summary()

    def test_spike_is_repaired_to_the_held_value(self, small_autoencoder):
        length = small_autoencoder.config.sequence_length
        baseline = float(
            small_autoencoder.window_errors(np.full((1, length, 1), 0.5))[0]
        )
        n_ticks = 4 * length
        fleet = np.full((1, n_ticks), 0.5)
        fleet[0, 2 * length] = 50.0  # one huge spike mid-stream
        detector = StreamingDetector(small_autoencoder, 1, threshold=baseline * 1.5)
        report = StreamReplayEngine(detector, mitigator="hold_last_good").run(fleet)
        assert report.flags[0, 2 * length]
        assert report.mitigated[0, 2 * length] == 0.5

    def test_no_anchor_mitigation_wired_from_scaler(self, small_autoencoder):
        """Regression: a station attacked on its very first tick must
        not leak the attacked value downstream as "mitigated" — the
        engine wires the policy's fallback to the scaler's data_min_."""
        length = small_autoencoder.config.sequence_length
        n_ticks = 2 * length
        fleet = np.full((1, n_ticks), 50.0)
        fleet[0, 0] = 500.0  # attacked from the very first reading
        scaler = StreamingMinMaxScaler.from_bounds([10.0], [60.0])
        detector = StreamingDetector(small_autoencoder, 1, scaler=scaler)
        engine = StreamReplayEngine(detector, mitigator="hold_last_good")
        np.testing.assert_array_equal(engine.mitigator.fallback, [10.0])
        # Force a first-tick flag directly through the policy: the
        # repair must be the scaler floor, not the attacked 500.0.
        out = engine.mitigator.mitigate(fleet[:, 0], np.array([True]))
        assert out[0] == 10.0

    def test_explicit_fallback_wins_over_scaler_wiring(self, small_autoencoder):
        scaler = StreamingMinMaxScaler.from_bounds([10.0], [60.0])
        detector = StreamingDetector(small_autoencoder, 1, scaler=scaler)
        mitigator = HoldLastGoodMitigator(1, fallback=33.0)
        engine = StreamReplayEngine(detector, mitigator=mitigator)
        np.testing.assert_array_equal(engine.mitigator.fallback, [33.0])

    def test_shape_validation(self, small_autoencoder):
        fleet = synthesize_fleet(2, 40, seed=1)
        engine = StreamReplayEngine(_make_detector(small_autoencoder, fleet))
        with pytest.raises(ValueError, match="fleet must be"):
            engine.run(fleet[:1])
        with pytest.raises(ValueError, match="labels shape"):
            engine.run(fleet, labels=np.zeros((2, 39), dtype=bool))
        with pytest.raises(ValueError, match="station_names"):
            engine.run(fleet, labels=np.zeros_like(fleet, dtype=bool), station_names=["x"])


class TestOneMitigationLoop:
    """Mitigation repairs the output stream only; detection never sees it."""

    @pytest.mark.parametrize("block_size", [1, 8])
    @pytest.mark.parametrize("policy", ["hold_last_good", "causal_linear", "seasonal_hold"])
    def test_decisions_do_not_depend_on_the_mitigator(
        self, small_autoencoder, tiny_clients, policy, block_size
    ):
        scenario = AttackScenario([DDoSVolumeAttack()], name="one-loop")
        fleet, _labels, _names = attack_fleet(tiny_clients, scenario, seed=5, dropout_rate=0.1)

        def run(mitigator):
            detector = StreamingDetector(
                small_autoencoder,
                fleet.shape[0],
                scaler=StreamingMinMaxScaler.from_bounds(
                    np.nanmin(fleet, axis=1), np.nanmax(fleet, axis=1)
                ),
                threshold=0.1,
                missing="impute",
            )
            return StreamReplayEngine(detector, mitigator).run(fleet, block_size=block_size)

        mitigated, detected = run(policy), run(None)
        assert detected.flags.any() and detected.missing.any()
        np.testing.assert_array_equal(mitigated.flags, detected.flags)
        np.testing.assert_array_equal(mitigated.scores, detected.scores)
        assert not np.array_equal(mitigated.mitigated, detected.mitigated, equal_nan=True)

    def test_closed_loop_request_is_rejected(self, small_autoencoder):
        fleet = synthesize_fleet(2, 20, seed=6)
        with pytest.raises(ValueError, match="closed mitigation loop was removed"):
            StreamReplayEngine(
                _make_detector(small_autoencoder, fleet), "hold_last_good", feedback=True
            )


class TestFleetAdapters:
    def test_attack_fleet_matches_scenario_apply(self, tiny_clients):
        scenario = AttackScenario([DDoSVolumeAttack()], name="adapter-test")
        attacked, labels, names = attack_fleet(tiny_clients, scenario, seed=3)
        outcomes = scenario.apply(tiny_clients, seed=3)
        assert names == [client.name for client in tiny_clients]
        for j, client in enumerate(tiny_clients):
            np.testing.assert_array_equal(
                attacked[j], outcomes[client.name].client.series
            )
            np.testing.assert_array_equal(labels[j], outcomes[client.name].labels)

    def test_attack_fleet_rejects_mismatched_lengths(self, tiny_clients):
        clients = list(tiny_clients)
        clients[0] = clients[0].with_series(clients[0].series[:-5])
        with pytest.raises(ValueError, match="share one series length"):
            attack_fleet(clients, AttackScenario([DDoSVolumeAttack()]), seed=0)

    def test_synthesize_fleet_shape_and_determinism(self):
        fleet_a = synthesize_fleet(5, 48, seed=13)
        fleet_b = synthesize_fleet(5, 48, seed=13)
        assert fleet_a.shape == (5, 48)
        np.testing.assert_array_equal(fleet_a, fleet_b)
        assert (fleet_a >= 0).all()
        # Stations get independent noise: rows differ even within one zone.
        assert not np.array_equal(fleet_a[0], fleet_a[3])

    def test_synthesize_fleet_validation(self):
        with pytest.raises(ValueError, match="n_stations"):
            synthesize_fleet(0, 10)
        with pytest.raises(ValueError, match="n_ticks"):
            synthesize_fleet(2, 0)

class TestZeroTickReport:
    """Regression: degenerate zero-tick replays must not divide by zero.

    An empty replay (station churn drained the queue, a guard clause
    returned early, a smoke profile sized to nothing) used to make
    ``ticks_per_second`` raise and ``latency_quantile`` blow up inside
    ``np.percentile``; now it reports zero throughput, NaN latency and a
    summary that says so.
    """

    def test_empty_replay_reports_gracefully(self, small_autoencoder):
        fleet = synthesize_fleet(3, 20, seed=2)
        engine = StreamReplayEngine(_make_detector(small_autoencoder, fleet))
        report = engine.run(fleet[:, :0])
        assert report.n_ticks == 0
        assert report.ticks_per_second == 0.0
        assert report.readings_per_second == 0.0
        assert np.isnan(report.latency_quantile(50))
        assert np.isnan(report.latency_quantile(95))
        summary = report.summary()
        assert "no ticks streamed" in summary
        assert "throughput" not in summary

    def test_zero_elapsed_with_ticks_is_unmeasurably_fast(self, small_autoencoder):
        from repro.stream.engine import StreamReport

        report = StreamReport(
            n_stations=2,
            n_ticks=5,
            elapsed_seconds=0.0,
            latencies=np.zeros(5),
            flags=np.zeros((2, 5), dtype=bool),
            scores=np.zeros((2, 5)),
            mitigated=np.zeros((2, 5)),
            missing=np.zeros((2, 5), dtype=bool),
        )
        assert report.ticks_per_second == float("inf")


class TestIteratorFleets:
    """run() over a lazy per-tick source == run() over the matrix."""

    def test_generator_matches_array_tick_mode(self, small_autoencoder):
        fleet = synthesize_fleet(3, 25, seed=31)
        reference = StreamReplayEngine(
            _make_detector(small_autoencoder, fleet), "hold_last_good"
        ).run(fleet)
        streamed = StreamReplayEngine(
            _make_detector(small_autoencoder, fleet), "hold_last_good"
        ).run(fleet[:, tick] for tick in range(fleet.shape[1]))
        np.testing.assert_array_equal(reference.flags, streamed.flags)
        np.testing.assert_array_equal(reference.scores, streamed.scores)
        np.testing.assert_array_equal(reference.mitigated, streamed.mitigated)
        np.testing.assert_array_equal(reference.missing, streamed.missing)

    def test_generator_matches_array_block_mode_with_partial_tail(
        self, small_autoencoder
    ):
        fleet = synthesize_fleet(3, 26, seed=32)  # 26 = 3 blocks of 8 + 2
        reference = StreamReplayEngine(
            _make_detector(small_autoencoder, fleet), "hold_last_good"
        ).run(fleet, block_size=8)
        streamed = StreamReplayEngine(
            _make_detector(small_autoencoder, fleet), "hold_last_good"
        ).run((fleet[:, tick] for tick in range(fleet.shape[1])), block_size=8)
        assert streamed.n_ticks == 26
        np.testing.assert_array_equal(reference.flags, streamed.flags)
        np.testing.assert_array_equal(reference.scores, streamed.scores)
        np.testing.assert_array_equal(reference.mitigated, streamed.mitigated)

    def test_empty_iterator_reports_zero_ticks(self, small_autoencoder):
        fleet = synthesize_fleet(2, 20, seed=33)
        engine = StreamReplayEngine(_make_detector(small_autoencoder, fleet))
        report = engine.run(iter([]))
        assert report.n_ticks == 0
        assert report.flags.shape == (2, 0)

    def test_labels_require_materialized_fleet(self, small_autoencoder):
        fleet = synthesize_fleet(2, 20, seed=34)
        engine = StreamReplayEngine(_make_detector(small_autoencoder, fleet))
        with pytest.raises(ValueError, match="materialized"):
            engine.run(iter([fleet[:, 0]]), labels=np.zeros((2, 1), dtype=bool))

    def test_non_iterable_fleet_raises_type_error(self, small_autoencoder):
        fleet = synthesize_fleet(2, 20, seed=35)
        engine = StreamReplayEngine(_make_detector(small_autoencoder, fleet))
        with pytest.raises(TypeError, match="iterable"):
            engine.run(object())


class TestInterruptedRun:
    """A mid-run failure finalizes the completed ticks, not nothing."""

    @staticmethod
    def _failing_source(fleet, fail_after, exc_factory):
        for tick in range(fleet.shape[1]):
            if tick == fail_after:
                raise exc_factory()
            yield fleet[:, tick]

    def test_source_exception_yields_partial_report(self, small_autoencoder):
        from repro.stream.engine import StreamInterrupted

        fleet = synthesize_fleet(3, 30, seed=41)
        engine = StreamReplayEngine(
            _make_detector(small_autoencoder, fleet), "hold_last_good"
        )
        with pytest.raises(StreamInterrupted) as excinfo:
            engine.run(
                self._failing_source(fleet, 11, lambda: RuntimeError("feed died"))
            )
        report = excinfo.value.report
        assert report.n_ticks == 11
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "11 completed" in str(excinfo.value)
        reference = StreamReplayEngine(
            _make_detector(small_autoencoder, fleet), "hold_last_good"
        ).run(fleet[:, :11])
        np.testing.assert_array_equal(report.flags, reference.flags)
        np.testing.assert_array_equal(report.scores, reference.scores)
        np.testing.assert_array_equal(report.mitigated, reference.mitigated)
        assert report.latencies.shape == (11,)
        assert np.isfinite(report.latency_quantile(50))

    def test_keyboard_interrupt_is_converted_and_chained(self, small_autoencoder):
        from repro.stream.engine import StreamInterrupted

        fleet = synthesize_fleet(2, 20, seed=42)
        engine = StreamReplayEngine(_make_detector(small_autoencoder, fleet))
        with pytest.raises(StreamInterrupted) as excinfo:
            engine.run(self._failing_source(fleet, 5, KeyboardInterrupt))
        assert isinstance(excinfo.value.__cause__, KeyboardInterrupt)
        assert excinfo.value.report.n_ticks == 5

    def test_block_mode_drops_the_partial_pending_block(self, small_autoencoder):
        """Ticks delivered but not yet through the detector are not in
        the report: completed means decided."""
        from repro.stream.engine import StreamInterrupted

        fleet = synthesize_fleet(2, 30, seed=43)
        engine = StreamReplayEngine(_make_detector(small_autoencoder, fleet))
        with pytest.raises(StreamInterrupted) as excinfo:
            engine.run(
                self._failing_source(fleet, 11, lambda: RuntimeError("boom")),
                block_size=4,
            )
        assert excinfo.value.report.n_ticks == 8  # 2 full blocks of 4

    def test_materialized_fleet_pipeline_failure_also_finalizes(
        self, small_autoencoder, monkeypatch
    ):
        from repro.stream.engine import StreamInterrupted

        fleet = synthesize_fleet(2, 20, seed=44)
        engine = StreamReplayEngine(_make_detector(small_autoencoder, fleet))
        original = engine.detector.process_block
        calls = {"n": 0}

        def flaky(values, stations=None):
            if calls["n"] == 7:
                raise RuntimeError("inference backend fell over")
            calls["n"] += 1
            return original(values, stations)

        monkeypatch.setattr(engine.detector, "process_block", flaky)
        with pytest.raises(StreamInterrupted) as excinfo:
            engine.run(fleet)
        report = excinfo.value.report
        assert report.n_ticks == 7
        assert report.flags.shape == (2, 7)
        reference = StreamReplayEngine(
            _make_detector(small_autoencoder, fleet)
        ).run(fleet[:, :7])
        np.testing.assert_array_equal(report.flags, reference.flags)


class TestConstruction:
    def test_default_has_no_mitigator(self, small_autoencoder):
        fleet = synthesize_fleet(3, 40, seed=30)
        engine = StreamReplayEngine(_make_detector(small_autoencoder, fleet))
        assert engine.mitigator is None
        assert engine.n_stations == 3

    def test_mitigator_name_resolves_to_policy(self, small_autoencoder):
        fleet = synthesize_fleet(3, 40, seed=31)
        engine = StreamReplayEngine(_make_detector(small_autoencoder, fleet), "hold_last_good")
        assert isinstance(engine.mitigator, HoldLastGoodMitigator)


class TestStepParity:
    def test_step_tick_matches_step_block_one(self, small_autoencoder):
        fleet = synthesize_fleet(3, 24, seed=34)
        by_tick = StreamReplayEngine(_make_detector(small_autoencoder, fleet), "hold_last_good")
        by_block = StreamReplayEngine(_make_detector(small_autoencoder, fleet), "hold_last_good")
        start = by_tick.detector.tick
        for t in range(fleet.shape[1]):
            tick_out = by_tick.step_tick(fleet[:, t])
            block_out = by_block.step_block(fleet[:, t : t + 1])
            for a, b in zip(tick_out, block_out, strict=True):
                assert np.array_equal(a, b[:, 0], equal_nan=True)
        assert by_tick.detector.tick == by_block.detector.tick == start + fleet.shape[1]
