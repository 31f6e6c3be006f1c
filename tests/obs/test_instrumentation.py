"""Instrumentation contracts across the stack.

Two promises are regression-tested here:

1. **Observability never changes results** — flags, scores and mitigated
   outputs are bit-identical with the registry on or off, and the
   disabled path resolves the registry exactly once per call and leaves
   no extra allocations behind.
2. **The advertised metrics actually appear** — streaming, checkpoint,
   training, backend-dispatch and federated runs populate the series the
   package docstring promises, with values that reconcile against the
   reports the code already returns.
"""

import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.nn import Dense, Sequential
from repro.nn.backend import resolve_backend
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.detector import StreamingDetector
from repro.stream.engine import StreamReplayEngine, synthesize_fleet
from repro.stream.scaler import StreamingMinMaxScaler


@pytest.fixture(scope="module")
def small_autoencoder():
    config = AutoencoderConfig(
        sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
    )
    return LSTMAutoencoder(config, seed=11)


def _engine(autoencoder, fleet, mitigator="hold_last_good", missing="raise"):
    scaler = StreamingMinMaxScaler.from_bounds(np.nanmin(fleet, axis=1), np.nanmax(fleet, axis=1))
    detector = StreamingDetector(
        autoencoder, fleet.shape[0], scaler=scaler, threshold=0.01, missing=missing
    )
    return StreamReplayEngine(detector, mitigator=mitigator)


class TestParity:
    """Enabling observability must not move a single output bit."""

    @pytest.mark.parametrize("block_size", [1, 16])
    def test_run_outputs_bit_identical_on_vs_off(self, small_autoencoder, block_size):
        fleet = synthesize_fleet(4, 96, seed=13)
        nan_mask = np.random.default_rng(5).random(fleet.shape) < 0.05
        fleet[nan_mask] = np.nan

        obs.disable()
        engine_off = _engine(small_autoencoder, fleet, missing="impute")
        off = engine_off.run(fleet, block_size=block_size)
        obs.enable(obs.MetricsRegistry())
        engine_on = _engine(small_autoencoder, fleet, missing="impute")
        on = engine_on.run(fleet, block_size=block_size)

        np.testing.assert_array_equal(off.flags, on.flags)
        np.testing.assert_array_equal(off.scores, on.scores)
        np.testing.assert_array_equal(off.mitigated, on.mitigated)
        np.testing.assert_array_equal(off.missing, on.missing)


class TestDisabledPath:
    """With the registry off, instrumentation must be near-free."""

    def test_registry_resolutions_do_not_scale_with_block_width(
        self, small_autoencoder, monkeypatch, obs_disabled
    ):
        """The hot path fetches the registry a constant number of times
        per call (detector once + one per backend dispatch) — never per
        tick or per station inside the block."""
        fleet = synthesize_fleet(3, 64, seed=2)
        engine = _engine(small_autoencoder, fleet, mitigator=None)
        calls = {"n": 0}
        real = obs.registry

        def counting():
            calls["n"] += 1
            return real()

        def resolutions(action):
            calls["n"] = 0
            action()
            return calls["n"]

        detector = engine.detector
        detector.process_block(fleet[:, :4])  # warm workspaces off-trace
        monkeypatch.setattr(obs, "registry", counting)
        narrow = resolutions(lambda: detector.process_block(fleet[:, 4:8]))
        wide = resolutions(lambda: detector.process_block(fleet[:, 8:40]))
        assert narrow == wide
        per_tick = resolutions(lambda: detector.process_tick(fleet[:, 40]))
        assert per_tick <= narrow

    def test_process_block_steady_state_allocations_unchanged(
        self, small_autoencoder, obs_disabled
    ):
        """The obs-off block loop must stay workspace-clean: after warmup
        no numpy buffers (or span/metric objects) accumulate per call."""
        fleet = synthesize_fleet(8, 16 * 12, seed=6)
        engine = _engine(small_autoencoder, fleet, mitigator=None)
        block = 16

        def run_block(i):
            engine.detector.process_block(fleet[:, i * block : (i + 1) * block])

        for i in range(4):
            run_block(i)
        tracemalloc.start()
        run_block(4)
        baseline, _ = tracemalloc.get_traced_memory()
        for i in range(5, 12):
            run_block(i)
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert current - baseline < 8 * 1024

    def test_disabled_run_registers_no_metrics(self, small_autoencoder, obs_disabled):
        fleet = synthesize_fleet(2, 24, seed=3)
        _engine(small_autoencoder, fleet).run(fleet, block_size=8)
        assert len(obs.registry()) == 0
        assert not obs.enabled()


class TestStreamingMetrics:
    def test_replay_populates_advertised_series(self, small_autoencoder, fresh_registry):
        fleet = synthesize_fleet(3, 40, seed=7)
        nan_mask = np.zeros(fleet.shape, dtype=bool)
        nan_mask[1, 25] = True
        fleet[nan_mask] = np.nan
        report = _engine(small_autoencoder, fleet, missing="impute").run(fleet, block_size=8)

        reg = fresh_registry
        assert reg.counter("repro_stream_readings_total").value == fleet.size
        assert reg.counter("repro_stream_flags_total").value == report.flags.sum()
        assert reg.counter("repro_stream_missing_total").value == report.missing.sum()
        assert reg.counter("repro_stream_replay_runs_total").value == 1
        assert reg.gauge("repro_stream_readings_per_second").value > 0
        assert reg.histogram("repro_stream_block_seconds").count == 5  # 40 / 8
        for stage in ("validate", "scale_buffer", "forward", "threshold", "mitigate"):
            assert reg.histogram(f"repro_stream_{stage}_seconds").count > 0, stage

    def test_tick_mode_fills_tick_histogram(self, small_autoencoder, fresh_registry):
        fleet = synthesize_fleet(2, 12, seed=8)
        _engine(small_autoencoder, fleet).run(fleet, block_size=1)
        assert fresh_registry.histogram("repro_stream_tick_seconds").count == 12

    def test_churn_counters_label_the_operation(self, small_autoencoder, fresh_registry):
        fleet = synthesize_fleet(3, 24, seed=9)
        engine = _engine(small_autoencoder, fleet)
        engine.run(fleet, block_size=8)
        engine.add_stations(2, data_min=np.zeros(2), data_max=np.full(2, 100.0))
        engine.drop_stations([0])
        name = "repro_stream_churn_stations_total"
        added = fresh_registry.counter(name, labels={"op": "add"})
        dropped = fresh_registry.counter(name, labels={"op": "drop"})
        assert added.value == 2
        assert dropped.value == 1


class TestCheckpointMetrics:
    def test_save_load_durations_and_bytes(self, small_autoencoder, fresh_registry, tmp_path):
        fleet = synthesize_fleet(3, 24, seed=10)
        engine = _engine(small_autoencoder, fleet)
        engine.run(fleet, block_size=8)
        path = save_checkpoint(tmp_path / "ckpt", engine)
        load_checkpoint(path)

        reg = fresh_registry
        assert reg.counter("repro_stream_checkpoint_saves_total").value == 1
        assert reg.counter("repro_stream_checkpoint_loads_total").value == 1
        # The bytes gauge covers the files the manifest references.
        referenced = [f for f in path.iterdir() if f.name != "manifest.json"]
        assert len(referenced) == 2  # the model and the state file
        total = sum(f.stat().st_size for f in referenced)
        assert reg.gauge("repro_stream_checkpoint_bytes").value == total
        assert reg.histogram("repro_stream_checkpoint_save_seconds").count == 1
        assert reg.histogram("repro_stream_checkpoint_load_seconds").count == 1


class TestTrainingMetrics:
    def test_fit_times_each_epoch(self, fresh_registry, rng):
        model = Sequential([Dense(4, activation="relu"), Dense(1)])
        model.compile(optimizer="adam", loss="mse")
        x = rng.normal(size=(24, 3))
        y = rng.normal(size=(24, 1))
        model.fit(x, y, epochs=3, batch_size=8, seed=0)
        assert fresh_registry.histogram("repro_nn_fit_epoch_seconds").count == 3

    def test_backend_dispatch_counted_per_backend(self, fresh_registry):
        # The ambient default may be any installed backend (REPRO_BACKEND
        # varies across CI legs), so count per resolved name.
        default = resolve_backend()
        resolve_backend("numpy")
        name = "repro_nn_backend_dispatch_total"
        assert fresh_registry.counter(name, labels={"backend": default.name}).value >= 1
        assert fresh_registry.counter(name, labels={"backend": "numpy"}).value >= 1


class TestFederatedMetrics:
    def test_round_timings_reconcile_with_result(self, fresh_registry, rng):
        from repro.federated.simulation import FederatedSimulation

        def builder():
            model = Sequential([Dense(4, activation="relu"), Dense(1)])
            model.compile(optimizer="adam", loss="mse")
            return model

        data = {
            name: (rng.normal(size=(12, 3)), rng.normal(size=(12, 1)))
            for name in ("zone_a", "zone_b", "zone_c")
        }
        sim = FederatedSimulation(model_builder=builder, rounds=2, epochs_per_round=1, seed=3)
        result = sim.run(data)

        reg = fresh_registry
        assert reg.counter("repro_federated_rounds_total").value == 2
        assert reg.gauge("repro_federated_participants").value == 3
        assert reg.histogram("repro_federated_client_seconds").count == 6
        assert reg.histogram("repro_federated_round_seconds").count == 2
        assert reg.histogram("repro_federated_round_barrier_seconds").count == 2
        assert reg.histogram("repro_federated_aggregate_seconds").count == 2
        round_sum = reg.histogram("repro_federated_round_seconds").sum
        assert round_sum == pytest.approx(result.measured_wall_seconds)
        barrier_sum = reg.histogram("repro_federated_round_barrier_seconds").sum
        assert barrier_sum == pytest.approx(result.parallel_seconds)
