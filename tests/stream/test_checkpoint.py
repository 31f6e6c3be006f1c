"""Checkpoint/restore: one manifest directory, bit-exact resume.

The operational contract: save the pipeline at ANY tick/block boundary,
reload it (fresh objects rebuilt purely from the directory's bytes),
and the remaining stream must produce flags, scores and mitigated
values **bit-identical** to an uninterrupted run — with adaptive
thresholds and every mitigation policy.  A save that fails or is killed
at any point must leave the previous checkpoint loadable.
"""

import json
import multiprocessing
import os
import shutil
import signal
import warnings

import numpy as np
import pytest

import repro
from repro.stream.buffers import RingBufferBank
from repro.stream.checkpoint import (
    MANIFEST_NAME,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.detector import StreamingDetector
from repro.stream.engine import StreamReplayEngine, synthesize_fleet
from repro.stream.mitigation import (
    CausalLinearMitigator,
    SeasonalHoldMitigator,
    StreamingMitigator,
)
from repro.stream.quantile import P2QuantileBank
from repro.stream.scaler import StreamingMinMaxScaler

from .conftest import build_fleet_engine, fail_nth_write, rewrite_archive

N_STATIONS = 9


@pytest.fixture(scope="module")
def train_fleet():
    return synthesize_fleet(N_STATIONS, 60, seed=41)


@pytest.fixture(scope="module")
def live_fleet():
    return synthesize_fleet(N_STATIONS, 24, seed=42, dropout_rate=0.05)


@pytest.fixture(scope="module")
def reference(small_autoencoder, train_fleet, live_fleet):
    return build_fleet_engine(small_autoencoder, train_fleet).run(live_fleet, block_size=4)


def _pipeline(autoencoder, fleet, mitigator, threshold, missing="raise"):
    scaler = StreamingMinMaxScaler.from_bounds(np.nanmin(fleet, axis=1), np.nanmax(fleet, axis=1))
    detector = StreamingDetector(
        autoencoder,
        fleet.shape[0],
        scaler=scaler,
        threshold=threshold,
        min_calibration_scores=5,
        missing=missing,
    )
    if threshold is None:
        detector.calibrate(fleet)
    return StreamReplayEngine(detector, mitigator=mitigator)


def _concat(first, second):
    return {
        "flags": np.concatenate([first.flags, second.flags], axis=1),
        "scores": np.concatenate([first.scores, second.scores], axis=1),
        "mitigated": np.concatenate([first.mitigated, second.mitigated], axis=1),
        "missing": np.concatenate([first.missing, second.missing], axis=1),
    }


def _assert_resumed_equals(reference, resumed):
    np.testing.assert_array_equal(reference.flags, resumed["flags"])
    np.testing.assert_array_equal(reference.scores, resumed["scores"])
    np.testing.assert_array_equal(reference.mitigated, resumed["mitigated"])
    np.testing.assert_array_equal(reference.missing, resumed["missing"])


def _assert_blocks_match(engine, live_fleet, reference, start):
    """Step 4-wide blocks from ``start`` to the end, asserting parity per block."""
    for t in range(start, live_fleet.shape[1], 4):
        flags, scores, missing, mitigated = engine.step_block(live_fleet[:, t : t + 4])
        sl = slice(t, t + 4)
        assert np.array_equal(flags, reference.flags[:, sl])
        assert np.array_equal(scores, reference.scores[:, sl], equal_nan=True)
        assert np.array_equal(missing, reference.missing[:, sl])
        assert np.array_equal(mitigated, reference.mitigated[:, sl], equal_nan=True)


def _manifest(path):
    return json.loads((path / MANIFEST_NAME).read_text())


def _listed(path):
    """Names of the data files the committed manifest references."""
    manifest = _manifest(path)
    entries = [manifest["model"], manifest["state"], manifest["extra"]]
    return {entry["file"] for entry in entries if entry is not None}


def _contents(path):
    return {f.name: f.read_bytes() for f in path.iterdir()}


class TestResumeParity:
    """Save/restore at block boundaries == uninterrupted run, bit for bit."""

    @pytest.mark.parametrize("policy", ["hold_last_good", "causal_linear", "seasonal_hold"])
    @pytest.mark.parametrize("block_size", [1, 7])
    def test_every_boundary_roundtrip_is_bit_exact(
        self, small_autoencoder, tmp_path, policy, block_size
    ):
        """Property test: for random fleets, EVERY block boundary is a
        valid resume point — mitigated, adaptive (p2) thresholds."""
        rng = np.random.default_rng(hash((policy, block_size)) % 2**32)
        seed = int(rng.integers(2**31))
        fleet = synthesize_fleet(3, 42, seed=seed)
        reference = _pipeline(small_autoencoder, fleet, policy, "p2").run(
            fleet, block_size=block_size
        )
        n_ticks = fleet.shape[1]
        for cut in range(block_size, n_ticks, block_size):
            engine = _pipeline(small_autoencoder, fleet, policy, "p2")
            first = engine.run(fleet[:, :cut], block_size=block_size)
            path = save_checkpoint(tmp_path / f"{policy}-{block_size}-{cut}", engine)
            restored, _extra = load_checkpoint(path)
            assert restored.detector.tick == cut
            second = restored.run(fleet[:, cut:], block_size=block_size)
            _assert_resumed_equals(reference, _concat(first, second))

    @pytest.mark.parametrize("policy", [None, "hold_last_good", "causal_linear", "seasonal_hold"])
    @pytest.mark.parametrize("block_size", [1, 7])
    def test_every_boundary_roundtrip_with_fixed_thresholds(
        self, small_autoencoder, tmp_path, policy, block_size
    ):
        """Calibrated per-station thresholds, with and without a
        mitigator: every block boundary is a valid resume point."""
        fleet = synthesize_fleet(3, 42, seed=43 + block_size)
        reference = _pipeline(small_autoencoder, fleet, policy, None).run(
            fleet, block_size=block_size
        )
        for cut in range(block_size, fleet.shape[1], block_size):
            engine = _pipeline(small_autoencoder, fleet, policy, None)
            first = engine.run(fleet[:, :cut], block_size=block_size)
            restored, _extra = load_checkpoint(save_checkpoint(tmp_path / f"cut-{cut}", engine))
            assert restored.detector.tick == cut
            np.testing.assert_array_equal(
                restored.detector.thresholds, engine.detector.thresholds
            )
            second = restored.run(fleet[:, cut:], block_size=block_size)
            _assert_resumed_equals(reference, _concat(first, second))

    def test_resume_with_fixed_calibrated_thresholds(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(4, 40, seed=9)
        reference = _pipeline(small_autoencoder, fleet, "hold_last_good", None).run(
            fleet, block_size=4
        )
        engine = _pipeline(small_autoencoder, fleet, "hold_last_good", None)
        first = engine.run(fleet[:, :20], block_size=4)
        restored, _extra = load_checkpoint(save_checkpoint(tmp_path / "fixed", engine))
        second = restored.run(fleet[:, 20:], block_size=4)
        _assert_resumed_equals(reference, _concat(first, second))

    def test_resume_with_missing_data(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(4, 40, seed=2, dropout_rate=0.1)
        reference = _pipeline(
            small_autoencoder, fleet, "seasonal_hold", 0.01, missing="impute"
        ).run(fleet, block_size=5)
        engine = _pipeline(small_autoencoder, fleet, "seasonal_hold", 0.01, missing="impute")
        first = engine.run(fleet[:, :25], block_size=5)
        restored, _extra = load_checkpoint(save_checkpoint(tmp_path / "missing", engine))
        np.testing.assert_array_equal(
            restored.detector.missing_counts, engine.detector.missing_counts
        )
        second = restored.run(fleet[:, 25:], block_size=5)
        _assert_resumed_equals(reference, _concat(first, second))

    def test_detector_only_pipeline(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(3, 30, seed=5)
        engine = _pipeline(small_autoencoder, fleet, None, 0.01)
        engine.run(fleet[:, :15])
        path = save_checkpoint(tmp_path / "detector-only", StreamReplayEngine(engine.detector))
        restored, _extra = load_checkpoint(path)
        assert restored.mitigator is None
        second = restored.run(fleet[:, 15:])
        reference = _pipeline(small_autoencoder, fleet, None, 0.01).run(fleet)
        np.testing.assert_array_equal(reference.flags[:, 15:], second.flags)
        np.testing.assert_array_equal(reference.scores[:, 15:], second.scores)


class TestManifest:
    def test_manifest_lists_one_state_file(
        self, tmp_path, small_autoencoder, train_fleet, live_fleet
    ):
        engine = build_fleet_engine(small_autoencoder, train_fleet)
        engine.step_block(live_fleet[:, :4])
        ckpt_dir = save_checkpoint(tmp_path / "ckpt", engine)
        manifest = _manifest(ckpt_dir)
        assert manifest["format"] == "repro.stream.checkpoint"
        assert manifest["version"] == 4
        assert manifest["tick"] == 4
        assert manifest["n_stations"] == N_STATIONS
        assert manifest["model"]["file"] == "model-0.npz"
        assert manifest["state"]["file"] == "state-0.npz"
        assert manifest["extra"] is None
        for entry in [manifest["model"], manifest["state"]]:
            assert (ckpt_dir / entry["file"]).stat().st_size == entry["bytes"]
        state = np.load(ckpt_dir / manifest["state"]["file"])
        assert state["detector.thresholds"].shape == (N_STATIONS,)
        assert sorted(os.listdir(ckpt_dir)) == sorted(_listed(ckpt_dir) | {MANIFEST_NAME})

    def test_extra_arrays_roundtrip(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(2, 20, seed=1)
        engine = _pipeline(small_autoencoder, fleet, "hold_last_good", 0.01)
        engine.run(fleet[:, :10])
        path = save_checkpoint(tmp_path / "extra", engine, extra={"position": np.asarray(10)})
        assert path == tmp_path / "extra"
        _restored, extra = load_checkpoint(path)
        assert int(extra["position"]) == 10

    @pytest.mark.parametrize(
        "value",
        [
            np.asarray(["ab", "c"]),
            np.asarray(3),
            np.empty(0),
            np.arange(4, dtype=np.int8),
            np.asarray([True, False]),
            np.linspace(0.0, 1.0, 5, dtype=np.float32),
        ],
        ids=["text", "scalar", "empty", "int8", "bool", "float32"],
    )
    def test_extra_array_keeps_dtype_shape_and_values(self, small_autoencoder, tmp_path, value):
        fleet = synthesize_fleet(2, 20, seed=1)
        engine = _pipeline(small_autoencoder, fleet, "hold_last_good", 0.01)
        path = save_checkpoint(tmp_path / "extra", engine, extra={"value": value})
        _restored, extra = load_checkpoint(path)
        assert extra["value"].dtype == value.dtype
        assert extra["value"].shape == value.shape
        np.testing.assert_array_equal(extra["value"], value)

    def test_save_records_library_metadata(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(2, 20, seed=4)
        path = save_checkpoint(
            tmp_path / "prov", _pipeline(small_autoencoder, fleet, "hold_last_good", None)
        )
        library = _manifest(path)["library"]
        assert library["version"] == repro.__version__
        assert library["numpy"] == np.__version__
        assert library["created_unix"] > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_checkpoint(path)

    def test_cross_version_load_warns_but_loads(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(2, 20, seed=4)
        engine = _pipeline(small_autoencoder, fleet, "hold_last_good", None)
        engine.run(fleet, block_size=5)
        path = save_checkpoint(tmp_path / "prov", engine)
        manifest = _manifest(path)
        manifest["library"]["version"] = "0.0.1"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.warns(RuntimeWarning, match="written by repro 0.0.1"):
            restored, _extra = load_checkpoint(path)
        assert restored.detector.tick == 20  # state still restored in full

    def test_manifest_without_provenance_loads_silently(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(2, 20, seed=4)
        path = save_checkpoint(
            tmp_path / "prov", _pipeline(small_autoencoder, fleet, "hold_last_good", None)
        )
        manifest = _manifest(path)
        del manifest["library"]
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_checkpoint(path)


class TestPipelineContract:
    def test_restored_engine_keeps_serialized_fallback(self, small_autoencoder, tmp_path):
        """Regression: the restore must reproduce the SAVED fallback
        exactly (wiring is replay-step-deterministic, so re-deriving it
        from restored bounds must be a no-op — never a divergence from
        the uninterrupted run)."""
        fleet = synthesize_fleet(2, 30, seed=6)
        scaler = StreamingMinMaxScaler(2)  # unfitted at engine build
        detector = StreamingDetector(small_autoencoder, 2, scaler=scaler, threshold=0.5)
        engine = StreamReplayEngine(detector, "hold_last_good")
        assert not np.isfinite(engine.mitigator.fallback).any()
        engine.run(fleet[:, :15])  # per-step wiring has filled it now
        assert np.isfinite(engine.mitigator.fallback).all()
        resumed, _extra = load_checkpoint(save_checkpoint(tmp_path / "wire", engine))
        np.testing.assert_array_equal(resumed.mitigator.fallback, engine.mitigator.fallback)

    def test_resume_parity_with_live_scaler(self, small_autoencoder, tmp_path):
        """Uninterrupted vs. checkpoint-resumed replay over a LIVE
        (initially unfitted, adapting) scaler: identical outputs."""
        fleet = synthesize_fleet(3, 40, seed=13)
        fleet[1, 0] = 500.0  # first reading attacked

        def engine():
            detector = StreamingDetector(
                small_autoencoder, 3, scaler=StreamingMinMaxScaler(3), threshold=0.05
            )
            return StreamReplayEngine(detector, "hold_last_good")

        reference = engine().run(fleet, block_size=4)
        live = engine()
        first = live.run(fleet[:, :20], block_size=4)
        restored, _extra = load_checkpoint(save_checkpoint(tmp_path / "live", live))
        second = restored.run(fleet[:, 20:], block_size=4)
        _assert_resumed_equals(reference, _concat(first, second))

    def test_mitigator_constructor_params_roundtrip(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(2, 20, seed=1)
        scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
        detector = StreamingDetector(small_autoencoder, 2, scaler=scaler, threshold=0.5)
        engine = StreamReplayEngine(detector, CausalLinearMitigator(2, max_slope_ticks=3))
        restored, _extra = load_checkpoint(save_checkpoint(tmp_path / "params", engine))
        assert isinstance(restored.mitigator, CausalLinearMitigator)
        assert restored.mitigator.max_slope_ticks == 3
        engine2 = StreamReplayEngine(detector, SeasonalHoldMitigator(2, period=6))
        restored2, _extra = load_checkpoint(save_checkpoint(tmp_path / "params2", engine2))
        assert isinstance(restored2.mitigator, SeasonalHoldMitigator)
        assert restored2.mitigator.period == 6

    def test_custom_mitigator_rejected_at_save_time(self, small_autoencoder, tmp_path):
        class Custom(StreamingMitigator):
            name = "custom"

            def mitigate(self, values, flags):
                return values

        fleet = synthesize_fleet(2, 20, seed=1)
        scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
        detector = StreamingDetector(small_autoencoder, 2, scaler=scaler, threshold=0.5)
        engine = StreamReplayEngine(detector, Custom(2))
        with pytest.raises(ValueError, match="built-in policies"):
            save_checkpoint(tmp_path / "custom", engine)


class TestComponentStateDicts:
    """Each bank's state_dict round-trips exactly and validates strictly."""

    def test_ring_buffer_roundtrip(self):
        bank = RingBufferBank(3, 4)
        for t in range(6):
            bank.push(np.arange(3) + t)
        clone = RingBufferBank(3, 4)
        clone.load_state_dict(bank.state_dict())
        np.testing.assert_array_equal(bank.windows(), clone.windows())
        np.testing.assert_array_equal(bank.counts, clone.counts)
        bank.push(np.zeros(3))
        clone.push(np.zeros(3))
        np.testing.assert_array_equal(bank.windows(), clone.windows())

    def test_scaler_roundtrip(self):
        scaler = StreamingMinMaxScaler(3)
        scaler.partial_fit(np.array([1.0, 2.0, 3.0]))
        scaler.partial_fit(np.array([4.0, 1.0, 9.0]))
        clone = StreamingMinMaxScaler(3)
        clone.load_state_dict(scaler.state_dict())
        probe = np.array([2.0, 1.5, 6.0])
        np.testing.assert_array_equal(scaler.transform(probe), clone.transform(probe))
        assert clone.frozen == scaler.frozen

    def test_p2_roundtrip_mid_warmup_and_after(self):
        for n_obs in (3, 30):
            bank = P2QuantileBank(2, q=90.0)
            rng = np.random.default_rng(0)
            for _ in range(n_obs):
                bank.update(rng.random(2))
            clone = P2QuantileBank(2, q=90.0)
            clone.load_state_dict(bank.state_dict())
            follow = rng.random((2, 10))
            bank.update_block(follow)
            clone.update_block(follow)
            np.testing.assert_array_equal(bank.estimate, clone.estimate)

    def test_shape_mismatch_rejected(self):
        bank = RingBufferBank(3, 4)
        state = bank.state_dict()
        wrong = RingBufferBank(2, 4)
        with pytest.raises(ValueError, match="shape"):
            wrong.load_state_dict(state)

    def test_unknown_keys_rejected(self):
        scaler = StreamingMinMaxScaler(2)
        state = scaler.state_dict() | {"bogus": np.zeros(2)}
        with pytest.raises(ValueError, match="unexpected"):
            scaler.load_state_dict(state)

    def test_missing_key_rejected(self):
        bank = P2QuantileBank(2)
        state = bank.state_dict()
        state.pop("heights")
        with pytest.raises(KeyError, match="heights"):
            bank.load_state_dict(state)

    def test_detector_structure_mismatch_rejected(self, small_autoencoder):
        fleet = synthesize_fleet(2, 20, seed=1)
        scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
        with_scaler = StreamingDetector(small_autoencoder, 2, scaler=scaler, threshold=0.5)
        without = StreamingDetector(small_autoencoder, 2, threshold=0.5)
        with pytest.raises(ValueError, match="unexpected"):
            without.load_state_dict(with_scaler.state_dict())


class TestGenerations:
    def test_every_save_rewrites_every_file(
        self, tmp_path, small_autoencoder, train_fleet, live_fleet
    ):
        engine = build_fleet_engine(small_autoencoder, train_fleet)
        engine.step_block(live_fleet[:, :4])
        ckpt_dir = save_checkpoint(tmp_path / "ckpt", engine)
        first = _listed(ckpt_dir)
        save_checkpoint(ckpt_dir, engine)
        assert not first & _listed(ckpt_dir)
        assert sorted(os.listdir(ckpt_dir)) == sorted(_listed(ckpt_dir) | {MANIFEST_NAME})

    def test_cleanup_deletes_only_the_writers_own_files(
        self, tmp_path, small_autoencoder, train_fleet, live_fleet
    ):
        engine = build_fleet_engine(small_autoencoder, train_fleet)
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        foreign = ["notes.txt", "model.npz", "state.npz", "model-x.npz", "shard-0000-3.npz"]
        for name in foreign:
            (ckpt_dir / name).write_text("not a checkpoint file")
        (ckpt_dir / "state-7.npz").write_text("a stale state file")
        (ckpt_dir / ".model-9.npz.tmp").write_text("a dead save's temp file")
        save_checkpoint(ckpt_dir, engine)
        assert sorted(os.listdir(ckpt_dir)) == sorted(
            [*foreign, MANIFEST_NAME, "model-10.npz", "state-10.npz"]
        )


class TestCrashConsistentSave:
    def test_save_dying_after_state_file_keeps_previous_checkpoint(
        self, tmp_path, small_autoencoder, train_fleet, live_fleet, reference, monkeypatch
    ):
        ckpt_dir = tmp_path / "ckpt"
        engine = build_fleet_engine(small_autoencoder, train_fleet)
        engine.step_block(live_fleet[:, :4])
        save_checkpoint(ckpt_dir, engine, extra={"tick": np.asarray(4)})
        saved = _contents(ckpt_dir)
        engine.step_block(live_fleet[:, 4:8])
        # Writes run model, state, extra, manifest: die in the extra file.
        fail_nth_write(monkeypatch, 3)
        with pytest.raises(OSError, match="killed mid-save"):
            save_checkpoint(ckpt_dir, engine, extra={"tick": np.asarray(8)})
        monkeypatch.undo()
        assert _contents(ckpt_dir) == saved  # no new-generation file left
        restored, extra = load_checkpoint(ckpt_dir)
        assert int(extra["tick"]) == 4
        _assert_blocks_match(restored, live_fleet, reference, start=4)


def _save_killed_at(ckpt_dir, n, live_fleet):
    """Child process: resume, step two blocks, SIGKILL at the ``n``-th file write.

    The kill takes the child's whole process group, as a container stop
    would.
    """
    os.setpgrp()
    engine, _extra = load_checkpoint(ckpt_dir)
    for t in (8, 12):
        engine.step_block(live_fleet[:, t : t + 4])
    fail_nth_write(pytest.MonkeyPatch(), n, lambda: os.killpg(0, signal.SIGKILL))
    save_checkpoint(ckpt_dir, engine, extra={"tick": np.asarray(16)})


class TestRealKill:
    """A real SIGKILL during every file write of one save.

    The child dies with half of the file's bytes in its temp file.
    Whatever write it dies in, the directory loads as either the old or
    the new tick and resumes bit-exactly, and the next save clears the
    dead save's leftovers.
    """

    def test_sigkill_at_every_write(
        self, tmp_path, small_autoencoder, train_fleet, live_fleet, reference
    ):
        pristine = tmp_path / "pristine"
        engine = build_fleet_engine(small_autoencoder, train_fleet)
        for t in (0, 4):
            engine.step_block(live_fleet[:, t : t + 4])
        save_checkpoint(pristine, engine, extra={"tick": np.asarray(8)})
        context = multiprocessing.get_context("fork")
        killed = 0
        for n in range(1, 10):
            ckpt_dir = tmp_path / f"kill-{n}"
            shutil.copytree(pristine, ckpt_dir)
            child = context.Process(target=_save_killed_at, args=(ckpt_dir, n, live_fleet))
            child.start()
            child.join(timeout=60)
            hung = child.exitcode is None
            if hung:
                os.killpg(child.pid, signal.SIGKILL)
                child.join()
            assert not hung
            assert child.exitcode in (0, -signal.SIGKILL)
            restored, extra = load_checkpoint(ckpt_dir)
            tick = int(extra["tick"])
            assert tick == (16 if child.exitcode == 0 else 8)
            _assert_blocks_match(restored, live_fleet, reference, start=tick)
            save_checkpoint(ckpt_dir, restored, extra={"tick": np.asarray(24)})
            assert sorted(os.listdir(ckpt_dir)) == sorted(_listed(ckpt_dir) | {MANIFEST_NAME})
            if child.exitcode == 0:
                break
            killed += 1
        # Every write of the save was a kill point: model, state, extra, manifest.
        assert killed == 4
        assert child.exitcode == 0


class TestRejections:
    """Every defect is a CheckpointError naming the offending file."""

    @pytest.fixture
    def saved(self, tmp_path, small_autoencoder, train_fleet, live_fleet):
        ckpt_dir = tmp_path / "ckpt"
        engine = build_fleet_engine(small_autoencoder, train_fleet)
        engine.step_block(live_fleet[:, :4])
        save_checkpoint(ckpt_dir, engine, extra={"note": np.arange(256.0)})
        return ckpt_dir

    def test_checkpoint_error_is_a_value_error(self):
        assert issubclass(CheckpointError, ValueError)

    def test_corrupt_state_file_fails_checksum(self, saved):
        state = saved / _manifest(saved)["state"]["file"]
        raw = bytearray(state.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        state.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum") as excinfo:
            load_checkpoint(saved)
        assert str(state) in str(excinfo.value)

    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.9])
    def test_truncated_state_file_reports_size(self, saved, keep):
        state = saved / _manifest(saved)["state"]["file"]
        data = state.read_bytes()
        state.write_bytes(data[: int(len(data) * keep)])
        with pytest.raises(CheckpointError, match="truncated") as excinfo:
            load_checkpoint(saved)
        assert str(state) in str(excinfo.value)

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_extra_file_names_its_path(self, saved, damage):
        extra_file = saved / _manifest(saved)["extra"]["file"]
        raw = bytearray(extra_file.read_bytes())
        if damage == "truncate":
            raw = raw[:-16]
        else:
            raw[len(raw) // 2] ^= 0xFF
        extra_file.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(saved)
        assert str(extra_file) in str(excinfo.value)

    def test_missing_state_file_rejected(self, saved):
        state = saved / _manifest(saved)["state"]["file"]
        state.unlink()
        with pytest.raises(CheckpointError, match="missing") as excinfo:
            load_checkpoint(saved)
        assert str(state) in str(excinfo.value)

    @pytest.mark.parametrize(
        "name", ["../escape-0.npz", "/tmp/state-0.npz", "state.npz", "model-0.npz", "state-0.npy"]
    )
    def test_unsafe_or_foreign_file_name_rejected(self, saved, name):
        manifest = _manifest(saved)
        manifest["state"]["file"] = name
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="malformed state entry") as excinfo:
            load_checkpoint(saved)
        assert str(saved / MANIFEST_NAME) in str(excinfo.value)

    @pytest.mark.parametrize(
        "n_stations",
        [-1, 0, N_STATIONS - 1, N_STATIONS + 1, float(N_STATIONS), str(N_STATIONS), True, None],
        ids=["negative", "zero", "fewer", "more", "float", "text", "bool", "null"],
    )
    def test_bad_station_count_names_the_manifest(self, saved, n_stations):
        """A count that is not a positive int, or that disagrees with the
        state arrays, is rejected before or while the pipeline is rebuilt."""
        manifest = _manifest(saved)
        manifest["n_stations"] = n_stations
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(saved)
        assert str(saved / MANIFEST_NAME) in str(excinfo.value)

    @pytest.mark.parametrize(
        "key", ["format", "version", "tick", "n_stations", "pipeline", "model", "state"]
    )
    def test_manifest_without_a_required_key_names_the_manifest(self, saved, key):
        manifest = _manifest(saved)
        del manifest[key]
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(saved)
        assert str(saved / MANIFEST_NAME) in str(excinfo.value)

    @pytest.mark.parametrize(
        "tick", [-1, 4.0, "4", True, None], ids=["negative", "float", "text", "bool", "null"]
    )
    def test_bad_tick_rejected(self, saved, tick):
        manifest = _manifest(saved)
        manifest["tick"] = tick
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="no valid tick") as excinfo:
            load_checkpoint(saved)
        assert str(saved / MANIFEST_NAME) in str(excinfo.value)

    @pytest.mark.parametrize("field", ["file", "bytes", "sha256"])
    @pytest.mark.parametrize("role", ["model", "state", "extra"])
    def test_entry_without_a_field_is_malformed(self, saved, role, field):
        manifest = _manifest(saved)
        del manifest[role][field]
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"malformed {role} entry") as excinfo:
            load_checkpoint(saved)
        assert str(saved / MANIFEST_NAME) in str(excinfo.value)

    def test_state_that_does_not_restore_names_its_file(self, saved):
        name = _manifest(saved)["state"]["file"]
        rewrite_archive(saved, name, lambda arrays: arrays.pop("detector.thresholds"))
        with pytest.raises(CheckpointError, match="does not restore") as excinfo:
            load_checkpoint(saved)
        assert str(saved / name) in str(excinfo.value)

    def test_missing_directory_rejected(self, tmp_path):
        ghost = tmp_path / "never-written"
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(ghost)
        assert str(ghost) in str(excinfo.value)

    def test_garbage_manifest_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_bytes(b"this was never json" * 10)
        with pytest.raises(CheckpointError, match="cannot read checkpoint manifest"):
            load_checkpoint(tmp_path)

    def test_wrong_format_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "nope"}))
        with pytest.raises(CheckpointError, match="not a stream checkpoint"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("version", [2, 3])
    def test_old_manifest_version_rejected(self, saved, version):
        """Versions 2 and 3 listed a table of member files and a station
        assignment, and version 2 recorded the removed closed-loop mode;
        neither is resumed."""
        manifest = _manifest(saved)
        manifest["version"] = version
        manifest["shards"] = [manifest.pop("state")]
        manifest["assignment"] = [0] * manifest.pop("n_stations")
        if version == 2:
            manifest["pipeline"]["feedback"] = True
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"version {version} is not supported") as exc:
            load_checkpoint(saved)
        assert str(saved / MANIFEST_NAME) in str(exc.value)
