"""Checkpoint/restore: bit-exact resume parity for the whole pipeline.

The operational contract: save the pipeline at ANY tick/block boundary,
reload it in a fresh process (here: fresh objects rebuilt purely from
the archive bytes), and the remaining stream must produce flags, scores
and mitigated values **bit-identical** to an uninterrupted run — with
closed-loop feedback, adaptive thresholds and every mitigation policy.
"""

import numpy as np
import pytest

from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.stream.buffers import RingBufferBank
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.detector import StreamingDetector
from repro.stream.engine import StreamReplayEngine, synthesize_fleet
from repro.stream.mitigation import (
    CausalLinearMitigator,
    SeasonalHoldMitigator,
    StreamingMitigator,
)
from repro.stream.quantile import P2QuantileBank
from repro.stream.scaler import StreamingMinMaxScaler

from .conftest import savez_killed_halfway


@pytest.fixture(scope="module")
def small_autoencoder():
    config = AutoencoderConfig(
        sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
    )
    return LSTMAutoencoder(config, seed=11)


def _pipeline(autoencoder, fleet, mitigator, threshold, missing="raise"):
    scaler = StreamingMinMaxScaler.from_bounds(
        np.nanmin(fleet, axis=1), np.nanmax(fleet, axis=1)
    )
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


class TestResumeParity:
    """Save/restore at block boundaries == uninterrupted run, bit for bit."""

    @pytest.mark.parametrize("policy", ["hold_last_good", "causal_linear", "seasonal_hold"])
    @pytest.mark.parametrize("block_size", [1, 7])
    def test_every_boundary_roundtrip_is_bit_exact(
        self, small_autoencoder, tmp_path, policy, block_size
    ):
        """Property test: for random fleets, EVERY block boundary is a
        valid resume point — closed loop, adaptive (p2) thresholds."""
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
            restored = load_checkpoint(path).engine()
            assert restored.detector.tick == cut
            second = restored.run(fleet[:, cut:], block_size=block_size)
            _assert_resumed_equals(reference, _concat(first, second))

    def test_resume_with_fixed_calibrated_thresholds(
        self, small_autoencoder, tmp_path
    ):
        fleet = synthesize_fleet(4, 40, seed=9)
        reference = _pipeline(small_autoencoder, fleet, "hold_last_good", None).run(
            fleet, block_size=4
        )
        engine = _pipeline(small_autoencoder, fleet, "hold_last_good", None)
        first = engine.run(fleet[:, :20], block_size=4)
        path = save_checkpoint(tmp_path / "fixed", engine)
        second = load_checkpoint(path).engine().run(fleet[:, 20:], block_size=4)
        _assert_resumed_equals(reference, _concat(first, second))

    def test_resume_with_missing_data(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(4, 40, seed=2, dropout_rate=0.1)
        reference = _pipeline(
            small_autoencoder, fleet, "seasonal_hold", 0.01, missing="impute"
        ).run(fleet, block_size=5)
        engine = _pipeline(
            small_autoencoder, fleet, "seasonal_hold", 0.01, missing="impute"
        )
        first = engine.run(fleet[:, :25], block_size=5)
        path = save_checkpoint(tmp_path / "missing", engine)
        restored = load_checkpoint(path)
        np.testing.assert_array_equal(
            restored.detector.missing_counts, engine.detector.missing_counts
        )
        second = restored.engine().run(fleet[:, 25:], block_size=5)
        _assert_resumed_equals(reference, _concat(first, second))

    def test_detector_only_checkpoint(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(3, 30, seed=5)
        engine = _pipeline(small_autoencoder, fleet, None, 0.01)
        engine.run(fleet[:, :15])
        path = save_checkpoint(tmp_path / "detector-only", engine.detector)
        restored = load_checkpoint(path)
        assert restored.mitigator is None
        second = restored.engine().run(fleet[:, 15:])
        reference = _pipeline(small_autoencoder, fleet, None, 0.01).run(fleet)
        np.testing.assert_array_equal(reference.flags[:, 15:], second.flags)
        np.testing.assert_array_equal(reference.scores[:, 15:], second.scores)


class TestArchiveContract:
    def test_extra_arrays_roundtrip(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(2, 20, seed=1)
        engine = _pipeline(small_autoencoder, fleet, "hold_last_good", 0.01)
        engine.run(fleet[:, :10])
        path = save_checkpoint(
            tmp_path / "extra", engine, extra={"position": np.asarray(10)}
        )
        assert path.suffix == ".npz"
        restored = load_checkpoint(path)
        assert int(restored.extra["position"]) == 10

    def test_restored_engine_keeps_serialized_fallback(
        self, small_autoencoder, tmp_path
    ):
        """Regression: StreamCheckpoint.engine() must reproduce the
        SAVED fallback exactly (wiring is replay-step-deterministic, so
        re-deriving it from restored bounds must be a no-op — never a
        divergence from the uninterrupted run)."""
        fleet = synthesize_fleet(2, 30, seed=6)
        scaler = StreamingMinMaxScaler(2)  # unfitted at engine build
        detector = StreamingDetector(
            small_autoencoder, 2, scaler=scaler, threshold=0.5
        )
        engine = StreamReplayEngine(detector, "hold_last_good")
        assert not np.isfinite(engine.mitigator.fallback).any()
        engine.run(fleet[:, :15])  # per-step wiring has filled it now
        assert np.isfinite(engine.mitigator.fallback).all()
        restored = load_checkpoint(save_checkpoint(tmp_path / "wire", engine))
        resumed = restored.engine()
        np.testing.assert_array_equal(
            resumed.mitigator.fallback, engine.mitigator.fallback
        )

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
        restored = load_checkpoint(save_checkpoint(tmp_path / "live", live))
        second = restored.engine().run(fleet[:, 20:], block_size=4)
        _assert_resumed_equals(reference, _concat(first, second))

    def test_feedback_flag_roundtrips(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(2, 20, seed=1)
        scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
        detector = StreamingDetector(small_autoencoder, 2, scaler=scaler, threshold=0.5)
        engine = StreamReplayEngine(detector, "hold_last_good", feedback=False)
        restored = load_checkpoint(save_checkpoint(tmp_path / "fb", engine))
        assert restored.feedback is False
        assert restored.engine().feedback is False

    def test_mitigator_constructor_params_roundtrip(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(2, 20, seed=1)
        scaler = StreamingMinMaxScaler.from_bounds(fleet.min(axis=1), fleet.max(axis=1))
        detector = StreamingDetector(small_autoencoder, 2, scaler=scaler, threshold=0.5)
        engine = StreamReplayEngine(
            detector, CausalLinearMitigator(2, max_slope_ticks=3)
        )
        restored = load_checkpoint(save_checkpoint(tmp_path / "params", engine))
        assert isinstance(restored.mitigator, CausalLinearMitigator)
        assert restored.mitigator.max_slope_ticks == 3
        engine2 = StreamReplayEngine(
            detector, SeasonalHoldMitigator(2, period=6)
        )
        restored2 = load_checkpoint(save_checkpoint(tmp_path / "params2", engine2))
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

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(ValueError, match="not a stream checkpoint"):
            load_checkpoint(path)


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

def _rewrite_meta(path, mutate):
    """Reload an archive, apply ``mutate`` to its meta dict, save in place."""
    import json

    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(str(arrays["meta"]))
    mutate(meta)
    arrays["meta"] = np.asarray(json.dumps(meta))
    np.savez(path, **arrays)


class TestCheckpointProvenance:
    """Creation metadata: library versions in, warnings out."""

    @pytest.fixture
    def saved(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(2, 20, seed=4)
        engine = _pipeline(small_autoencoder, fleet, "hold_last_good", None)
        engine.run(fleet, block_size=5)
        return save_checkpoint(tmp_path / "prov", engine)

    def test_save_records_library_metadata(self, saved):
        import repro

        restored = load_checkpoint(saved)
        assert restored.library["version"] == repro.__version__
        assert restored.library["numpy"] == np.__version__
        assert restored.library["created_unix"] > 0

    def test_same_version_load_does_not_warn(self, saved):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_checkpoint(saved)

    def test_cross_version_load_warns_but_loads(self, saved):
        _rewrite_meta(saved, lambda m: m["library"].__setitem__("version", "0.0.1"))
        with pytest.warns(RuntimeWarning, match="written by repro 0.0.1"):
            restored = load_checkpoint(saved)
        assert restored.library["version"] == "0.0.1"
        assert restored.detector.tick == 20  # state still restored in full

    def test_legacy_archive_without_provenance_loads_silently(self, saved):
        """Pre-provenance archives (no library/sharding keys) stay loadable."""
        import warnings

        def strip(meta):
            meta.pop("library")
            meta.pop("sharding")

        _rewrite_meta(saved, strip)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored = load_checkpoint(saved)
        assert restored.library == {}

    def test_sharded_member_points_at_manifest_loader(self, saved):
        """A shard member of a sharded fleet checkpoint must not restore
        as if it were the whole fleet — the error names the real loader."""
        from repro.stream.checkpoint import CheckpointError

        def shard(meta):
            meta["sharding"] = {"shards": 4, "shard_index": 2}

        _rewrite_meta(saved, shard)
        with pytest.raises(CheckpointError, match="shard 2 of 4") as excinfo:
            load_checkpoint(saved)
        assert "load_sharded_checkpoint" in str(excinfo.value)


class TestCorruptArchives:
    """Unreadable archives fail with CheckpointError naming the path."""

    @pytest.fixture
    def valid_checkpoint(self, small_autoencoder, tmp_path):
        fleet = synthesize_fleet(2, 20, seed=51)
        engine = _pipeline(small_autoencoder, fleet, "hold_last_good", 0.01)
        engine.run(fleet[:, :10])
        return save_checkpoint(tmp_path / "valid", engine)

    def test_checkpoint_error_is_a_value_error(self):
        from repro.stream import CheckpointError

        assert issubclass(CheckpointError, ValueError)

    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.9])
    def test_byte_truncated_archive_raises_checkpoint_error(
        self, valid_checkpoint, tmp_path, keep
    ):
        from repro.stream import CheckpointError

        data = valid_checkpoint.read_bytes()
        truncated = tmp_path / f"truncated-{keep}.npz"
        truncated.write_bytes(data[: int(len(data) * keep)])
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(truncated)
        assert str(truncated) in str(excinfo.value)
        assert "truncated" in str(excinfo.value)

    def test_tail_truncation_of_central_directory(self, valid_checkpoint, tmp_path):
        from repro.stream import CheckpointError

        data = valid_checkpoint.read_bytes()
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(data[:-17])
        with pytest.raises(CheckpointError, match="clipped"):
            load_checkpoint(clipped)

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        from repro.stream import CheckpointError

        ghost = tmp_path / "never-written.npz"
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(ghost)
        assert str(ghost) in str(excinfo.value)

    def test_garbage_bytes_raise_checkpoint_error(self, tmp_path):
        from repro.stream import CheckpointError

        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"this was never a zip archive" * 10)
        with pytest.raises(CheckpointError, match="garbage"):
            load_checkpoint(garbage)

    def test_foreign_npz_raises_checkpoint_error(self, tmp_path):
        from repro.stream import CheckpointError

        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, weights=np.zeros(3))
        with pytest.raises(CheckpointError, match="not a stream checkpoint"):
            load_checkpoint(foreign)

    def test_corrupt_meta_json_raises_checkpoint_error(self, tmp_path):
        from repro.stream import CheckpointError

        mangled = tmp_path / "mangled.npz"
        np.savez(mangled, meta=np.asarray("{not json"))
        with pytest.raises(CheckpointError, match="meta"):
            load_checkpoint(mangled)


class TestCrashConsistentSave:
    def test_failed_save_leaves_previous_checkpoint_intact(
        self, small_autoencoder, tmp_path, monkeypatch
    ):
        fleet = synthesize_fleet(3, 24, seed=52)
        engine = _pipeline(small_autoencoder, fleet, "causal_linear", 0.01)
        engine.run(fleet[:, :12], block_size=4)
        path = save_checkpoint(tmp_path / "live", engine)
        saved = path.read_bytes()
        engine.run(fleet[:, 12:], block_size=4)

        savez_killed_halfway(monkeypatch)
        with pytest.raises(OSError, match="killed mid-save"):
            save_checkpoint(path, engine)
        monkeypatch.undo()

        assert path.read_bytes() == saved
        assert [entry.name for entry in tmp_path.iterdir()] == [path.name]
        assert load_checkpoint(path).detector.tick == 12
