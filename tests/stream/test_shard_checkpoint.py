"""Sharded checkpoints: manifest directory, delta saves, exact resume."""

import json

import numpy as np
import pytest

from repro.stream.checkpoint import CheckpointError, load_checkpoint
from repro.stream.engine import synthesize_fleet
from repro.stream.shard import (
    MANIFEST_NAME,
    ShardedFleetEngine,
    load_sharded_checkpoint,
    save_sharded_checkpoint,
)

from .conftest import build_fleet_engine, savez_killed_halfway

N_STATIONS = 9


@pytest.fixture(scope="module")
def train_fleet():
    return synthesize_fleet(N_STATIONS, 60, seed=41)


@pytest.fixture(scope="module")
def live_fleet():
    return synthesize_fleet(N_STATIONS, 24, seed=42, dropout_rate=0.05)


def _mtimes(path):
    return {
        f.name: f.stat().st_mtime_ns for f in path.iterdir() if f.suffix == ".npz"
    }


class TestRoundTrip:
    def test_resume_is_bit_exact(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        """save at tick 12, resume, finish: equals the uninterrupted run."""
        reference = build_fleet_engine(shard_autoencoder, train_fleet).run(
            live_fleet, block_size=4
        )
        ckpt_dir = tmp_path / "fleet-ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 3, seed=6
        ) as engine:
            for t in range(0, 12, 4):
                engine.step_block(live_fleet[:, t : t + 4])
            save_sharded_checkpoint(
                ckpt_dir, engine, extra={"note": np.asarray([12])}
            )

        restored, extra = load_sharded_checkpoint(ckpt_dir)
        assert extra["note"].tolist() == [12]
        with restored:
            assert restored.tick == 12
            assert restored.n_shards == 3
            for t in range(12, 24, 4):
                block = live_fleet[:, t : t + 4]
                flags, scores, missing, mitigated = restored.step_block(block)
                sl = slice(t, t + 4)
                assert np.array_equal(flags, reference.flags[:, sl])
                assert np.array_equal(
                    scores, reference.scores[:, sl], equal_nan=True
                )
                assert np.array_equal(missing, reference.missing[:, sl])
                assert np.array_equal(
                    mitigated, reference.mitigated[:, sl], equal_nan=True
                )

    def test_from_checkpoint_classmethod(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 2
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine)
        with ShardedFleetEngine.from_checkpoint(ckpt_dir) as restored:
            assert restored.tick == 4
            assert restored.n_stations == N_STATIONS

    def test_manifest_contents(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 3
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine)
        manifest = json.loads((ckpt_dir / MANIFEST_NAME).read_text())
        assert manifest["format"] == "repro.stream.shard.checkpoint"
        assert manifest["n_shards"] == 3
        assert manifest["n_stations"] == N_STATIONS
        assert manifest["tick"] == 4
        assert len(manifest["assignment"]) == N_STATIONS
        assert [e["index"] for e in manifest["shards"]] == [0, 1, 2]
        for entry in manifest["shards"]:
            member = ckpt_dir / entry["file"]
            assert member.stat().st_size == entry["bytes"]


class TestDeltaSaves:
    def test_failed_member_write_leaves_previous_checkpoint_intact(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet, monkeypatch
    ):
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 3
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine)
            saved = {f.name: f.read_bytes() for f in ckpt_dir.iterdir()}
            engine.step_block(live_fleet[:, 4:8])
            savez_killed_halfway(monkeypatch)
            with pytest.raises(OSError, match="killed mid-save"):
                save_sharded_checkpoint(ckpt_dir, engine)
            monkeypatch.undo()
        assert {f.name: f.read_bytes() for f in ckpt_dir.iterdir()} == saved
        restored, _extra = load_sharded_checkpoint(ckpt_dir)
        with restored:
            assert restored.tick == 4

    def test_idle_resave_leaves_members_untouched(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 3
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine)
            before = _mtimes(ckpt_dir)
            manifest_before = (ckpt_dir / MANIFEST_NAME).stat().st_mtime_ns
            save_sharded_checkpoint(ckpt_dir, engine)
        after = _mtimes(ckpt_dir)
        for name in ("shard-0000.npz", "shard-0001.npz", "shard-0002.npz"):
            assert after[name] == before[name], name
        assert after["model.npz"] == before["model.npz"]
        # The manifest itself commits every save.
        assert (ckpt_dir / MANIFEST_NAME).stat().st_mtime_ns >= manifest_before

    def test_partial_churn_rewrites_only_dirty_shards(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        """An add touches the least-loaded shard; only its file rewrites."""
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 3
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine)
            before = _mtimes(ckpt_dir)
            engine.add_stations(
                1,
                thresholds=0.5,
                data_min=np.zeros(1),
                data_max=np.full(1, 60.0),
            )
            dirty = [s for s in range(3) if engine._dirty[s]]
            assert len(dirty) == 1
            save_sharded_checkpoint(ckpt_dir, engine)
            clean = [s for s in range(3) if s not in dirty]
            after = _mtimes(ckpt_dir)
            for s in clean:
                assert after[f"shard-{s:04d}.npz"] == before[f"shard-{s:04d}.npz"]
            for s in dirty:
                assert after[f"shard-{s:04d}.npz"] != before[f"shard-{s:04d}.npz"]

        # The delta save still loads cleanly and covers the grown fleet.
        restored, _ = load_sharded_checkpoint(ckpt_dir)
        with restored:
            assert restored.n_stations == N_STATIONS + 1

    def test_drop_marks_renumbered_shards_dirty(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        """Renumbering changes members fleet-wide; stale files must rewrite."""
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 3
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine)
            engine.drop_stations([0])
            save_sharded_checkpoint(ckpt_dir, engine)
        restored, _ = load_sharded_checkpoint(ckpt_dir)
        with restored:
            assert restored.n_stations == N_STATIONS - 1

    def test_full_rewrite_on_request(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 2
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine)
            before = _mtimes(ckpt_dir)
            save_sharded_checkpoint(ckpt_dir, engine, dirty_only=False)
        after = _mtimes(ckpt_dir)
        for name in before:
            assert after[name] != before[name], name

    def test_save_truncates_failover_journal(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 2
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            assert any(engine._journal)
            save_sharded_checkpoint(ckpt_dir, engine)
            assert not any(engine._journal)


class TestRejections:
    def test_member_file_points_at_manifest_loader(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        """PR 6's forward-compat stub, now load-bearing: a shard member
        fed to the single-file loader names the sharded loader."""
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 3
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine)
        with pytest.raises(CheckpointError, match="shard 0 of 3") as excinfo:
            load_checkpoint(ckpt_dir / "shard-0000.npz")
        assert "load_sharded_checkpoint" in str(excinfo.value)

    def test_corrupt_member_fails_checksum(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 2
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine)
        member = ckpt_dir / "shard-0001.npz"
        raw = bytearray(member.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        member.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_sharded_checkpoint(ckpt_dir)

    def test_truncated_member_reports_size(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 2
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine)
        member = ckpt_dir / "shard-0000.npz"
        member.write_bytes(member.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_sharded_checkpoint(ckpt_dir)

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_extra_file_names_its_path(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet, damage
    ):
        """The extra archive (the serve state of a sharded server
        checkpoint) is not in the checksummed member table, so its own
        read must turn a damaged zip into a CheckpointError."""
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 2
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine, extra={"note": np.arange(256.0)})
        extra_file = ckpt_dir / "extra.npz"
        raw = bytearray(extra_file.read_bytes())
        if damage == "truncate":
            raw = raw[:-16]
        else:
            raw[len(raw) // 2] ^= 0xFF
        extra_file.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="extra file") as excinfo:
            load_sharded_checkpoint(ckpt_dir)
        assert str(extra_file) in str(excinfo.value)

    def test_missing_manifest_names_single_file_loader(self, tmp_path):
        with pytest.raises(CheckpointError, match="load_checkpoint"):
            load_sharded_checkpoint(tmp_path)

    def test_wrong_format_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "nope"}))
        with pytest.raises(CheckpointError, match="not a sharded"):
            load_sharded_checkpoint(tmp_path)

    def test_missing_member_file_rejected(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet
    ):
        ckpt_dir = tmp_path / "ckpt"
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), 2
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            save_sharded_checkpoint(ckpt_dir, engine)
        (ckpt_dir / "shard-0001.npz").unlink()
        with pytest.raises(CheckpointError, match="missing"):
            load_sharded_checkpoint(ckpt_dir)
