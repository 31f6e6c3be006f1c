"""Shard failover: killed workers respawn and the stream never forks.

Property under test: for any kill point and any victim shard, the
gathered output of the run with the kill equals the uninterrupted run
bit-for-bit — the respawned worker replays its journal gap from the
last snapshot and lands in the exact state it died with.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import obs
from repro.stream.checkpoint import save_checkpoint
from repro.stream.engine import synthesize_fleet
from repro.stream.shard import ShardedFleetEngine, ShardFailoverError

from .conftest import build_fleet_engine

N_STATIONS = 9
N_TICKS = 24
N_SHARDS = 3


@pytest.fixture(scope="module")
def train_fleet():
    return synthesize_fleet(N_STATIONS, 60, seed=51)


@pytest.fixture(scope="module")
def live_fleet():
    return synthesize_fleet(N_STATIONS, N_TICKS, seed=52, dropout_rate=0.05)


@pytest.fixture(scope="module")
def reference(shard_autoencoder, train_fleet, live_fleet):
    return build_fleet_engine(shard_autoencoder, train_fleet).run(
        live_fleet, block_size=4
    )


def _kill_worker(engine, shard):
    worker = engine._workers[shard]
    os.kill(worker.process.pid, signal.SIGKILL)
    worker.process.join(timeout=5.0)


def _run_blocks(engine, fleet, reference, start=0):
    """Step 4-wide blocks from ``start``, asserting parity per block."""
    for t in range(start, N_TICKS, 4):
        block = fleet[:, t : t + 4]
        flags, scores, missing, mitigated = engine.step_block(block)
        sl = slice(t, t + 4)
        assert np.array_equal(flags, reference.flags[:, sl])
        assert np.array_equal(scores, reference.scores[:, sl], equal_nan=True)
        assert np.array_equal(missing, reference.missing[:, sl])
        assert np.array_equal(
            mitigated, reference.mitigated[:, sl], equal_nan=True
        )


class TestFailover:
    @pytest.mark.parametrize("kill_tick", [0, 8, 20])
    @pytest.mark.parametrize("victim", [0, 2])
    def test_kill_one_worker_output_uninterrupted(
        self, shard_autoencoder, train_fleet, live_fleet, reference,
        kill_tick, victim,
    ):
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), N_SHARDS, seed=3
        ) as engine:
            for t in range(0, N_TICKS, 4):
                if t == kill_tick:
                    _kill_worker(engine, victim)
                block = live_fleet[:, t : t + 4]
                flags, scores, missing, mitigated = engine.step_block(block)
                sl = slice(t, t + 4)
                assert np.array_equal(flags, reference.flags[:, sl])
                assert np.array_equal(
                    scores, reference.scores[:, sl], equal_nan=True
                )
                assert np.array_equal(missing, reference.missing[:, sl])
                assert np.array_equal(
                    mitigated, reference.mitigated[:, sl], equal_nan=True
                )

    def test_kill_after_checkpoint_replays_short_journal(
        self, tmp_path, shard_autoencoder, train_fleet, live_fleet, reference
    ):
        """A checkpoint refreshes the snapshot; the gap replay is only
        the commands issued since, not the whole history."""
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), N_SHARDS
        ) as engine:
            _run_blocks(engine, live_fleet, reference, start=0)
        # Fresh engine: step half, checkpoint, step some, kill, finish.
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), N_SHARDS
        ) as engine:
            for t in range(0, 12, 4):
                engine.step_block(live_fleet[:, t : t + 4])
            save_checkpoint(tmp_path / "ckpt", engine)
            assert all(len(j) == 0 for j in engine._journal)
            engine.step_block(live_fleet[:, 12:16])
            assert all(len(j) == 1 for j in engine._journal)
            _kill_worker(engine, 1)
            _run_blocks(engine, live_fleet, reference, start=16)

    def test_kill_multiple_workers_sequentially(
        self, shard_autoencoder, train_fleet, live_fleet, reference
    ):
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), N_SHARDS
        ) as engine:
            for t in range(0, N_TICKS, 4):
                if t == 8:
                    _kill_worker(engine, 0)
                if t == 12:
                    _kill_worker(engine, 1)
                if t == 16:
                    _kill_worker(engine, 2)
                block = live_fleet[:, t : t + 4]
                flags, scores, missing, mitigated = engine.step_block(block)
                sl = slice(t, t + 4)
                assert np.array_equal(flags, reference.flags[:, sl])
                assert np.array_equal(
                    mitigated, reference.mitigated[:, sl], equal_nan=True
                )

    def test_kill_survives_churn_in_journal(
        self, shard_autoencoder, train_fleet, live_fleet
    ):
        """The journal replays churn commands too, not just blocks."""
        single = build_fleet_engine(shard_autoencoder, train_fleet)
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet), N_SHARDS
        ) as engine:
            for t in range(0, 8, 4):
                block = live_fleet[:, t : t + 4]
                single.step_block(block)
                engine.step_block(block)
            single.drop_stations([4])
            engine.drop_stations([4])
            _kill_worker(engine, 0)
            shrunk = synthesize_fleet(N_STATIONS - 1, 8, seed=53)
            for t in range(0, 8, 4):
                block = shrunk[:, t : t + 4]
                a = single.step_block(block)
                b = engine.step_block(block)
                for x, y in zip(a, b):
                    assert np.array_equal(x, y, equal_nan=True)

    def test_respawn_metric_increments(
        self, shard_autoencoder, train_fleet, live_fleet, reference
    ):
        obs.enable(obs.MetricsRegistry())
        try:
            with ShardedFleetEngine(
                build_fleet_engine(shard_autoencoder, train_fleet), N_SHARDS
            ) as engine:
                engine.step_block(live_fleet[:, :4])
                _kill_worker(engine, 1)
                engine.step_block(live_fleet[:, 4:8])
            reg = obs.registry()
            counter = reg.counter(
                "repro_shard_respawns_total", labels={"shard": "1"}
            )
            assert counter.value == 1
        finally:
            obs.disable()


class TestFailoverDisabled:
    def test_dead_worker_raises(self, shard_autoencoder, train_fleet, live_fleet):
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet),
            N_SHARDS,
            failover=False,
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            _kill_worker(engine, 1)
            with pytest.raises(ShardFailoverError, match="failover is disabled"):
                engine.step_block(live_fleet[:, 4:8])

    def test_no_journal_kept(self, shard_autoencoder, train_fleet, live_fleet):
        with ShardedFleetEngine(
            build_fleet_engine(shard_autoencoder, train_fleet),
            N_SHARDS,
            failover=False,
        ) as engine:
            engine.step_block(live_fleet[:, :4])
            assert all(len(j) == 0 for j in engine._journal)


#: Owner process: builds a 2-shard engine, reports its worker pids, idles.
_OWNER = """
import time
from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.stream import StreamingDetector, StreamReplayEngine, synthesize_fleet
from repro.stream.shard import ShardedFleetEngine

config = AutoencoderConfig(
    sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
)
detector = StreamingDetector(LSTMAutoencoder(config, seed=11), 4, threshold=0.5)
engine = ShardedFleetEngine(StreamReplayEngine(detector, "hold_last_good"), 2)
engine.step_block(synthesize_fleet(4, 8, seed=1))
print(*(worker.process.pid for worker in engine._workers), flush=True)
time.sleep(600)
"""


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestOrphanedWorkers:
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
    def test_workers_exit_when_their_owner_is_sigkilled(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        with open(tmp_path / "owner.err", "w+") as err:
            # The workers inherit the owner's stdout: read one line, never
            # wait for EOF on it.
            owner = subprocess.Popen(
                [sys.executable, "-c", _OWNER], env=env, stdout=subprocess.PIPE, stderr=err,
                text=True,
            )
            try:
                pids = [int(pid) for pid in owner.stdout.readline().split()]
            finally:
                owner.kill()
                owner.wait()
                owner.stdout.close()
            err.seek(0)
            assert len(pids) == 2, err.read()
        deadline = time.monotonic() + 30.0
        while not all(_gone(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = [pid for pid in pids if not _gone(pid)]
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
        assert not alive, f"shard workers {alive} outlived their SIGKILLed owner"
