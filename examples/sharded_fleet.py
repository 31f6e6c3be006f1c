"""Horizontal scale-out: one fleet pipeline across worker processes.

``StreamReplayEngine`` scores the whole fleet in one process.  This
example partitions the same calibrated pipeline across N shard workers
with ``create_engine(detector, ..., shards=N)`` — the factory that
picks the deployment shape — and demonstrates the three guarantees
that make the scale-out transparent:

 1. **bit-exactness** — the sharded fleet's flags/scores/mitigated are
    compared bit-for-bit against a single-process replay of the same
    stream;
 2. **failover** — one worker is SIGKILLed mid-stream; the parent
    respawns it from its snapshot, replays the gap journal, and the
    output never forks;
 3. **incremental checkpoints** — the fleet checkpoints to a manifest
    directory with one member file per shard and resumes from it, still
    bit-exact; a re-save rewrites only the shards that changed.

Run:  PYTHONPATH=src python examples/sharded_fleet.py
Takes a few seconds.
Set REPRO_EXAMPLES_SMOKE=1 for the (slightly smaller) CI profile.
"""

import os
import signal
import tempfile

import numpy as np

from repro.anomaly import AutoencoderConfig, LSTMAutoencoder
from repro.stream import (
    StreamingDetector,
    StreamingMinMaxScaler,
    create_engine,
    load_checkpoint,
    save_checkpoint,
    synthesize_fleet,
)

SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE") == "1"
SEED = 17
N_STATIONS = 12 if SMOKE else 30
N_SHARDS = 3
N_TICKS = 48 if SMOKE else 120
BLOCK = 4

# One compact autoencoder serves every station (see
# examples/streaming_detection.py for the trained, paper-scale variant;
# sharding is orthogonal to model quality, so a seeded untrained model
# keeps this demo fast).
config = AutoencoderConfig(
    sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
)
autoencoder = LSTMAutoencoder(config, seed=SEED)

train = synthesize_fleet(N_STATIONS, 80, seed=SEED)
live = synthesize_fleet(N_STATIONS, N_TICKS, seed=SEED + 1, dropout_rate=0.03)


def build_detector() -> StreamingDetector:
    """A calibrated impute-capable detector (fresh, deterministic)."""
    scaler = StreamingMinMaxScaler.from_bounds(
        np.nanmin(train, axis=1), np.nanmax(train, axis=1)
    )
    detector = StreamingDetector(
        autoencoder, N_STATIONS, scaler=scaler, missing="impute"
    )
    detector.calibrate(train)
    return detector


# ``create_engine`` is the deployment-shape dial: the same call builds
# the single-process reference and the multi-process fleet — no
# branching anywhere downstream.

# 1. The single-process reference replay.
reference = create_engine(build_detector(), "hold_last_good").run(live, block_size=BLOCK)

# 2. The same pipeline, scattered across N_SHARDS worker processes.
engine = create_engine(build_detector(), "hold_last_good", shards=N_SHARDS, seed=SEED)
print(f"sharded fleet: {engine!r}")
print(f"stations per shard: {engine.plan.counts().tolist()}")

flags = np.zeros_like(reference.flags)
mitigated = np.zeros_like(reference.mitigated)
with engine:
    for t in range(0, N_TICKS, BLOCK):
        if t == N_TICKS // 2:
            # 3. Mid-stream fault: SIGKILL one worker.  The parent
            # respawns it from its last snapshot and replays the
            # journal — the stream continues as if nothing happened.
            victim = engine._workers[1].process
            print(f"tick {t}: killing shard 1 worker (pid {victim.pid}) ...")
            os.kill(victim.pid, signal.SIGKILL)
        block = live[:, t : t + BLOCK]
        b_flags, _scores, _missing, b_mitigated = engine.step_block(block)
        flags[:, t : t + BLOCK] = b_flags
        mitigated[:, t : t + BLOCK] = b_mitigated

    assert np.array_equal(flags, reference.flags)
    assert np.array_equal(mitigated, reference.mitigated, equal_nan=True)
    print(
        f"sharded output is bit-exact vs single process "
        f"({N_TICKS} ticks x {N_STATIONS} stations, failover included)"
    )

    # 4. Incremental checkpoint: a manifest directory with one member file
    # per shard; a re-save rewrites only shards that changed since.
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "fleet-ckpt")
        save_checkpoint(ckpt, engine)
        print(f"checkpoint: {sorted(os.listdir(ckpt))}")
        save_checkpoint(ckpt, engine)
        print(f"idle re-save keeps every member file: {sorted(os.listdir(ckpt))}")
        restored, _extra = load_checkpoint(ckpt)
        with restored:
            assert restored.tick == engine.tick
            more = synthesize_fleet(N_STATIONS, BLOCK, seed=SEED + 2)
            a = engine.step_block(more)
            b = restored.step_block(more)
            assert all(
                np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b)
            )
            print(f"restored fleet resumes bit-exactly at tick {restored.tick}")

print("done")
