"""Observability tour: metrics, stage tracing, and exposition.

Runs the streaming defence with ``repro.obs`` enabled and shows every
export path the package offers:

 1. enable the process-local metrics registry (same switch as the
    ``REPRO_OBS=1`` environment variable);
 2. replay an attacked fleet in block mode — the engine and detector
    fill stage-span histograms (validate / scale+buffer / forward /
    threshold / mitigate), per-block latency histograms, and counters
    for readings, flags and missing readings as a side effect;
 3. checkpoint the pipeline (save/load durations, checkpoint bytes and
    member files written land in the same registry);
 4. stream periodic JSONL snapshots with :class:`~repro.obs.JsonlSink`;
 5. print the Prometheus text exposition — paste-ready for any scrape
    endpoint or pushgateway.

Observability never changes results: flags/scores/mitigated outputs are
bit-identical with the registry on or off (see ``tests/obs``).

Run:  PYTHONPATH=src python examples/streaming_metrics.py
Takes a few seconds.
Set REPRO_EXAMPLES_SMOKE=1 for the minimal CI profile.
"""

import os
import tempfile

import numpy as np

from repro import obs
from repro.anomaly import AutoencoderConfig, LSTMAutoencoder
from repro.data import make_autoencoder_windows
from repro.obs import JsonlSink, render_prometheus
from repro.stream import (
    StreamingDetector,
    StreamingMinMaxScaler,
    StreamReplayEngine,
    load_checkpoint,
    save_checkpoint,
    synthesize_fleet,
)

SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE") == "1"
SEED = 11
SEQUENCE_LENGTH = 12
N_STATIONS = 4 if SMOKE else 12
N_TICKS = 120 if SMOKE else 360
AE_EPOCHS = 1 if SMOKE else 4
BLOCK_SIZE = 12

# 1. Flip the switch.  Everything below fills this registry as a side
#    effect of just running the pipeline — no callbacks to wire up.
registry = obs.enable()
print(f"observability enabled: {registry!r}")

# 2. Train a small shared autoencoder and replay an attacked fleet.
fleet = synthesize_fleet(N_STATIONS, N_TICKS, seed=SEED)
boundary = int(N_TICKS * 0.8)
normal_history = fleet[:, :boundary]
scaler = StreamingMinMaxScaler.from_bounds(normal_history.min(axis=1), normal_history.max(axis=1))
scaled_history = scaler.transform_fleet(normal_history)
windows = np.concatenate(
    [
        make_autoencoder_windows(scaled_history[j], SEQUENCE_LENGTH, stride=4)
        for j in range(N_STATIONS)
    ]
)
config = AutoencoderConfig(
    sequence_length=SEQUENCE_LENGTH,
    encoder_units=(16, 8),
    decoder_units=(8, 16),
    epochs=AE_EPOCHS,
    patience=2,
)
autoencoder = LSTMAutoencoder(config, seed=SEED)
print(f"training autoencoder on {len(windows)} windows (epochs timed into the registry) ...")
autoencoder.fit(windows)

detector = StreamingDetector(autoencoder, N_STATIONS, scaler=scaler)
detector.calibrate(normal_history)
engine = StreamReplayEngine(detector, mitigator="hold_last_good")

# Spike a few readings so the flag counters have something to count.
attacked = fleet[:, boundary:].copy()
rng = np.random.default_rng(SEED)
spikes = rng.random(attacked.shape) < 0.02
attacked[spikes] *= 8.0

# A JSONL sink inside the loop would normally pace itself with
# maybe_write(interval_seconds=...); one snapshot per phase is plenty
# for this example.
out_dir = tempfile.mkdtemp(prefix="repro-obs-")
sink = JsonlSink(os.path.join(out_dir, "metrics.jsonl"))

report = engine.run(attacked, block_size=BLOCK_SIZE)
sink.write(registry)
print(report.summary())

# 3. Checkpoint round-trip: durations and checkpoint size join the registry.
path = save_checkpoint(os.path.join(out_dir, "pipeline"), engine)
load_checkpoint(path)
sink.write(registry)

# 4. What accumulated, in plain python ...
snapshot = registry.snapshot()
readings = snapshot["counters"]["repro_stream_readings_total"]["value"]
flags = snapshot["counters"].get("repro_stream_flags_total", {"value": 0})["value"]
forward = snapshot["histograms"]["repro_stream_forward_seconds"]
print(
    f"\ncounted {readings:.0f} readings, {flags:.0f} flags; "
    f"forward pass: {forward['count']} spans, {1e3 * forward['sum']:.1f} ms total"
)
print(f"JSONL snapshots: {sink.snapshots_written} lines in {sink.path}")

# 5. ... and as a scrape-ready Prometheus exposition.
text = render_prometheus(registry)
print(f"\nPrometheus exposition ({len(text.splitlines())} lines); stream stages:")
for line in text.splitlines():
    if line.startswith("repro_stream_") and "_seconds_count " in line:
        print(f"  {line}")

obs.disable()
