"""Online streaming detection & mitigation over an attacked fleet.

The batch pipeline (see ``examples/quickstart.py``) detects anomalies by
re-scoring the full series offline.  This example runs the same
defence *online*: one trained LSTM autoencoder serves every station,
each tick scores the whole fleet in a single micro-batched forward
pass, and flagged readings are repaired causally (from the past only —
a live stream has no future anchor to interpolate against).

Pipeline:
 1. generate the paper's three zones, scaled out to a 30-station fleet;
 2. train ONE autoencoder on pooled normal (scaled) windows;
 3. calibrate a per-station 98th-percentile threshold;
 4. inject independently-scheduled DDoS volume spikes into every station;
 5. replay the attacked fleet tick-by-tick and report throughput,
    per-tick latency, and the paper's detection metrics.

Run:  PYTHONPATH=src python examples/streaming_detection.py
Takes about a minute (reduced-scale model).
Set REPRO_EXAMPLES_SMOKE=1 for the seconds-scale CI profile.
"""

import os
import tempfile

import numpy as np

from repro.anomaly import AutoencoderConfig, LSTMAutoencoder, aggregate_detection_metrics
from repro.attacks import AttackScenario, DDoSVolumeAttack
from repro.data import make_autoencoder_windows
from repro.stream import (
    StreamingDetector,
    StreamingMinMaxScaler,
    StreamReplayEngine,
    load_checkpoint,
    save_checkpoint,
    synthesize_fleet,
)

SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE") == "1"
SEED = 7
SEQUENCE_LENGTH = 24
N_STATIONS = 6 if SMOKE else 30
N_TICKS = 240 if SMOKE else 600
AE_EPOCHS = 2 if SMOKE else 10
DROPOUT_RATE = 0.03  # fraction of readings lost in transit (NaN)

# 1. Fleet: the paper's zone profiles tiled out to N_STATIONS stations.
fleet = synthesize_fleet(N_STATIONS, N_TICKS, seed=SEED)
print(f"fleet: {N_STATIONS} stations x {N_TICKS} hourly ticks")

# Normal history (first 80%) calibrates everything; the rest is streamed.
boundary = int(N_TICKS * 0.8)
normal_history = fleet[:, :boundary]

# 2. One shared autoencoder on pooled scaled normal windows: per-station
#    MinMax scaling puts every station on [0, 1], so a single model
#    serves the whole fleet (this is what makes micro-batching possible).
scaler = StreamingMinMaxScaler.from_bounds(
    normal_history.min(axis=1), normal_history.max(axis=1)
)
scaled_history = scaler.transform_fleet(normal_history)
windows = np.concatenate(
    [
        make_autoencoder_windows(scaled_history[j], SEQUENCE_LENGTH, stride=4)
        for j in range(N_STATIONS)
    ]
)
config = AutoencoderConfig(
    sequence_length=SEQUENCE_LENGTH,
    encoder_units=(32, 16),
    decoder_units=(16, 32),
    epochs=AE_EPOCHS,
    patience=3,
)
autoencoder = LSTMAutoencoder(config, seed=SEED)
print(f"training shared autoencoder on {len(windows)} pooled normal windows ...")
autoencoder.fit(windows)

# 3. Per-station 98th-percentile thresholds from each station's own
#    normal-history scores (the paper's rule, one boundary per client).
#    missing="impute": dropped (NaN) readings are accepted as missing
#    data, imputed causally, and excluded from threshold adaptation.
detector = StreamingDetector(autoencoder, N_STATIONS, scaler=scaler, missing="impute")
thresholds = detector.calibrate(normal_history)
print(
    f"calibrated per-station thresholds: "
    f"min {thresholds.min():.5f}, median {np.median(thresholds):.5f}, "
    f"max {thresholds.max():.5f}"
)

# 4. Attack the streamed segment: independent DDoS schedules per station,
#    plus sensor dropout — a realistic fleet loses readings in transit.
scenario = AttackScenario([DDoSVolumeAttack()], name="streaming-demo")
attacked = fleet.copy()
labels = np.zeros(fleet.shape, dtype=bool)
for j in range(N_STATIONS):
    result = scenario.apply_to_series(fleet[j, boundary:], seed=SEED * 1000 + j)
    attacked[j, boundary:] = result.attacked
    labels[j, boundary:] = result.labels
rng = np.random.default_rng(SEED)
attacked[:, boundary:][rng.random(attacked[:, boundary:].shape) < DROPOUT_RATE] = np.nan
print(
    f"injected attacks: {int(labels.sum())} anomalous readings "
    f"({100 * labels[:, boundary:].mean():.1f}% of the streamed segment), "
    f"plus {int(np.isnan(attacked).sum())} dropped readings"
)

# 5. Replay the attacked fleet through detection + causal mitigation.
#    (The detector streams the full timeline; flags before the boundary
#    are false positives by construction since no attack runs there.)
engine = StreamReplayEngine(detector, mitigator="seasonal_hold")
report = engine.run(attacked, labels)
print()
print(report.summary())

# Metrics restricted to the attacked (streamed) segment — the full-run
# numbers above also count the clean calibration region, where every
# flag is a false positive by construction.
segment = aggregate_detection_metrics(
    {
        f"station-{j}": (labels[j, boundary:], report.flags[j, boundary:])
        for j in range(N_STATIONS)
    }
)
print(
    f"streamed-segment detection: precision {segment.precision:.3f}, "
    f"recall {segment.recall:.3f}, f1 {segment.f1:.3f}, "
    f"fpr {100 * segment.false_positive_rate:.2f}%"
)

# How much damage did mitigation undo on attacked readings?  (Dropped
# attacked readings are excluded from the raw baseline: NaN has no
# error to measure, which is the point of imputing them.)
measurable = labels & ~np.isnan(attacked)
attacked_error = np.abs(attacked[measurable] - fleet[measurable]).mean()
mitigated_error = np.abs(report.mitigated[measurable] - fleet[measurable]).mean()
print(
    f"mean abs error on attacked readings: {attacked_error:.2f} kWh raw "
    f"-> {mitigated_error:.2f} kWh after causal repair; "
    f"{int(report.missing.sum())} missing readings imputed"
)

# 6. Operations: checkpoint the whole pipeline (detector state, scaler
#    bounds, mitigator anchors, autoencoder weights) into one checkpoint
#    directory and prove bit-exact resume in a "fresh process".
with tempfile.TemporaryDirectory() as tmp:
    path = save_checkpoint(os.path.join(tmp, "pipeline"), engine)
    size_kb = sum(f.stat().st_size for f in path.iterdir()) / 1e3
    resumed, _extra = load_checkpoint(path)
    assert resumed.detector.tick == detector.tick
    print(
        f"\ncheckpointed the full pipeline to a {size_kb:.0f} kB directory "
        f"({', '.join(sorted(f.name for f in path.iterdir()))}) and restored it "
        f"at tick {resumed.detector.tick} — ready to resume"
    )
