"""Inputs, the system under test, and the measurements every workload shares.

Everything a run needs is generated from its seed before the clock
starts: the fleet (``synthesize_fleet``), independent DDoS schedules per
station, 1% NaN dropout, and an autoencoder trained on normal windows.
The system under test is then *restored* from that trained snapshot,
calibrated and wired into an engine — the part timed as set-up, because
it is what a service restart pays.
"""

from __future__ import annotations

import io
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.anomaly.metrics import detection_metrics
from repro.attacks.ddos import DDoSVolumeAttack
from repro.attacks.scenario import AttackScenario
from repro.data.datasets import ClientDataset
from repro.data.windowing import sliding_windows
from repro.nn.serialization import model_from_config, model_to_config
from repro.stream import (
    StreamingDetector,
    StreamingMinMaxScaler,
    StreamReplayEngine,
    attack_fleet,
    synthesize_fleet,
)

#: The compact fleet-scale autoencoder: L=12, 8-4 encoder, 4-8 decoder.
MODEL = AutoencoderConfig(
    sequence_length=12, encoder_units=(8, 4), decoder_units=(4, 8), epochs=12, batch_size=64
)
#: Normal history per station, for training and threshold calibration.
HISTORY_TICKS = 48
#: Stations whose normal windows train the shared model.
TRAIN_STATIONS = 48
DROPOUT = 0.01
MITIGATOR = "causal_linear"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Snapshot:
    """A trained autoencoder as a service stores it: architecture + weights."""

    config: dict
    weights: bytes


@dataclass
class SystemSpec:
    """What set-up needs to build the system: model, bounds, normal history."""

    snapshot: Snapshot
    history: np.ndarray
    data_min: np.ndarray
    data_max: np.ndarray


@dataclass
class Inputs:
    spec: SystemSpec
    #: Attacked readings with dropout NaNs, ``(n_stations, n_ticks)``.
    fleet: np.ndarray
    clean: np.ndarray
    labels: np.ndarray


def make_inputs(n_stations: int, n_ticks: int, seed: int) -> Inputs:
    """Generate every input of a run from ``seed`` (untimed)."""
    series = synthesize_fleet(n_stations, HISTORY_TICKS + n_ticks, seed=seed)
    history, clean = series[:, :HISTORY_TICKS], series[:, HISTORY_TICKS:]
    # One zone id per station: AttackScenario seeds schedules by zone.
    clients = [ClientDataset(f"station-{j}", f"station-{j}", clean[j]) for j in range(n_stations)]
    fleet, labels, _ = attack_fleet(
        clients, AttackScenario([DDoSVolumeAttack()]), seed=seed + 1, dropout_rate=DROPOUT
    )
    data_min, data_max = history.min(axis=1), history.max(axis=1)
    snapshot = train_snapshot(history, data_min, data_max, seed)
    spec = SystemSpec(snapshot, history, data_min, data_max)
    return Inputs(spec, fleet, clean, labels)


def train_snapshot(
    history: np.ndarray, data_min: np.ndarray, data_max: np.ndarray, seed: int
) -> Snapshot:
    n = min(TRAIN_STATIONS, history.shape[0])
    scaled = (history[:n] - data_min[:n, None]) / (data_max[:n] - data_min[:n])[:, None]
    windows = np.concatenate([sliding_windows(row, MODEL.sequence_length) for row in scaled])
    autoencoder = LSTMAutoencoder(MODEL, seed=seed)
    autoencoder.fit(windows[:, :, None])
    buffer = io.BytesIO()
    np.savez(buffer, *autoencoder.model.get_weights())
    return Snapshot(model_to_config(autoencoder.model), buffer.getvalue())


def restore(snapshot: Snapshot) -> LSTMAutoencoder:
    model = model_from_config(snapshot.config)
    with np.load(io.BytesIO(snapshot.weights)) as archive:
        model.set_weights([archive[f"arr_{i}"] for i in range(len(archive.files))])
    return LSTMAutoencoder.from_model(MODEL, model)


def build_system(spec: SystemSpec) -> tuple[StreamReplayEngine, dict[str, float]]:
    """Restore, calibrate and wire one engine; returns it with phase times."""
    start = time.perf_counter()
    autoencoder = restore(spec.snapshot)
    restored = time.perf_counter()
    scaler = StreamingMinMaxScaler.from_bounds(spec.data_min, spec.data_max)
    detector = StreamingDetector(autoencoder, len(spec.data_min), scaler=scaler, missing="impute")
    built_detector = time.perf_counter()
    detector.calibrate(spec.history)
    calibrated = time.perf_counter()
    # Open loop: repairs are not written back into the windows.  On this
    # synthetic fleet the closed loop runs away (most readings flagged,
    # repairs worse than the attack), which no operator would run.
    engine = StreamReplayEngine(detector, mitigator=MITIGATOR, feedback=False)
    done = time.perf_counter()
    return engine, {
        "restore_s": restored - start,
        "calibrate_s": calibrated - built_detector,
        "build_s": (built_detector - restored) + (done - calibrated),
    }


def median_phases(phases: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in phases) for key in phases[0]}


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Passes:
    """Equal timed passes: ``ticks`` stream ticks each, pass 0 is warm-up."""

    ticks: int
    #: Wall-clock start and end of every completed pass, pass 0 included.
    starts: list[float]
    ends: list[float]
    #: Host speed measured next to each pass (see :mod:`hostspeed`).
    speeds: list[float]

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def timed(self) -> np.ndarray:
        """Indices of the passes that count (every pass after warm-up)."""
        return np.arange(1, len(self.ends))

    def readings_per_s(self, n_stations: int, which: np.ndarray | None = None) -> float:
        """Median pass rate, each pass divided by its host speed."""
        which = self.timed() if which is None else which
        if which.size == 0:
            raise RuntimeError("no timed pass completed after warm-up")
        rates = self.ticks * n_stations / self.durations()[which]
        return float(np.median(rates / np.asarray(self.speeds)[which]))


def quality(
    flags: np.ndarray,
    mitigated: np.ndarray,
    fleet: np.ndarray,
    clean: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, float]:
    """``(detect_f1, recovered_pct)`` on one streamed segment.

    ``recovered_pct`` is ``100 * (1 - MAE(repaired, clean) /
    MAE(attacked, clean))`` over attacked readings that were delivered.
    """
    f1 = detection_metrics(labels.ravel(), flags.ravel()).f1
    attacked = labels & ~np.isnan(fleet)
    before = np.abs(fleet[attacked] - clean[attacked]).mean()
    after = np.abs(mitigated[attacked] - clean[attacked]).mean()
    return float(f1), float(100.0 * (1.0 - after / before))


class CheckFailed(RuntimeError):
    """A correctness check of the run failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def same(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-identical, NaNs included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
