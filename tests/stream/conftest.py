"""Shard-suite plumbing: tiny calibrated pipelines over synthetic fleets.

The parity tests need *several identically-initialized* engines (the
sharded fleet and its single-process reference), so the builder is a
function of (autoencoder, fleet) rather than a one-shot fixture — same
pattern as ``tests/serve/conftest.py``.

The autoencoder is deliberately compact: subset-vs-full forward passes
are bit-identical only while the BLAS kernels underneath don't
specialize on batch shape, which holds for these unit counts (regression
coverage in ``tests/stream/test_stream_parity.py``) and is the size
regime the shard-parity contract is stated for.
"""

import io

import numpy as np
import pytest

from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.stream import (
    StreamingDetector,
    StreamingMinMaxScaler,
    StreamReplayEngine,
)


@pytest.fixture(scope="package")
def shard_autoencoder():
    config = AutoencoderConfig(
        sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
    )
    return LSTMAutoencoder(config, seed=11)


def build_fleet_engine(
    autoencoder,
    fleet: np.ndarray,
    mitigator: str | None = "hold_last_good",
    adaptive: bool = False,
) -> StreamReplayEngine:
    """A calibrated impute-capable pipeline over ``fleet``'s bounds.

    Deterministic in its inputs: two calls yield engines with
    bit-identical decisions — the sharded/single comparison baseline.
    """
    scaler = StreamingMinMaxScaler.from_bounds(
        np.nanmin(fleet, axis=1), np.nanmax(fleet, axis=1)
    )
    detector = StreamingDetector(
        autoencoder,
        fleet.shape[0],
        scaler=scaler,
        threshold="p2" if adaptive else None,
        min_calibration_scores=5,
        missing="impute",
    )
    detector.calibrate(fleet)
    return StreamReplayEngine(detector, mitigator=mitigator)


def savez_killed_halfway(monkeypatch) -> None:
    """Make ``np.savez`` write half an archive, then fail like a kill."""
    real_savez = np.savez

    def killed(file, **arrays):
        buffer = io.BytesIO()
        real_savez(buffer, **arrays)
        file.write(buffer.getvalue()[: buffer.tell() // 2])
        raise OSError("killed mid-save")

    monkeypatch.setattr(np, "savez", killed)
