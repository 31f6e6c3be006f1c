"""Shared serving-test plumbing: a tiny calibrated pipeline factory.

The soak tests need *several identically-initialized* engines (one to
serve, one for the offline reference replay), so the factory is a
function of (autoencoder, fleet) rather than a one-shot fixture.

``REPRO_SERVE_PROTOCOL=1`` in the environment pins every client built
through :func:`client_versions` to protocol v1 — CI runs the chaos
soaks once per protocol version with the same test code.
"""

import os

import numpy as np
import pytest

from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.serve.protocol import PROTOCOL_VERSIONS
from repro.stream import (
    StreamingDetector,
    StreamingMinMaxScaler,
    StreamReplayEngine,
)


@pytest.fixture(scope="package")
def small_autoencoder():
    config = AutoencoderConfig(
        sequence_length=8, encoder_units=(6, 3), decoder_units=(3, 6), dropout=0.0
    )
    return LSTMAutoencoder(config, seed=11)


def client_versions() -> tuple[int, ...]:
    """Protocol versions test clients should offer in HELLO.

    Defaults to everything the SDK speaks; ``REPRO_SERVE_PROTOCOL=1``
    pins v1 so the same soak exercises the legacy wire format.
    """
    pinned = os.environ.get("REPRO_SERVE_PROTOCOL", "")
    if pinned:
        return tuple(range(1, int(pinned) + 1))
    return PROTOCOL_VERSIONS


def build_engine(
    autoencoder,
    fleet: np.ndarray,
    mitigator: str = "hold_last_good",
) -> StreamReplayEngine:
    """A calibrated impute-capable pipeline over ``fleet``'s bounds.

    Deterministic in its inputs: calling it twice yields two engines
    that produce bit-identical decisions — the soak tests' foundation.
    """
    scaler = StreamingMinMaxScaler.from_bounds(np.nanmin(fleet, axis=1), np.nanmax(fleet, axis=1))
    detector = StreamingDetector(autoencoder, fleet.shape[0], scaler=scaler, missing="impute")
    detector.calibrate(fleet)
    return StreamReplayEngine(detector, mitigator)
