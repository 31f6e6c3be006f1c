"""Stream-suite plumbing: tiny calibrated pipelines over synthetic fleets.

The checkpoint tests need *several identically-initialized* engines (the
resumed run and its uninterrupted reference), so the builder is a
function of (autoencoder, fleet) rather than a one-shot fixture — same
pattern as ``tests/serve/conftest.py``.

The checkpoint suites share the write-failure and archive-edit helpers
at the bottom.
"""

import hashlib
import io
import json
import zipfile

import numpy as np
import pytest

from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.stream import checkpoint as ckpt
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


def build_fleet_engine(
    autoencoder,
    fleet: np.ndarray,
    mitigator: str | None = "hold_last_good",
) -> StreamReplayEngine:
    """A calibrated impute-capable pipeline over ``fleet``'s bounds.

    Deterministic in its inputs: two calls yield engines with
    bit-identical decisions — the resume-parity baseline.
    """
    scaler = StreamingMinMaxScaler.from_bounds(
        np.nanmin(fleet, axis=1), np.nanmax(fleet, axis=1)
    )
    detector = StreamingDetector(autoencoder, fleet.shape[0], scaler=scaler, missing="impute")
    detector.calibrate(fleet)
    return StreamReplayEngine(detector, mitigator=mitigator)


def _killed_mid_save() -> None:
    raise OSError("killed mid-save")


def fail_nth_write(monkeypatch, n: int, fail=_killed_mid_save) -> None:
    """Make the ``n``-th checkpoint file write die halfway through.

    The write gets half its bytes into the temp file, then ``fail()``
    runs: by default it raises ``OSError("killed mid-save")``; a real
    kill passes a function that SIGKILLs the process.
    """
    real_write_atomic = ckpt.write_atomic
    calls = 0

    def flaky(path, write):
        nonlocal calls
        calls += 1
        if calls != n:
            return real_write_atomic(path, write)

        def half(fh):
            buffer = io.BytesIO()
            write(buffer)
            fh.write(buffer.getvalue()[: buffer.tell() // 2])
            fh.flush()
            fail()

        return real_write_atomic(path, half)

    monkeypatch.setattr(ckpt, "write_atomic", flaky)


def replace_file(ckpt_dir, name: str, data: bytes) -> None:
    """Overwrite the listed file ``name`` and re-hash its manifest entry.

    The loader then gets past its size and checksum checks to the
    file's contents.
    """
    (ckpt_dir / name).write_bytes(data)
    manifest_path = ckpt_dir / ckpt.MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    for entry in [manifest["model"], manifest["state"], manifest["extra"]]:
        if entry is not None and entry["file"] == name:
            entry["bytes"] = len(data)
            entry["sha256"] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def rewrite_archive(ckpt_dir, name: str, mutate) -> None:
    """Apply ``mutate`` to the arrays of archive ``name``; re-save and re-hash it."""
    with np.load(ckpt_dir / name, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    mutate(arrays)
    # np.savez's layout written by hand: savez(file, **arrays) rejects a
    # fuzzed key named "file" or "allow_pickle".
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for key, value in arrays.items():
            with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(value), allow_pickle=True)
    replace_file(ckpt_dir, name, buffer.getvalue())
