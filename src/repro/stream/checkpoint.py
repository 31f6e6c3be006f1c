"""Checkpoint/restore for the streaming pipeline: one manifest directory.

A long-running stream deployment must survive process restarts: losing
the detector's ring buffers, scaler bounds, P² sketch, threshold state,
or the mitigator's anchors means minutes of warmup and different
decisions after every restart.  :func:`save_checkpoint` writes the
*entire* pipeline of a :class:`~repro.stream.engine.StreamReplayEngine`
to one directory::

    ckpt/
      manifest.json   format, pipeline recipe, tick, n_stations, file table
      model-<g>.npz   trained autoencoder weights
      state-<g>.npz   detector + mitigator state
      extra-<g>.npz   caller-provided named arrays (optional)

:func:`load_checkpoint` rebuilds the pipeline with **bit-exact resume
parity**: checkpoint at any tick/block boundary, reload, and the
remaining stream produces the same flags, scores and mitigated values an
uninterrupted run would have (see ``tests/stream/test_checkpoint.py``).

Saves are crash-consistent by construction.  Every file a save writes
gets a fresh generation suffix ``<g>``, so no file the committed
manifest references is ever overwritten; the manifest is replaced last,
atomically, and only after that commit are the files it no longer lists
deleted.  A save that fails or is killed at any point leaves the
previous checkpoint loadable.  Every save writes every file.

The loader verifies each referenced file against the manifest's size
and SHA-256, accepts only the bare file names the writer produces, and
reports every defect as :class:`CheckpointError` naming the offending
file.

Usage::

    from repro.stream import StreamReplayEngine, load_checkpoint, save_checkpoint

    engine = StreamReplayEngine(detector, mitigator="hold_last_good")
    engine.run(fleet[:, :5000], block_size=32)
    save_checkpoint("pipeline-ckpt", engine, extra={"position": np.asarray(5000)})

    # ... later, in a fresh process:
    restored, extra = load_checkpoint("pipeline-ckpt")
    restored.run(fleet[:, 5000:], block_size=32)

Only the built-in mitigation policies (the
:mod:`repro.stream.mitigation` registry) round-trip; a custom policy
class raises at save time rather than producing a checkpoint that cannot
be reloaded.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import time
import warnings
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro import obs
from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.nn import Adam
from repro.nn.serialization import model_from_config, model_to_config
from repro.stream._state import nest, unnest
from repro.stream.detector import StreamingDetector
from repro.stream.engine import StreamReplayEngine
from repro.stream.mitigation import _REGISTRY, StreamingMitigator
from repro.stream.scaler import StreamingMinMaxScaler

_FORMAT = "repro.stream.checkpoint"
#: 4: one ``state`` file and an ``n_stations`` record replace version
#: 3's table of member files and its station assignment.  Version 2 may
#: have been saved with the removed closed mitigation loop.  Neither is
#: resumed: both are rejected.
_VERSION = 4
MANIFEST_NAME = "manifest.json"
#: Every data file the writer produces: ``<role>-<generation>.npz``.
_DATA_FILE = re.compile(r"(?:model|state|extra)-(\d+)\.npz")


class CheckpointError(ValueError):
    """A checkpoint directory could not be read.

    Raised by :func:`load_checkpoint` when the manifest or a file it
    references is missing, truncated, corrupt, or inconsistent — always
    naming the offending path, instead of surfacing a raw
    ``json``/``zipfile``/numpy traceback.  Subclasses :class:`ValueError`
    so pre-existing callers catching that keep working.
    """


def write_atomic(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Crash-consistently replace ``path`` with what ``write`` emits.

    ``write`` fills a hidden sibling temp file, which is fsynced and
    then renamed over ``path`` (``os.replace`` is atomic); the directory
    is fsynced last so the rename itself is durable.  A failure or kill
    at any point leaves the previous ``path`` untouched.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if hasattr(os, "O_DIRECTORY"):  # POSIX: a directory can be fsynced
        fd = os.open(path.parent, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _library_version() -> str:
    # Imported lazily: repro.stream.checkpoint loads while the repro
    # package itself is still initialising.
    import repro

    return repro.__version__


def _mitigator_meta(mitigator: StreamingMitigator) -> dict:
    registered = _REGISTRY.get(mitigator.name)
    if registered is not type(mitigator):
        raise ValueError(
            f"cannot checkpoint mitigator {type(mitigator).__name__!r}: only "
            f"the built-in policies ({', '.join(sorted(_REGISTRY))}) can be "
            "rebuilt at load time"
        )
    return {"name": mitigator.name, "config": mitigator.get_config()}


def _pipeline_meta(
    detector: StreamingDetector,
    mitigator: StreamingMitigator | None,
) -> dict:
    """The JSON-serializable rebuild recipe for a pipeline.

    Everything :func:`_build_engine` needs to reconstruct the exact
    detector/mitigator *structure* apart from the fleet size, which the
    manifest records as ``n_stations``.  State travels separately as
    ``state_dict()`` arrays.  The manifest stores it as ``pipeline``.
    """
    return {
        "detector": {
            "percentile": detector.percentile,
            "min_calibration_scores": detector.min_calibration_scores,
            "missing": detector.missing,
            "adaptive": detector.adaptive is not None,
            "scaler": (
                None
                if detector.scaler is None
                else {"feature_range": list(detector.scaler.feature_range)}
            ),
        },
        "autoencoder": asdict(detector.autoencoder.config),
        "model": model_to_config(detector.autoencoder.model),
        "mitigator": None if mitigator is None else _mitigator_meta(mitigator),
    }


def _build_autoencoder(meta: dict, weights: list[np.ndarray]) -> LSTMAutoencoder:
    """Rebuild the exact saved autoencoder (architecture, dtype, weights)."""
    ae_config = dict(meta["autoencoder"])
    ae_config["encoder_units"] = tuple(ae_config["encoder_units"])
    ae_config["decoder_units"] = tuple(ae_config["decoder_units"])
    config = AutoencoderConfig(**ae_config)
    model = model_from_config(meta["model"])
    model.compile(optimizer=Adam(config.learning_rate), loss="mse")
    model.set_weights(weights)
    return LSTMAutoencoder.from_model(config, model)


def _build_engine(
    meta: dict, autoencoder: LSTMAutoencoder, state: dict, n_stations: int
) -> StreamReplayEngine:
    """Rebuild an engine from its recipe, model and state.

    The mitigator's no-anchor ``fallback`` is part of the serialized
    state: the engine constructor's automatic scaler wiring must not
    re-derive it from the *restored* bounds (which may have widened
    since the original engine was built), or the resumed run could
    repair no-anchor flags differently than the uninterrupted one.
    """
    detector_meta = meta["detector"]
    scaler = None
    if detector_meta["scaler"] is not None:
        scaler = StreamingMinMaxScaler(
            n_stations, feature_range=tuple(detector_meta["scaler"]["feature_range"])
        )
    detector = StreamingDetector(
        autoencoder,
        n_stations,
        scaler=scaler,
        threshold="p2" if detector_meta["adaptive"] else None,
        percentile=detector_meta["percentile"],
        min_calibration_scores=detector_meta["min_calibration_scores"],
        missing=detector_meta["missing"],
    )
    detector.load_state_dict(state["detector"])
    mitigator = None
    if meta["mitigator"] is not None:
        mitigator = _REGISTRY[meta["mitigator"]["name"]](n_stations, **meta["mitigator"]["config"])
        mitigator.load_state_dict(state["mitigator"])
    engine = StreamReplayEngine(detector, mitigator=mitigator)
    if mitigator is not None:
        fallback = mitigator.fallback.copy()
        engine.mitigator.set_fallback(fallback)
        # Keep the engine's wiring shortcut coherent with the restored
        # (possibly partially-unset) fallback.
        engine._fallback_wired = scaler is None or bool(np.isfinite(fallback).all())
    return engine


# ----------------------------------------------------------------------
# the manifest


def _generation(name: str) -> int | None:
    """Generation of a data file this writer produces (or of its temp file)."""
    if name.startswith(".") and name.endswith(".tmp"):
        name = name[1:-4]
    match = _DATA_FILE.fullmatch(name)
    return None if match is None else int(match.group(1))


def _is_int(value: object) -> bool:
    return type(value) is int


def _read_manifest(path: Path) -> dict:
    """Parse ``path``'s manifest and check its structure."""
    where = path / MANIFEST_NAME
    try:
        manifest = json.loads(where.read_bytes())
    except (OSError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"cannot read checkpoint manifest {where}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise CheckpointError(f"{where} is not a stream checkpoint manifest")
    if manifest.get("version") != _VERSION:
        raise CheckpointError(
            f"checkpoint manifest {where}: version {manifest.get('version')!r} is "
            f"not supported (this build reads version {_VERSION})"
        )
    problem = None
    if not _is_int(manifest.get("tick")) or manifest["tick"] < 0:
        problem = "no valid tick"
    elif not _is_int(manifest.get("n_stations")) or manifest["n_stations"] < 1:
        problem = "no valid station count"
    elif not isinstance(manifest.get("library", {}), dict):
        problem = "a malformed library record"
    elif not isinstance(manifest.get("pipeline"), dict):
        problem = "no valid pipeline recipe"
    else:
        for role in ("model", "state", "extra"):
            entry = manifest.get(role)
            if role == "extra" and entry is None:
                continue
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("file"), str)
                and entry["file"].startswith(f"{role}-")
                and _DATA_FILE.fullmatch(entry["file"])
                and _is_int(entry.get("bytes"))
                and isinstance(entry.get("sha256"), str)
            ):
                problem = f"a malformed {role} entry {entry!r}"
                break
    if problem is not None:
        raise CheckpointError(f"checkpoint manifest {where} has {problem}")
    return manifest


def _entries(manifest: dict) -> list[dict]:
    """The file-table entries ``manifest`` lists."""
    entries = [manifest["model"], manifest["state"], manifest.get("extra")]
    return [entry for entry in entries if entry is not None]


def _committed(path: Path) -> dict | None:
    """The directory's current manifest, or ``None`` if it has no valid one."""
    try:
        return _read_manifest(path)
    except CheckpointError:
        return None


# ----------------------------------------------------------------------
# save


def _write_archive(path: Path, name: str, arrays: dict, written: list[Path]) -> dict:
    """Write one archive crash-consistently; return its manifest entry."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    data = buffer.getvalue()
    written.append(path / name)
    write_atomic(path / name, lambda fh: fh.write(data))
    return {"file": name, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def save_checkpoint(
    path: str | Path,
    engine: StreamReplayEngine,
    extra: dict[str, np.ndarray] | None = None,
) -> Path:
    """Write (or refresh) the checkpoint directory ``path``; return it.

    ``extra`` stashes arbitrary named arrays (e.g. the replay position
    in an offline fleet matrix) alongside the pipeline; it is rewritten
    every save.
    """
    reg = obs.registry()
    save_start = time.perf_counter()
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    recipe = _pipeline_meta(engine.detector, engine.mitigator)
    generation = 1 + max(
        (g for f in path.iterdir() if (g := _generation(f.name)) is not None), default=-1
    )
    written: list[Path] = []
    try:
        weights = engine.detector.autoencoder.model.get_weights()
        arrays = {f"w{i}": w for i, w in enumerate(weights)}
        model = _write_archive(path, f"model-{generation}.npz", arrays, written)
        arrays = nest("detector", engine.detector.state_dict())
        if engine.mitigator is not None:
            arrays |= nest("mitigator", engine.mitigator.state_dict())
        state = _write_archive(path, f"state-{generation}.npz", arrays, written)
        extra_entry = None
        if extra:
            arrays = {key: np.asarray(value) for key, value in extra.items()}
            extra_entry = _write_archive(path, f"extra-{generation}.npz", arrays, written)
        manifest = {
            "format": _FORMAT,
            "version": _VERSION,
            # Provenance, read back at load time to warn on cross-version
            # restores.  Wall-clock time is the payload here, not hidden
            # state.
            "library": {
                "version": _library_version(),
                "numpy": np.__version__,
                "created_unix": time.time(),  # reprolint: disable=RPR004
            },
            "tick": int(engine.detector.tick),
            "n_stations": int(engine.n_stations),
            "pipeline": recipe,
            "model": model,
            "state": state,
            "extra": extra_entry,
        }
        text = json.dumps(manifest, indent=2) + "\n"
        # The commit point: every file the new manifest lists is durable.
        write_atomic(path / MANIFEST_NAME, lambda fh: fh.write(text.encode()))
    except BaseException:
        current = _committed(path)
        keep = set() if current is None else {entry["file"] for entry in _entries(current)}
        for file in written:
            if file.name not in keep:
                file.unlink(missing_ok=True)
        raise
    entries = _entries(manifest)
    keep = {entry["file"] for entry in entries}
    for file in path.iterdir():
        if _generation(file.name) is not None and file.name not in keep:
            file.unlink(missing_ok=True)
    if reg.enabled:
        reg.histogram(
            "repro_stream_checkpoint_save_seconds", help="Wall-clock of save_checkpoint."
        ).observe(time.perf_counter() - save_start)
        reg.counter("repro_stream_checkpoint_saves_total", help="Checkpoints written.").inc()
        reg.gauge(
            "repro_stream_checkpoint_bytes",
            help="Total size of the files the latest checkpoint manifest references.",
        ).set(float(sum(entry["bytes"] for entry in entries)))
    return path


# ----------------------------------------------------------------------
# load


def _read_archive(path: Path, entry: dict) -> dict[str, np.ndarray]:
    """Check one listed archive against the manifest's size + SHA-256, then read it."""
    file = path / entry["file"]
    where = path / MANIFEST_NAME
    try:
        data = file.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint file {file} listed in {where} is missing or unreadable ({exc})"
        ) from exc
    if len(data) != entry["bytes"]:
        raise CheckpointError(
            f"checkpoint file {file} is {len(data)} bytes, {where} records "
            f"{entry['bytes']}: truncated or partially rewritten"
        )
    if hashlib.sha256(data).hexdigest() != entry["sha256"]:
        raise CheckpointError(f"checkpoint file {file} fails the checksum {where} records")
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            return {key: archive[key] for key in archive.files}
    except Exception as exc:
        raise CheckpointError(
            f"cannot read checkpoint file {file} ({type(exc).__name__}: {exc})"
        ) from exc


def load_checkpoint(path: str | Path) -> tuple[StreamReplayEngine, dict[str, np.ndarray]]:
    """Rebuild the engine saved by :func:`save_checkpoint`; return ``(engine, extra)``.

    The engine resumes bit-exactly: same buffers, bounds, sketch
    markers, thresholds, tick counter, and autoencoder weights (rebuilt
    under the dtype the model was saved with, so inference arithmetic is
    unchanged).
    """
    reg = obs.registry()
    load_start = time.perf_counter()
    path = Path(path)
    where = path / MANIFEST_NAME
    manifest = _read_manifest(path)
    # Resuming across library versions is allowed — state layouts are
    # strictly validated downstream — but worth a warning, since
    # bit-exact resume parity is only promised within one build.
    saved_version = manifest.get("library", {}).get("version")
    if saved_version is not None and saved_version != _library_version():
        warnings.warn(
            f"checkpoint {path.name} was written by repro {saved_version}, "
            f"loading under repro {_library_version()}; resume parity is "
            "only guaranteed within one library version",
            RuntimeWarning,
            stacklevel=2,
        )
    recipe = manifest["pipeline"]
    model_file = path / manifest["model"]["file"]
    arrays = _read_archive(path, manifest["model"])
    try:
        weights = [arrays[f"w{i}"] for i in range(len(arrays))]
        autoencoder = _build_autoencoder(recipe, weights)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint model {model_file} does not rebuild the model {where} "
            f"describes ({type(exc).__name__}: {exc})"
        ) from exc
    state_file = path / manifest["state"]["file"]
    arrays = _read_archive(path, manifest["state"])
    state = {
        "detector": unnest(arrays, "detector"),
        "mitigator": unnest(arrays, "mitigator") or None,
    }
    extra = {}
    if manifest.get("extra") is not None:
        extra = _read_archive(path, manifest["extra"])
    try:
        engine = _build_engine(recipe, autoencoder, state, manifest["n_stations"])
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint state {state_file} does not restore the pipeline {where} "
            f"describes ({type(exc).__name__}: {exc})"
        ) from exc
    if reg.enabled:
        reg.histogram(
            "repro_stream_checkpoint_load_seconds", help="Wall-clock of load_checkpoint."
        ).observe(time.perf_counter() - load_start)
        reg.counter("repro_stream_checkpoint_loads_total", help="Checkpoints restored.").inc()
    return engine, extra
