"""Checkpoint/restore for the streaming pipeline: one manifest directory.

A long-running stream deployment must survive process restarts: losing
the detector's ring buffers, scaler bounds, P² sketch, threshold state,
or the mitigator's anchors means minutes of warmup and different
decisions after every restart.  :func:`save_checkpoint` writes the
*entire* pipeline of either engine kind — an in-process
:class:`~repro.stream.engine.StreamReplayEngine` or a multi-process
:class:`~repro.stream.shard.ShardedFleetEngine` — to one directory::

    ckpt/
      manifest.json        format, pipeline recipe, tick, assignment, file table
      model-<g>.npz        trained autoencoder weights
      shard-0000-<g>.npz   shard 0's station list + detector/mitigator state
      shard-0001-<g>.npz   ...
      extra-<g>.npz        caller-provided named arrays (optional)

An in-process engine is the one-shard case: every station in shard 0.
:func:`load_checkpoint` rebuilds the pipeline with **bit-exact resume
parity**: checkpoint at any tick/block boundary, reload, and the
remaining stream produces the same flags, scores and mitigated values an
uninterrupted run would have (see ``tests/stream/test_checkpoint.py``).
A one-shard manifest restores in-process; two or more shards restore a
:class:`~repro.stream.shard.ShardedFleetEngine` on the saved plan.

Saves are crash-consistent by construction.  Every file a save writes
gets a fresh generation suffix ``<g>``, so no file the committed
manifest references is ever overwritten; the manifest is replaced last,
atomically, and only after that commit are the files it no longer lists
deleted.  A save that fails or is killed at any point leaves the
previous checkpoint loadable.  A sharded engine reuses a member file,
bytes and mtime untouched, when its shard has not changed since the
engine wrote or loaded that exact file (name + SHA-256) and the
directory's manifest still lists it.  An in-process engine's detector
is public, so the engine cannot know its state is unchanged: it
rewrites every file.

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
from repro.stream.engine import ReplayDriver, StreamReplayEngine
from repro.stream.mitigation import _REGISTRY, StreamingMitigator
from repro.stream.scaler import StreamingMinMaxScaler

_FORMAT = "repro.stream.checkpoint"
#: 3: the pipeline recipe no longer records a mitigation-loop mode.  A
#: version-2 manifest may have been saved with the removed closed loop,
#: so it is rejected rather than resumed under different semantics.
_VERSION = 3
MANIFEST_NAME = "manifest.json"
#: Every data file the writer produces: ``<role>-<generation>.npz``.
_DATA_FILE = re.compile(r"(?:model|extra|shard-\d{4})-(\d+)\.npz")


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


def pipeline_meta(
    detector: StreamingDetector,
    mitigator: StreamingMitigator | None,
) -> dict:
    """The JSON-serializable rebuild recipe for a pipeline.

    Everything :func:`build_engine` needs to reconstruct the exact
    detector/mitigator *structure* apart from the fleet size, which
    every rebuild passes explicitly (a shard rebuilds at its own size).
    State travels separately as ``state_dict()`` arrays.  The manifest
    stores it as ``pipeline``; a sharded engine ships it to its workers.
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


def build_autoencoder(meta: dict, weights: list[np.ndarray]) -> LSTMAutoencoder:
    """Rebuild the exact saved autoencoder (architecture, dtype, weights)."""
    ae_config = dict(meta["autoencoder"])
    ae_config["encoder_units"] = tuple(ae_config["encoder_units"])
    ae_config["decoder_units"] = tuple(ae_config["decoder_units"])
    config = AutoencoderConfig(**ae_config)
    model = model_from_config(meta["model"])
    model.compile(optimizer=Adam(config.learning_rate), loss="mse")
    model.set_weights(weights)
    return LSTMAutoencoder.from_model(config, model)


def engine_state(engine: StreamReplayEngine) -> dict:
    """An engine's resumable ``{"detector", "mitigator"}`` state."""
    mitigator = engine.mitigator
    return {
        "detector": engine.detector.state_dict(),
        "mitigator": None if mitigator is None else mitigator.state_dict(),
    }


def build_engine(
    meta: dict, autoencoder: LSTMAutoencoder, state: dict, n_stations: int
) -> StreamReplayEngine:
    """Rebuild an in-process engine from its recipe, model and state.

    The one rebuild path: checkpoint restore, shard worker start-up and
    worker respawn all come through here.  The mitigator's no-anchor
    ``fallback`` is part of the serialized state: the engine
    constructor's automatic scaler wiring must not re-derive it from
    the *restored* bounds (which may have widened since the original
    engine was built), or the resumed run could repair no-anchor flags
    differently than the uninterrupted one.
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
    shards = manifest.get("shards")
    assignment = manifest.get("assignment")
    pipeline = manifest.get("pipeline")
    problem = None
    if not _is_int(manifest.get("tick")) or manifest["tick"] < 0:
        problem = "no valid tick"
    elif not isinstance(manifest.get("library", {}), dict):
        problem = "a malformed library record"
    elif not isinstance(pipeline, dict):
        problem = "no valid pipeline recipe"
    elif not isinstance(shards, list) or not shards:
        problem = "no shard table"
    elif not isinstance(assignment, list) or not assignment:
        problem = "no station assignment"
    elif not all(_is_int(s) and 0 <= s < len(shards) for s in assignment):
        problem = f"an assignment that routes stations outside its {len(shards)} shards"
    else:
        entries = [("model", manifest.get("model"))]
        entries += [(f"shard-{s:04d}", entry) for s, entry in enumerate(shards)]
        if manifest.get("extra") is not None:
            entries.append(("extra", manifest["extra"]))
        for role, entry in entries:
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


def _listed(manifest: dict) -> set[str]:
    """Names of every data file ``manifest`` references."""
    entries = [manifest["model"], *manifest["shards"], manifest.get("extra")]
    return {entry["file"] for entry in entries if entry is not None}


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


def _reusable(path: Path, record: dict | None, listed: dict | None) -> bool:
    """Whether the file the engine last wrote or loaded is still committed here."""
    return record is not None and record == listed and (path / record["file"]).is_file()


def save_checkpoint(
    path: str | Path,
    engine: ReplayDriver,
    extra: dict[str, np.ndarray] | None = None,
) -> Path:
    """Write (or refresh) the checkpoint directory ``path``; return it.

    ``engine`` is a :class:`~repro.stream.engine.StreamReplayEngine` or
    a :class:`~repro.stream.shard.ShardedFleetEngine`.  ``extra`` stashes
    arbitrary named arrays (e.g. the replay position in an offline fleet
    matrix) alongside the pipeline; it is rewritten every save.

    Saving a sharded engine fetches and writes only the shards that
    changed since their file was committed, and refreshes the engine's
    failover baseline from the states written (truncating the gap-replay
    journal).
    """
    reg = obs.registry()
    save_start = time.perf_counter()
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    if isinstance(engine, StreamReplayEngine):
        recipe = pipeline_meta(engine.detector, engine.mitigator)
        weights = engine.detector.autoencoder.model.get_weights()
        tick = engine.detector.tick
        assignment = np.zeros(engine.n_stations, dtype=np.int64)
        members = [np.arange(engine.n_stations, dtype=np.int64)]
        saved_model, saved = None, [None]

        def shard_state(_shard: int) -> dict:
            return engine_state(engine)

    else:
        recipe, weights, tick = engine._meta, engine._weights, engine.tick
        assignment, members = engine.plan.assignment, engine._members
        saved_model, saved = engine._saved_model, engine._saved
        shard_state = engine.shard_state

    previous = _committed(path) or {"model": None, "shards": []}
    generation = 1 + max(
        (g for f in path.iterdir() if (g := _generation(f.name)) is not None), default=-1
    )
    written: list[Path] = []
    states: dict[int, dict] = {}
    try:
        model = previous["model"]
        if not _reusable(path, saved_model, model):
            arrays = {f"w{i}": w for i, w in enumerate(weights)}
            model = _write_archive(path, f"model-{generation}.npz", arrays, written)
        shards = []
        for s, stations in enumerate(members):
            entry = previous["shards"][s] if s < len(previous["shards"]) else None
            if not _reusable(path, saved[s], entry):
                states[s] = state = shard_state(s)
                arrays = {"members": stations} | nest("detector", state["detector"])
                if state["mitigator"] is not None:
                    arrays |= nest("mitigator", state["mitigator"])
                name = f"shard-{s:04d}-{generation}.npz"
                entry = _write_archive(path, name, arrays, written)
            shards.append(entry)
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
            "tick": int(tick),
            "assignment": assignment.tolist(),
            "pipeline": recipe,
            "model": model,
            "shards": shards,
            "extra": extra_entry,
        }
        text = json.dumps(manifest, indent=2) + "\n"
        # The commit point: every file the new manifest lists is durable.
        write_atomic(path / MANIFEST_NAME, lambda fh: fh.write(text.encode()))
    except BaseException:
        current = _committed(path)
        keep = set() if current is None else _listed(current)
        for file in written:
            if file.name not in keep:
                file.unlink(missing_ok=True)
        raise
    if not isinstance(engine, StreamReplayEngine):
        engine._saved_as(model, shards, states)
    keep = _listed(manifest)
    for file in path.iterdir():
        if _generation(file.name) is not None and file.name not in keep:
            file.unlink(missing_ok=True)
    if reg.enabled:
        reg.histogram(
            "repro_stream_checkpoint_save_seconds", help="Wall-clock of save_checkpoint."
        ).observe(time.perf_counter() - save_start)
        reg.counter("repro_stream_checkpoint_saves_total", help="Checkpoints written.").inc()
        reg.counter(
            "repro_stream_checkpoint_members_written_total",
            help="Shard member files written (a sharded save reuses unchanged shards).",
        ).inc(len(states))
        reg.gauge(
            "repro_stream_checkpoint_bytes",
            help="Total size of the files the latest checkpoint manifest references.",
        ).set(float(sum(e["bytes"] for e in [model, *shards, extra_entry] if e is not None)))
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


def load_checkpoint(
    path: str | Path,
    *,
    mp_context=None,
    failover: bool = True,
) -> tuple[ReplayDriver, dict[str, np.ndarray]]:
    """Rebuild the engine saved by :func:`save_checkpoint`; return ``(engine, extra)``.

    A one-shard checkpoint restores a
    :class:`~repro.stream.engine.StreamReplayEngine`; more shards
    restore a :class:`~repro.stream.shard.ShardedFleetEngine` on the
    saved plan (``mp_context`` and ``failover`` are its constructor
    options).  Either resumes bit-exactly: same buffers, bounds, sketch
    markers, thresholds, tick counter, and autoencoder weights (rebuilt
    under the dtype the model was saved with, so inference arithmetic is
    unchanged).
    """
    # Imported here: the shard package imports this module.
    from repro.stream.shard.engine import ShardedFleetEngine, ShardWorkerError
    from repro.stream.shard.plan import ShardPlan

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
    recipe, entries = manifest["pipeline"], manifest["shards"]
    model_file = path / manifest["model"]["file"]
    arrays = _read_archive(path, manifest["model"])
    try:
        weights = [arrays[f"w{i}"] for i in range(len(arrays))]
        autoencoder = build_autoencoder(recipe, weights)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint model {model_file} does not rebuild the model {where} "
            f"describes ({type(exc).__name__}: {exc})"
        ) from exc
    plan = ShardPlan.from_assignment(manifest["assignment"], len(entries))
    states = []
    for s, entry in enumerate(entries):
        arrays = _read_archive(path, entry)
        if not np.array_equal(arrays.pop("members", None), plan.members(s)):
            raise CheckpointError(
                f"checkpoint member {path / entry['file']} owns different stations "
                f"than the assignment in {where} routes to it"
            )
        mitigator = unnest(arrays, "mitigator")
        states.append({"detector": unnest(arrays, "detector"), "mitigator": mitigator or None})
    extra = {}
    if manifest.get("extra") is not None:
        extra = _read_archive(path, manifest["extra"])

    if len(entries) == 1:
        try:
            engine = build_engine(recipe, autoencoder, states[0], plan.n_stations)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint member {path / entries[0]['file']} does not restore the "
                f"pipeline {where} describes ({type(exc).__name__}: {exc})"
            ) from exc
    else:
        try:
            engine = ShardedFleetEngine._from_parts(
                recipe,
                weights,
                plan,
                states,
                manifest["tick"],
                mp_context=mp_context,
                failover=failover,
            )
        except ShardWorkerError as exc:
            raise CheckpointError(
                f"checkpoint member {path / entries[exc.shard]['file']} does not "
                f"restore the pipeline {where} describes:\n{exc}"
            ) from exc
        # The workers reported their start states as the failover baseline.
        engine._saved_as(manifest["model"], entries, {})
    if reg.enabled:
        reg.histogram(
            "repro_stream_checkpoint_load_seconds", help="Wall-clock of load_checkpoint."
        ).observe(time.perf_counter() - load_start)
        reg.counter("repro_stream_checkpoint_loads_total", help="Checkpoints restored.").inc()
    return engine, extra
