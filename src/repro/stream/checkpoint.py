"""One-file checkpoint/restore for the streaming pipeline.

A long-running stream deployment must survive process restarts: losing
the detector's ring buffers, scaler bounds, P² sketch, threshold state,
or the mitigator's anchors means minutes of warmup and different
decisions after every restart.  :func:`save_checkpoint` bundles the
*entire* pipeline — every component's ``state_dict()`` plus the trained
autoencoder's architecture and weights — into a single ``.npz`` archive;
:func:`load_checkpoint` rebuilds it in a fresh process with **bit-exact
resume parity**: checkpoint at any tick/block boundary, reload, and the
remaining stream produces the same flags, scores and mitigated values
an uninterrupted run would have (see
``tests/stream/test_checkpoint.py``).

Usage::

    from repro.stream import StreamReplayEngine, checkpoint

    engine = StreamReplayEngine(detector, mitigator="hold_last_good")
    engine.run(fleet[:, :5000], block_size=32)
    checkpoint.save_checkpoint("pipeline.npz", engine)

    # ... later, in a fresh process:
    restored = checkpoint.load_checkpoint("pipeline.npz")
    restored.engine().run(fleet[:, 5000:], block_size=32)

Only the built-in mitigation policies (the
:mod:`repro.stream.mitigation` registry) round-trip; a custom policy
class raises at save time rather than producing an archive that cannot
be reloaded.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro import obs
from repro.anomaly.autoencoder import AutoencoderConfig, LSTMAutoencoder
from repro.nn import Adam
from repro.nn.serialization import model_from_config, model_to_config
from repro.stream._state import StateDict, nest, unnest
from repro.stream.detector import StreamingDetector
from repro.stream.engine import StreamReplayEngine
from repro.stream.mitigation import _REGISTRY, StreamingMitigator
from repro.stream.scaler import StreamingMinMaxScaler

_FORMAT = "repro.stream.checkpoint"
_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint archive could not be read.

    Raised by :func:`load_checkpoint` when the file is missing,
    truncated, corrupt, or not a stream checkpoint at all — always
    naming the offending path, instead of surfacing a raw
    ``zipfile``/``zlib``/numpy traceback from deep inside the archive
    reader.  Subclasses :class:`ValueError` so pre-existing callers
    catching that keep working.
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


@dataclass
class StreamCheckpoint:
    """A restored pipeline: detector, optional mitigator, engine config."""

    detector: StreamingDetector
    mitigator: StreamingMitigator | None
    feedback: bool
    extra: dict[str, np.ndarray]
    #: Provenance recorded at save time: library/numpy versions and the
    #: creation timestamp (empty for checkpoints predating PR 6).
    library: dict = field(default_factory=dict)

    def engine(self) -> StreamReplayEngine:
        """Rebuild the replay engine exactly as it was saved.

        The mitigator's no-anchor ``fallback`` is part of the serialized
        state: the engine constructor's automatic scaler wiring must not
        re-derive it from the *restored* bounds (which may have widened
        since the original engine was built), or the resumed run could
        repair no-anchor flags differently than the uninterrupted one.
        """
        fallback = None if self.mitigator is None else self.mitigator.fallback.copy()
        engine = StreamReplayEngine(
            self.detector, mitigator=self.mitigator, feedback=self.feedback
        )
        if fallback is not None:
            engine.mitigator.set_fallback(fallback)
            # Keep the engine's wiring shortcut coherent with the
            # restored (possibly partially-unset) fallback.
            engine._fallback_wired = (
                self.detector.scaler is None or bool(np.isfinite(fallback).all())
            )
        return engine


def _mitigator_meta(mitigator: StreamingMitigator) -> dict:
    registered = _REGISTRY.get(mitigator.name)
    if registered is not type(mitigator):
        raise ValueError(
            f"cannot checkpoint mitigator {type(mitigator).__name__!r}: only "
            f"the built-in policies ({', '.join(sorted(_REGISTRY))}) can be "
            "rebuilt at load time"
        )
    return {"name": mitigator.name, "config": mitigator.get_config()}


def _library_meta() -> dict:
    """Provenance: which build wrote this archive, and when."""
    return {
        "version": _library_version(),
        "numpy": np.__version__,
        # Wall-clock provenance is the payload here, not hidden state.
        "created_unix": time.time(),  # reprolint: disable=RPR004
    }


def pipeline_meta(
    detector: StreamingDetector,
    mitigator: StreamingMitigator | None,
    feedback: bool,
) -> dict:
    """The JSON-serializable rebuild recipe for a pipeline.

    Everything :func:`build_pipeline` needs to reconstruct the exact
    detector/mitigator *structure* (state is shipped separately as
    ``state_dict()`` arrays).  Shared between the single-file checkpoint
    and the sharded manifest, so both describe pipelines identically.
    """
    return {
        "detector": {
            "n_stations": detector.n_stations,
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
        "feedback": bool(feedback),
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


def build_pipeline(
    meta: dict,
    autoencoder: LSTMAutoencoder,
    n_stations: int | None = None,
) -> tuple[StreamingDetector, StreamingMitigator | None]:
    """Reconstruct a (state-less) detector + mitigator from ``meta``.

    ``n_stations`` overrides the fleet size recorded in ``meta`` — the
    shard layer rebuilds shard-local pipelines from the *fleet-wide*
    recipe this way.  Component state is loaded separately via
    ``load_state_dict``.
    """
    detector_meta = meta["detector"]
    if n_stations is None:
        n_stations = int(detector_meta["n_stations"])
    scaler = None
    if detector_meta["scaler"] is not None:
        scaler = StreamingMinMaxScaler(
            n_stations,
            feature_range=tuple(detector_meta["scaler"]["feature_range"]),
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
    mitigator = None
    if meta["mitigator"] is not None:
        mitigator = _REGISTRY[meta["mitigator"]["name"]](
            n_stations, **meta["mitigator"]["config"]
        )
    return detector, mitigator


def save_checkpoint(
    path: str | Path,
    pipeline: StreamReplayEngine | StreamingDetector,
    extra: dict[str, np.ndarray] | None = None,
) -> Path:
    """Write the whole pipeline to one ``.npz`` archive.

    ``pipeline`` is a :class:`~repro.stream.engine.StreamReplayEngine`
    (detector + mitigator + feedback flag) or a bare
    :class:`~repro.stream.detector.StreamingDetector`.  ``extra`` lets
    the caller stash arbitrary named arrays (e.g. the replay position in
    an offline fleet matrix) in the same file.  Returns the written
    path (always with the ``.npz`` suffix).
    """
    reg = obs.registry()
    save_start = time.perf_counter()
    if isinstance(pipeline, StreamReplayEngine):
        detector = pipeline.detector
        mitigator = pipeline.mitigator
        feedback = pipeline.feedback
    elif isinstance(pipeline, StreamingDetector):
        detector = pipeline
        mitigator = None
        feedback = True
    else:
        raise TypeError(
            f"pipeline must be a StreamReplayEngine or StreamingDetector, "
            f"got {type(pipeline).__name__}"
        )

    meta = {
        "format": _FORMAT,
        "version": _VERSION,
        # Provenance read back at load time to warn on cross-version
        # restores.
        "library": _library_meta(),
        # A single-file archive is always shard 0 of 1; the per-shard
        # members of a sharded fleet checkpoint carry their real
        # coordinates and are only loadable through the manifest
        # (:func:`repro.stream.shard.load_sharded_checkpoint`).
        "sharding": {"shards": 1, "shard_index": 0},
    } | pipeline_meta(detector, mitigator, feedback)

    arrays: StateDict = {"meta": np.asarray(json.dumps(meta))}
    arrays |= {
        f"model.w{i}": weight
        for i, weight in enumerate(detector.autoencoder.model.get_weights())
    }
    arrays |= nest("detector", detector.state_dict())
    if mitigator is not None:
        arrays |= nest("mitigator", mitigator.state_dict())
    for key, value in (extra or {}).items():
        arrays[f"extra.{key}"] = np.asarray(value)

    path = Path(path)
    if path.suffix != ".npz":
        # Append rather than with_suffix(): a dotted checkpoint name like
        # "ckpt.tick1000" must not collapse onto "ckpt.npz" and silently
        # overwrite a sibling checkpoint.
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, lambda fh: np.savez(fh, **arrays))
    if reg.enabled:
        reg.histogram(
            "repro_stream_checkpoint_save_seconds",
            help="Wall-clock of save_checkpoint.",
        ).observe(time.perf_counter() - save_start)
        reg.counter(
            "repro_stream_checkpoint_saves_total", help="Checkpoints written."
        ).inc()
        reg.gauge(
            "repro_stream_checkpoint_bytes",
            help="Size of the most recently written checkpoint archive.",
        ).set(float(path.stat().st_size))
    return path


def load_checkpoint(path: str | Path) -> StreamCheckpoint:
    """Rebuild a pipeline saved by :func:`save_checkpoint`.

    The restored detector resumes bit-exactly: same buffers, bounds,
    sketch markers, thresholds, tick counter, and autoencoder weights
    (rebuilt under the dtype the model was saved with, so inference
    arithmetic is unchanged).
    """
    reg = obs.registry()
    load_start = time.perf_counter()
    path = Path(path)
    try:
        # Materialize every entry while the archive is open: a truncated
        # file can pass the zip directory check yet fail mid-entry, and
        # that failure must surface here, not lazily during rebuild.
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except Exception as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: the archive is missing, "
            f"truncated, or corrupt ({type(exc).__name__}: {exc})"
        ) from exc
    if "meta" not in arrays:
        raise CheckpointError(f"{path} is not a stream checkpoint (no meta entry)")
    try:
        meta = json.loads(str(arrays.pop("meta")))
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} has a corrupt meta entry: {exc}"
        ) from exc
    if meta.get("format") != _FORMAT:
        raise CheckpointError(
            f"{path} is not a stream checkpoint: {meta.get('format')!r}"
        )
    if meta.get("version") != _VERSION:
        raise CheckpointError(
            f"checkpoint {path}: version {meta.get('version')!r} is not "
            f"supported (this build reads version {_VERSION})"
        )
    # Provenance (absent from pre-PR-6 archives): resuming across
    # library versions is allowed — state layouts are strictly validated
    # downstream — but worth a warning, since bit-exact resume parity is
    # only promised within one build.
    library = dict(meta.get("library") or {})
    saved_version = library.get("version")
    if saved_version is not None and saved_version != _library_version():
        warnings.warn(
            f"checkpoint {path.name} was written by repro {saved_version}, "
            f"loading under repro {_library_version()}; resume parity is "
            "only guaranteed within one library version",
            RuntimeWarning,
            stacklevel=2,
        )
    sharding = meta.get("sharding") or {"shards": 1, "shard_index": 0}
    if sharding.get("shards", 1) != 1:
        raise CheckpointError(
            f"checkpoint {path.name} is shard {sharding.get('shard_index')} of "
            f"{sharding.get('shards')} — one member of a sharded fleet "
            "checkpoint.  Load the manifest directory that contains it with "
            "repro.stream.shard.load_sharded_checkpoint (or "
            "ShardedFleetEngine.from_checkpoint) instead"
        )

    # Autoencoder: rebuild the exact saved architecture (including its
    # compute dtype) and install the saved weights.
    weights = unnest(arrays, "model")
    autoencoder = build_autoencoder(
        meta, [weights[f"w{i}"] for i in range(len(weights))]
    )

    detector, mitigator = build_pipeline(meta, autoencoder)
    detector.load_state_dict(unnest(arrays, "detector"))
    if mitigator is not None:
        mitigator.load_state_dict(unnest(arrays, "mitigator"))

    restored = StreamCheckpoint(
        detector=detector,
        mitigator=mitigator,
        feedback=bool(meta["feedback"]),
        extra=unnest(arrays, "extra"),
        library=library,
    )
    if reg.enabled:
        reg.histogram(
            "repro_stream_checkpoint_load_seconds",
            help="Wall-clock of load_checkpoint.",
        ).observe(time.perf_counter() - load_start)
        reg.counter(
            "repro_stream_checkpoint_loads_total", help="Checkpoints restored."
        ).inc()
    return restored
