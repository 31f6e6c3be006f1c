"""Sharded fleet checkpoints: one manifest directory, per-shard members.

A sharded checkpoint is a *directory*::

    ckpt/
      manifest.json    format, pipeline recipe, assignment, shard table
      model.npz        trained autoencoder weights (shared, written once)
      shard-0000.npz   shard 0's detector/mitigator state
      shard-0001.npz   ...
      extra.npz        caller-provided named arrays (optional)

Each ``shard-*.npz`` is a self-describing member: its embedded meta
carries ``sharding: {shards: k, shard_index: s}``, so feeding one to
the single-file :func:`repro.stream.checkpoint.load_checkpoint` raises
a :class:`~repro.stream.checkpoint.CheckpointError` pointing back at
the manifest loader instead of silently restoring a fraction of the
fleet.

:func:`save_sharded_checkpoint` defaults to **delta** saves: only
shards mutated since they were last written (``engine`` tracks dirty
shards by its failover journal) are rewritten; clean member files are
left byte-for-byte untouched — the manifest is rewritten every save.
Every file is replaced crash-consistently
(:func:`repro.stream.checkpoint.write_atomic`), so a reader never
observes a half-written file, and the manifest's size + checksum table
rejects a directory whose save died between two member files.
Saving also refreshes the engine's failover snapshots, truncating the
gap-replay journal.

:func:`load_sharded_checkpoint` verifies every member against the
manifest's recorded size + SHA-256 before restoring, and resumes a
:class:`~repro.stream.shard.engine.ShardedFleetEngine` with bit-exact
parity to the uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from pathlib import Path

import numpy as np

from repro import obs
from repro.stream import checkpoint as ckpt
from repro.stream._state import nest, unnest
from repro.stream.shard.engine import ShardedFleetEngine
from repro.stream.shard.plan import ShardPlan

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "repro.stream.shard.checkpoint"
_MANIFEST_VERSION = 1


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _shard_meta(engine: ShardedFleetEngine, shard: int) -> dict:
    """The embedded meta of one shard member file.

    Mirrors the single-file layout (same format tag and pipeline
    recipe, shard-local ``n_stations``) so the member is recognizably a
    stream checkpoint — just one that only the manifest loader accepts.
    """
    meta = json.loads(json.dumps(engine._meta))
    meta["detector"]["n_stations"] = int(engine._members[shard].size)
    return {
        "format": ckpt._FORMAT,
        "version": ckpt._VERSION,
        "library": ckpt._library_meta(),
        "sharding": {"shards": engine.n_shards, "shard_index": shard},
    } | meta


def _write_shard(path: Path, engine: ShardedFleetEngine, shard: int) -> dict:
    """Fetch, serialize, and crash-consistently write one shard's state; return it."""
    state = engine.shard_state(shard)
    arrays = {"meta": np.asarray(json.dumps(_shard_meta(engine, shard)))}
    arrays["members"] = engine._members[shard].copy()
    arrays |= nest("detector", state["detector"])
    if state["mitigator"] is not None:
        arrays |= nest("mitigator", state["mitigator"])
    ckpt.write_atomic(path, lambda fh: np.savez(fh, **arrays))
    return state


def save_sharded_checkpoint(
    path: str | Path,
    engine: ShardedFleetEngine,
    extra: dict[str, np.ndarray] | None = None,
    dirty_only: bool = True,
) -> Path:
    """Write (or incrementally refresh) a sharded checkpoint directory.

    With ``dirty_only=True`` (default) only shards that stepped or
    churned since their last save are rewritten; untouched member files
    keep their bytes and mtimes.  Pass ``dirty_only=False`` to force a
    full rewrite (e.g. onto a fresh directory that an earlier engine
    populated).  ``extra`` arrays are rewritten every save.

    Saving synchronizes the engine's failover baseline: each written
    shard's snapshot is refreshed from the exact state on disk and its
    gap-replay journal is truncated.
    """
    reg = obs.registry()
    save_start = time.perf_counter()
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    model_file = path / "model.npz"
    if not model_file.exists() or not dirty_only:
        arrays = {
            "meta": np.asarray(
                json.dumps(
                    {
                        "format": _MANIFEST_FORMAT + ".model",
                        "version": _MANIFEST_VERSION,
                    }
                )
            )
        }
        arrays |= {f"model.w{i}": w for i, w in enumerate(engine._weights)}
        ckpt.write_atomic(model_file, lambda fh: np.savez(fh, **arrays))

    entries = []
    written = 0
    for s in range(engine.n_shards):
        shard_file = path / f"shard-{s:04d}.npz"
        if dirty_only and not engine._dirty[s] and shard_file.exists():
            pass
        else:
            state = _write_shard(shard_file, engine, s)
            engine._mark_clean(s, state)
            written += 1
        entries.append(
            {
                "index": s,
                "file": shard_file.name,
                "n_stations": int(engine._members[s].size),
                "bytes": int(shard_file.stat().st_size),
                "sha256": _sha256(shard_file),
            }
        )

    extra_file = None
    if extra:
        extra_file = "extra.npz"
        extra_arrays = {k: np.asarray(v) for k, v in extra.items()}
        ckpt.write_atomic(path / extra_file, lambda fh: np.savez(fh, **extra_arrays))

    pipeline = json.loads(json.dumps(engine._meta))
    pipeline["detector"]["n_stations"] = int(engine.n_stations)
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "library": ckpt._library_meta(),
        "n_shards": engine.n_shards,
        "n_stations": int(engine.n_stations),
        "tick": int(engine.tick),
        "assignment": engine.plan.assignment.tolist(),
        "pipeline": pipeline,
        "model_file": model_file.name,
        "extra_file": extra_file,
        "shards": entries,
    }
    # The manifest commits the checkpoint: every file is replaced
    # atomically and the manifest last.  A crash before the first member
    # is replaced leaves the previous checkpoint intact; after it, the
    # previous manifest's checksums reject the mixed directory at load.
    text = json.dumps(manifest, indent=2) + "\n"
    ckpt.write_atomic(path / MANIFEST_NAME, lambda fh: fh.write(text.encode()))
    if reg.enabled:
        reg.histogram(
            "repro_shard_checkpoint_save_seconds",
            help="Wall-clock of save_sharded_checkpoint.",
        ).observe(time.perf_counter() - save_start)
        reg.counter(
            "repro_shard_checkpoint_saves_total",
            help="Sharded checkpoints written.",
        ).inc()
        reg.counter(
            "repro_shard_checkpoint_shards_written_total",
            help="Shard member files rewritten (delta saves skip clean shards).",
        ).inc(written)
    return path


def _load_member(path: Path, manifest: dict, entry: dict) -> dict:
    """Read + verify one shard member; return its shard-shaped state."""
    if not path.exists():
        raise ckpt.CheckpointError(
            f"sharded checkpoint member {path} is missing (manifest lists it)"
        )
    size = path.stat().st_size
    if size != entry["bytes"]:
        raise ckpt.CheckpointError(
            f"sharded checkpoint member {path} is {size} bytes, manifest "
            f"recorded {entry['bytes']} — truncated or partially rewritten"
        )
    digest = _sha256(path)
    if digest != entry["sha256"]:
        raise ckpt.CheckpointError(
            f"sharded checkpoint member {path} fails its manifest checksum"
        )
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except Exception as exc:
        raise ckpt.CheckpointError(
            f"cannot read sharded checkpoint member {path}: "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    try:
        meta = json.loads(str(arrays.pop("meta")))
    except (KeyError, json.JSONDecodeError) as exc:
        raise ckpt.CheckpointError(
            f"sharded checkpoint member {path} has a corrupt meta entry"
        ) from exc
    sharding = meta.get("sharding") or {}
    if (
        sharding.get("shards") != manifest["n_shards"]
        or sharding.get("shard_index") != entry["index"]
    ):
        raise ckpt.CheckpointError(
            f"sharded checkpoint member {path} claims shard "
            f"{sharding.get('shard_index')} of {sharding.get('shards')}, "
            f"manifest expects {entry['index']} of {manifest['n_shards']}"
        )
    mitigator_state = unnest(arrays, "mitigator")
    return {
        "detector": unnest(arrays, "detector"),
        "mitigator": mitigator_state or None,
        "members": arrays["members"],
    }


def load_sharded_checkpoint(
    path: str | Path,
    *,
    mp_context=None,
    failover: bool = True,
) -> tuple[ShardedFleetEngine, dict[str, np.ndarray]]:
    """Resume a :class:`ShardedFleetEngine` from a manifest directory.

    Returns ``(engine, extra)``.  Every member file is verified against
    the manifest's recorded size and SHA-256 first; the restored engine
    continues the stream bit-exactly where the checkpoint left off.
    """
    reg = obs.registry()
    load_start = time.perf_counter()
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise ckpt.CheckpointError(
            f"{path} is not a sharded checkpoint (no {MANIFEST_NAME}); "
            "single-file archives load via repro.stream.checkpoint.load_checkpoint"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ckpt.CheckpointError(
            f"cannot read sharded checkpoint manifest {manifest_path}: {exc}"
        ) from exc
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise ckpt.CheckpointError(
            f"{manifest_path} is not a sharded stream checkpoint manifest: "
            f"{manifest.get('format')!r}"
        )
    if manifest.get("version") != _MANIFEST_VERSION:
        raise ckpt.CheckpointError(
            f"sharded checkpoint {path}: manifest version "
            f"{manifest.get('version')!r} is not supported "
            f"(this build reads version {_MANIFEST_VERSION})"
        )
    saved_version = (manifest.get("library") or {}).get("version")
    if saved_version is not None and saved_version != ckpt._library_version():
        warnings.warn(
            f"sharded checkpoint {path.name} was written by repro "
            f"{saved_version}, loading under repro {ckpt._library_version()}; "
            "resume parity is only guaranteed within one library version",
            RuntimeWarning,
            stacklevel=2,
        )

    model_path = path / manifest["model_file"]
    if not model_path.exists():
        raise ckpt.CheckpointError(
            f"sharded checkpoint model file {model_path} is missing"
        )
    try:
        with np.load(model_path, allow_pickle=False) as archive:
            model_arrays = {key: archive[key] for key in archive.files}
    except Exception as exc:
        raise ckpt.CheckpointError(
            f"cannot read sharded checkpoint model file {model_path}: "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    model_weights = unnest(model_arrays, "model")
    weights = [model_weights[f"w{i}"] for i in range(len(model_weights))]

    plan = ShardPlan.from_assignment(manifest["assignment"], manifest["n_shards"])
    if plan.n_stations != manifest["n_stations"]:
        raise ckpt.CheckpointError(
            f"sharded checkpoint {path}: manifest assignment covers "
            f"{plan.n_stations} stations, manifest records "
            f"{manifest['n_stations']}"
        )
    entries = sorted(manifest["shards"], key=lambda e: e["index"])
    if [e["index"] for e in entries] != list(range(manifest["n_shards"])):
        raise ckpt.CheckpointError(
            f"sharded checkpoint {path}: manifest shard table does not cover "
            f"every shard of {manifest['n_shards']} exactly once"
        )
    shard_states = []
    for entry in entries:
        state = _load_member(path / entry["file"], manifest, entry)
        expected = plan.members(entry["index"])
        if not np.array_equal(state.pop("members"), expected):
            raise ckpt.CheckpointError(
                f"sharded checkpoint member {entry['file']} owns different "
                "stations than the manifest assignment routes to it"
            )
        shard_states.append(state)

    extra: dict[str, np.ndarray] = {}
    if manifest.get("extra_file"):
        extra_path = path / manifest["extra_file"]
        if not extra_path.exists():
            raise ckpt.CheckpointError(
                f"sharded checkpoint extra file {extra_path} is missing"
            )
        try:
            with np.load(extra_path, allow_pickle=False) as archive:
                extra = {key: archive[key] for key in archive.files}
        except Exception as exc:
            raise ckpt.CheckpointError(
                f"cannot read sharded checkpoint extra file {extra_path}: "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    engine = ShardedFleetEngine._from_parts(
        manifest["pipeline"],
        weights,
        plan,
        shard_states,
        manifest["tick"],
        mp_context=mp_context,
        failover=failover,
    )
    # The freshly loaded states are the failover baseline, and nothing
    # is dirty relative to the files just read.
    for s in range(engine.n_shards):
        engine._mark_clean(s, shard_states[s])
    if reg.enabled:
        reg.histogram(
            "repro_shard_checkpoint_load_seconds",
            help="Wall-clock of load_sharded_checkpoint.",
        ).observe(time.perf_counter() - load_start)
        reg.counter(
            "repro_shard_checkpoint_loads_total",
            help="Sharded checkpoints restored.",
        ).inc()
    return engine, extra
