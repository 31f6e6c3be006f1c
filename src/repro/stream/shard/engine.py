"""Sharded fleet engine: N worker processes behind one engine facade.

:class:`ShardedFleetEngine` partitions a calibrated streaming pipeline
across worker processes by :class:`~repro.stream.shard.plan.ShardPlan`
and presents the exact :class:`~repro.stream.engine.ReplayDriver`
surface — ``run``/``step_tick``/``step_block``, churn, checkpointing —
so callers (including :mod:`repro.serve`) swap it in for a
:class:`~repro.stream.engine.StreamReplayEngine` unchanged.

Construction clones the fleet pipeline into shard-local pipelines
without losing a bit of state: each worker rebuilds the *full*
pipeline from its serialized state, then drops the complement of its
member set through the engine-level elastic-fleet path (PR 4's
survivors-bit-identical guarantee).  Trained autoencoder weights are
published once through ``multiprocessing.shared_memory`` instead of
being pickled into every worker.

Per step, the parent scatters each shard's rows of the ``(stations,
B)`` block, the workers run the ordinary closed loop (detect →
mitigate → write back) on their slices, and the parent gathers
flags/scores/missing/mitigated back into fleet-shaped arrays.  Because
station state is strictly per-station and the forward pass is
batch-composition-independent for the compact fleet-scale models, the
gathered output is **bit-exact** against a single-process engine over
the same fleet (see ``tests/stream/test_shard_parity.py``; very large
hidden sizes can differ in the last float32 ulp where BLAS kernels
specialize on batch shape — the same caveat block mode already
carries).

Failover: with ``failover=True`` (default) the parent keeps each
shard's last synchronized state snapshot plus a journal of every
mutating command since.  A worker that dies mid-run (OOM-killed,
SIGKILL, crash) is respawned from the snapshot and the journal is
replayed — the gap closes deterministically and the stream continues
as if the worker had never died.  Checkpoints
(:func:`repro.stream.shard.save_sharded_checkpoint`) refresh the
snapshot and truncate the journal, bounding replay work.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

from repro import obs
from repro.stream import checkpoint as ckpt
from repro.stream.detector import StreamingDetector
from repro.stream.engine import ReplayDriver, StreamReplayEngine
from repro.stream.shard._shm import publish_weights
from repro.stream.shard._worker import worker_main
from repro.stream.shard.plan import ShardPlan
from repro.utils.rng import SeedLike


class ShardWorkerError(RuntimeError):
    """A shard worker's pipeline raised; the worker traceback is the message."""


class ShardFailoverError(RuntimeError):
    """A shard worker died and could not be (or may not be) recovered."""


def _default_context() -> multiprocessing.context.BaseContext:
    # fork is dramatically cheaper to spawn (no re-import of the
    # package per worker) and is available everywhere the CI matrix
    # runs; fall back to the platform default elsewhere.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class _Worker:
    """Parent-side handle: process, pipe, and in-flight bookkeeping."""

    __slots__ = ("process", "conn", "pending", "dead")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: The scattered-but-not-yet-gathered command, for recovery.
        self.pending = None
        self.dead = False


class ShardedFleetEngine(ReplayDriver):
    """Run one streaming pipeline as N shard-local worker processes.

    Parameters
    ----------
    pipeline:
        The calibrated fleet-wide pipeline to partition — a
        :class:`~repro.stream.engine.StreamReplayEngine` (detector +
        mitigator + feedback flag) or a bare
        :class:`~repro.stream.detector.StreamingDetector`.  Its state is
        cloned into the workers; the original object is left untouched
        (and no longer reflects the stream once workers start stepping).
    n_shards:
        Worker process count.  ``1`` is valid (useful as a
        process-isolation wrapper) and still bit-exact.
    seed:
        Seed for the deterministic station→shard deal (ignored when
        ``plan`` is given).
    plan:
        A pre-built :class:`ShardPlan` to route by.
    mp_context:
        A ``multiprocessing`` context or start-method name
        (``"fork"``/``"spawn"``/``"forkserver"``); defaults to fork
        where available.
    failover:
        Keep per-shard snapshots + command journals so a killed worker
        is respawned and its gap replayed.  Disable for fire-and-forget
        throughput runs — a dead worker then raises
        :class:`ShardFailoverError`.  The journal grows until the next
        checkpoint (:func:`~repro.stream.shard.save_sharded_checkpoint`)
        truncates it; long-running deployments should checkpoint
        periodically.
    """

    def __init__(
        self,
        pipeline: StreamReplayEngine | StreamingDetector,
        n_shards: int,
        *,
        seed: SeedLike = 0,
        plan: ShardPlan | None = None,
        mp_context=None,
        failover: bool = True,
    ) -> None:
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
        if plan is None:
            plan = ShardPlan(detector.n_stations, n_shards, seed=seed)
        if plan.n_shards != n_shards:
            raise ValueError(
                f"plan has {plan.n_shards} shards, engine asked for {n_shards}"
            )
        if plan.n_stations != detector.n_stations:
            raise ValueError(
                f"plan covers {plan.n_stations} stations, "
                f"detector {detector.n_stations}"
            )
        meta = ckpt.pipeline_meta(detector, mitigator, feedback)
        weights = [
            np.ascontiguousarray(w)
            for w in detector.autoencoder.model.get_weights()
        ]
        full_state = {
            "detector": detector.state_dict(),
            "mitigator": None if mitigator is None else mitigator.state_dict(),
        }
        self._init_common(meta, weights, plan, mp_context, failover)
        self._tick = int(detector.tick)
        all_stations = np.arange(self._n_stations, dtype=np.int64)
        payloads = []
        for s in range(plan.n_shards):
            payloads.append(
                {
                    "kind": "full",
                    "n_stations": self._n_stations,
                    "state": full_state,
                    "complement": np.setdiff1d(all_stations, self._members[s]),
                }
            )
        self._start_workers(payloads)

    # ------------------------------------------------------------------
    # construction plumbing

    def _init_common(self, meta, weights, plan, mp_context, failover) -> None:
        self._meta = meta
        self._weights = weights
        self.plan = plan
        self.feedback = bool(meta["feedback"])
        self.failover = bool(failover)
        if mp_context is None:
            self._ctx = _default_context()
        elif isinstance(mp_context, str):
            self._ctx = multiprocessing.get_context(mp_context)
        else:
            self._ctx = mp_context
        self._n_stations = plan.n_stations
        self._tick = 0
        self._members = [plan.members(s) for s in range(plan.n_shards)]
        self._workers: list[_Worker | None] = [None] * plan.n_shards
        #: Mutating commands since the last snapshot, per shard.
        self._journal: list[list[tuple]] = [[] for _ in range(plan.n_shards)]
        #: Last synchronized (state, n_local) per shard — the failover
        #: respawn baseline.
        self._snapshots: list[tuple | None] = [None] * plan.n_shards
        #: Shards mutated since they were last written to a checkpoint.
        self._dirty = [True] * plan.n_shards
        self._closed = False

    def _start_workers(self, payloads: list[dict]) -> None:
        """Spawn every worker, ship init payloads, collect ready acks."""
        shm, descriptor = publish_weights(self._weights)
        try:
            for s, payload in enumerate(payloads):
                payload |= {
                    "meta": self._meta,
                    "weights": {"shm": descriptor},
                    "feedback": self.feedback,
                    "snapshot": self.failover,
                }
                self._workers[s] = self._spawn(s, payload)
            # Pipelined: all workers build concurrently; acks in order.
            for s in range(self.n_shards):
                status, reply = self._workers[s].conn.recv()
                if status != "ready":
                    raise ShardWorkerError(
                        f"shard {s} worker failed to initialize:\n{reply}"
                    )
                if reply is not None:
                    self._snapshots[s] = (reply, int(self._members[s].size))
        except BaseException:
            self.close()
            raise
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def _spawn(self, shard: int, payload: dict) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn,),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        parent_conn.send(("init", payload))
        return _Worker(process, parent_conn)

    @classmethod
    def _from_parts(
        cls,
        meta: dict,
        weights: list[np.ndarray],
        plan: ShardPlan,
        shard_states: list[dict],
        tick: int,
        *,
        mp_context=None,
        failover: bool = True,
    ) -> "ShardedFleetEngine":
        """Restore from per-shard states (the sharded-checkpoint loader)."""
        engine = cls.__new__(cls)
        engine._init_common(meta, weights, plan, mp_context, failover)
        engine._tick = int(tick)
        payloads = []
        for s in range(plan.n_shards):
            payloads.append(
                {
                    "kind": "shard",
                    "n_stations": int(engine._members[s].size),
                    "state": shard_states[s],
                }
            )
        engine._start_workers(payloads)
        return engine

    @classmethod
    def from_checkpoint(cls, path, **kwargs) -> "ShardedFleetEngine":
        """Resume from a sharded checkpoint directory (manifest + shards)."""
        from repro.stream.shard.checkpoint import load_sharded_checkpoint

        engine, _extra = load_sharded_checkpoint(path, **kwargs)
        return engine

    # ------------------------------------------------------------------
    # ReplayDriver surface

    @property
    def n_stations(self) -> int:
        return self._n_stations

    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    @property
    def missing_mode(self) -> str:
        return self._meta["detector"]["missing"]

    @property
    def tick(self) -> int:
        """Ticks processed so far (mirrors ``detector.tick`` fleet-wide)."""
        return self._tick

    def _step_block(self, values: np.ndarray, reg) -> tuple:
        """Route one block through the workers and reassemble."""
        shape = values.shape
        with reg.span("repro_shard_scatter"):
            for s in range(self.n_shards):
                self._dispatch(s, ("block", values[self._members[s]]))
        flags = np.zeros(shape, dtype=bool)
        scores = np.full(shape, np.nan, dtype=np.float64)
        missing = np.zeros(shape, dtype=bool)
        mitigated = np.empty(shape, dtype=np.float64)
        errors: list[ShardWorkerError] = []
        with reg.span("repro_shard_gather"):
            # Drain every shard even if one errors — an uncollected reply
            # left in a pipe would be mistaken for the next step's answer.
            for s in range(self.n_shards):
                members = self._members[s]
                try:
                    s_flags, s_scores, s_missing, s_mitigated = self._collect(s)
                except ShardWorkerError as exc:
                    errors.append(exc)
                    continue
                flags[members] = s_flags
                scores[members] = s_scores
                missing[members] = s_missing
                mitigated[members] = s_mitigated
        if errors:
            raise errors[0]
        self._tick += int(shape[1])
        if reg.enabled:
            for s in range(self.n_shards):
                reg.counter(
                    "repro_shard_readings_total",
                    help="Readings routed through each shard worker.",
                    labels={"shard": str(s)},
                ).inc(int(self._members[s].size) * int(shape[1]))
                reg.gauge(
                    "repro_shard_journal_depth",
                    help="Mutating commands journaled since the shard's "
                    "last snapshot (failover replay length).",
                    labels={"shard": str(s)},
                ).set(float(len(self._journal[s])))
        return flags, scores, missing, mitigated

    # ------------------------------------------------------------------
    # worker I/O with failover

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")

    def _dispatch(self, shard: int, msg: tuple) -> None:
        """Scatter phase: journal + send, deferring failures to collect."""
        self._check_open()
        if self.failover:
            self._journal[shard].append(msg)
        self._dirty[shard] = True
        worker = self._workers[shard]
        worker.pending = msg
        try:
            worker.conn.send(msg)
        except (OSError, BrokenPipeError):
            worker.dead = True

    def _collect(self, shard: int):
        """Gather phase: receive one reply, recovering a dead worker."""
        worker = self._workers[shard]
        msg = worker.pending
        worker.pending = None
        try:
            if worker.dead:
                raise EOFError
            status, reply = worker.conn.recv()
        except (EOFError, OSError):
            status, reply = self._recover(shard)
        if status == "err":
            # The command itself raised (it never mutated a consistent
            # stream); drop it from the replay journal.
            if self.failover and self._journal[shard] and self._journal[shard][-1] is msg:
                self._journal[shard].pop()
            raise ShardWorkerError(f"shard {shard} worker error:\n{reply}")
        return reply

    def _request(self, shard: int, msg: tuple, mutating: bool) -> object:
        """One synchronous command round-trip (churn, state fetches)."""
        self._check_open()
        if mutating:
            if self.failover:
                self._journal[shard].append(msg)
            self._dirty[shard] = True
        worker = self._workers[shard]
        try:
            worker.conn.send(msg)
            status, reply = worker.conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            worker.pending = msg if mutating else None
            status, reply = self._recover(shard, resend=None if mutating else msg)
        if status == "err":
            if mutating and self.failover and self._journal[shard] and self._journal[shard][-1] is msg:
                self._journal[shard].pop()
            raise ShardWorkerError(f"shard {shard} worker error:\n{reply}")
        return reply

    def _recover(self, shard: int, resend: tuple | None = None):
        """Respawn a dead worker from snapshot + journal replay.

        The journal's trailing entry is the in-flight command whose
        reply was lost; its replayed reply is returned (``resend``
        covers the non-mutating case, re-issued after replay).
        """
        if not self.failover:
            raise ShardFailoverError(
                f"shard {shard} worker died and failover is disabled"
            )
        if self._snapshots[shard] is None:
            raise ShardFailoverError(
                f"shard {shard} worker died before its first snapshot"
            )
        reg = obs.registry()
        if reg.enabled:
            reg.counter(
                "repro_shard_respawns_total",
                help="Shard workers respawned from snapshot + journal replay.",
                labels={"shard": str(shard)},
            ).inc()
        old = self._workers[shard]
        old.pending = None
        old.dead = False
        try:
            old.conn.close()
        except OSError:
            pass
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(timeout=5.0)
        state, n_local = self._snapshots[shard]
        payload = {
            "kind": "shard",
            "n_stations": int(n_local),
            "state": state,
            "meta": self._meta,
            "weights": {"raw": self._weights},
            "feedback": self.feedback,
            "snapshot": False,
        }
        worker = self._spawn(shard, payload)
        self._workers[shard] = worker
        try:
            status, reply = worker.conn.recv()
            if status != "ready":
                raise ShardFailoverError(
                    f"shard {shard} respawn failed to initialize:\n{reply}"
                )
            last = ("ok", None)
            for i, entry in enumerate(self._journal[shard]):
                worker.conn.send(entry)
                last = worker.conn.recv()
                if last[0] != "ok" and i < len(self._journal[shard]) - 1:
                    raise ShardFailoverError(
                        f"shard {shard} journal replay diverged at entry {i}:"
                        f"\n{last[1]}"
                    )
            if resend is not None:
                worker.conn.send(resend)
                last = worker.conn.recv()
            return last
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise ShardFailoverError(
                f"shard {shard} respawned worker died during gap replay"
            ) from exc

    # ------------------------------------------------------------------
    # churn

    def add_stations(
        self,
        n_new: int,
        thresholds: float | np.ndarray | None = None,
        data_min: np.ndarray | None = None,
        data_max: np.ndarray | None = None,
    ) -> None:
        """Grow the fleet: newcomers join the least-loaded shards.

        Semantics mirror :meth:`StreamReplayEngine.add_stations`;
        newcomers take the next global indices and are routed by
        :meth:`ShardPlan.add_stations` (deterministic, no survivor
        migration).
        """
        if n_new < 1:
            raise ValueError(f"n_new must be >= 1, got {n_new}")
        if thresholds is not None and self._meta["detector"]["adaptive"]:
            raise ValueError(
                "adaptive (p2) mode has no fixed thresholds to assign; "
                "new stations calibrate from the stream"
            )
        if self._meta["detector"]["scaler"] is None and (
            data_min is not None or data_max is not None
        ):
            raise ValueError("data_min/data_max require the detector to own a scaler")
        if (data_min is None) != (data_max is None):
            raise ValueError("pass both data_min and data_max, or neither")
        new_thresholds = np.full(n_new, np.nan, dtype=np.float64)
        if thresholds is not None:
            new_thresholds[:] = np.asarray(thresholds, dtype=np.float64)
        data_min = None if data_min is None else np.asarray(data_min, dtype=np.float64)
        data_max = None if data_max is None else np.asarray(data_max, dtype=np.float64)
        start = self._n_stations
        prior_assignment = self.plan.assignment.copy()
        new_assignment = self.plan.add_stations(n_new)
        mutated = False
        try:
            for s in range(self.n_shards):
                idx = np.nonzero(new_assignment == s)[0]
                if not idx.size:
                    continue
                self._request(
                    s,
                    (
                        "add",
                        int(idx.size),
                        None if thresholds is None else new_thresholds[idx],
                        None if data_min is None else data_min[idx],
                        None if data_max is None else data_max[idx],
                    ),
                    mutating=True,
                )
                mutated = True
                self._members[s] = np.concatenate(
                    [self._members[s], (start + idx).astype(np.int64)]
                )
        except ShardWorkerError:
            # Worker-side validation is uniform, so a rejection fires on
            # the first shard that received newcomers — before any worker
            # mutated.  Roll the plan back so the fleet stays consistent.
            if not mutated:
                self.plan.assignment = prior_assignment
            raise
        self._n_stations += int(n_new)

    def drop_stations(self, stations: np.ndarray) -> None:
        """Shrink the fleet; survivors renumber compactly, never migrate."""
        stations = self.plan.drop_stations(stations)
        for s in range(self.n_shards):
            members = self._members[s]
            mask = np.isin(members, stations)
            if mask.any():
                self._request(
                    s, ("drop", np.nonzero(mask)[0].astype(np.int64)), mutating=True
                )
            survivors = members[~mask]
            renumbered = survivors - np.searchsorted(stations, survivors)
            if not np.array_equal(renumbered, members):
                # Global renumbering changed this shard's member indices
                # even if it lost no stations — its checkpoint member
                # (which records them) must be rewritten on the next save.
                self._dirty[s] = True
            self._members[s] = renumbered
        self._n_stations -= int(stations.size)

    # ------------------------------------------------------------------
    # state / checkpointing hooks

    def shard_state(self, shard: int) -> dict:
        """Fetch one worker's current ``{"detector", "mitigator"}`` state."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.n_shards})")
        return self._request(shard, ("state",), mutating=False)

    def shard_members(self, shard: int) -> np.ndarray:
        """Global station indices owned by ``shard``, in local row order."""
        return self._members[shard].copy()

    def _mark_clean(self, shard: int, state: dict) -> None:
        """A checkpoint captured ``state``: new failover baseline."""
        self._snapshots[shard] = (state, int(self._members[shard].size))
        self._journal[shard].clear()
        self._dirty[shard] = False

    # ------------------------------------------------------------------
    # observability

    def _finalize(self, reg, elapsed, *args):
        report = super()._finalize(reg, elapsed, *args)
        if reg.enabled and report.n_ticks and elapsed > 0:
            for s in range(self.n_shards):
                reg.gauge(
                    "repro_shard_readings_per_second",
                    help="Per-shard throughput of the most recent replay run.",
                    labels={"shard": str(s)},
                ).set(int(self._members[s].size) * report.n_ticks / elapsed)
            reg.gauge(
                "repro_shard_fleet_readings_per_second",
                help="Fleet-level rollup throughput of the most recent "
                "sharded replay run.",
            ).set(report.n_stations * report.n_ticks / elapsed)
        return report

    # ------------------------------------------------------------------
    # lifecycle

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker; idempotent, safe after partial construction."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        workers = [w for w in getattr(self, "_workers", None) or [] if w is not None]
        deadline = time.perf_counter() + timeout
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in workers:
            worker.process.join(timeout=max(0.1, deadline - time.perf_counter()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []

    def __enter__(self) -> "ShardedFleetEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close(timeout=0.5)
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ShardedFleetEngine(n_stations={self._n_stations}, "
            f"n_shards={self.plan.n_shards}, tick={self._tick}, "
            f"failover={self.failover})"
        )
