"""Shard worker: one process, one shard-local StreamReplayEngine.

The worker is deliberately thin — it builds a *real*
:class:`~repro.stream.engine.StreamReplayEngine` over its shard's
stations and serves step/churn/state commands over a duplex pipe.
Because the shard-local pipeline is the exact single-engine code path
(same detector, same mitigator, same step), per-shard outputs
are bit-identical to the corresponding rows of a fleet-wide engine —
the parity foundation the whole shard layer rests on.

Wire protocol (parent → worker, one tuple per request)::

    ("init", payload)           build the pipeline; reply ("ready", snapshot?)
    ("block", values)           step an (n_local, B) block (a tick is B = 1)
    ("add", n, thr, dmin, dmax) grow the shard at the local tail
    ("drop", local_indices)     shrink the shard
    ("state",)                  snapshot detector/mitigator state
    ("stop",)                   exit

Replies are ``("ok", result)`` or ``("err", traceback_text)`` — a
pipeline exception (e.g. NaN under ``missing="raise"``) is reported and
the worker keeps serving, exactly as the in-process engine would raise
and remain usable.  A worker exits on its own when its owner process
dies (even by SIGKILL, with no ``stop`` sent).
"""

from __future__ import annotations

import multiprocessing
import traceback
from multiprocessing.connection import wait

from repro.stream import checkpoint as ckpt
from repro.stream.shard import _shm


def _build_engine(payload: dict):
    """Construct the shard-local engine from an init payload.

    Two entry shapes, both rebuilt by :func:`~repro.stream.checkpoint.build_engine`:

    * ``kind="full"`` — fleet-wide state plus this shard's member list;
      the worker builds the *full* pipeline, loads the full state, and
      drops the complement.  Reusing the engine-level elastic-fleet path
      guarantees the survivors' state is bit-identical to the fleet's.
    * ``kind="shard"`` — shard-shaped state (respawn, checkpoint
      restore); the worker builds at local size and loads directly.
    """
    meta = payload["meta"]
    weights = payload["weights"]
    if "shm" in weights:
        tensors = _shm.read_weights(weights["shm"])
    else:
        tensors = weights["raw"]
    engine = ckpt.build_engine(
        meta,
        ckpt.build_autoencoder(meta, tensors),
        payload["state"],
        int(payload["n_stations"]),
    )
    if payload["kind"] == "full":
        complement = payload["complement"]
        if complement.size:
            engine.drop_stations(complement)
    return engine


def _next_command(conn, owner_sentinel) -> tuple:
    """The owner's next command; :class:`EOFError` once the owner is gone.

    A fork-started worker inherits the parent-side ends of its own pipe
    and of every older sibling's, so its pipe never reads EOF when the
    owner dies.  The owner's process sentinel, which becomes ready when
    the owner exits, is waited on alongside the pipe.  (A sibling forked
    later holds the write end of this sentinel too; it exits first, on
    its own sentinel, so the workers wind down youngest first.)
    """
    if conn not in wait([conn, owner_sentinel]):
        raise EOFError
    return conn.recv()


def worker_main(conn) -> None:
    """Serve shard commands until ``stop``, a closed pipe or the owner's death."""
    owner = multiprocessing.parent_process().sentinel
    engine = None
    try:
        op, payload = _next_command(conn, owner)
        if op != "init":
            raise RuntimeError(f"worker expected init, got {op!r}")
        engine = _build_engine(payload)
        conn.send(("ready", ckpt.engine_state(engine) if payload["snapshot"] else None))
    except EOFError:
        return
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except (OSError, BrokenPipeError):
            pass
        return
    while True:
        try:
            msg = _next_command(conn, owner)
        except (EOFError, OSError):
            return
        op = msg[0]
        try:
            if op == "block":
                reply = engine.step_block(msg[1])
            elif op == "add":
                _, n_new, thresholds, data_min, data_max = msg
                engine.add_stations(
                    n_new, thresholds=thresholds, data_min=data_min, data_max=data_max
                )
                reply = None
            elif op == "drop":
                engine.drop_stations(msg[1])
                reply = None
            elif op == "state":
                reply = ckpt.engine_state(engine)
            elif op == "stop":
                conn.send(("ok", None))
                return
            else:
                raise RuntimeError(f"unknown shard command {op!r}")
        except Exception:
            try:
                conn.send(("err", traceback.format_exc()))
            except (OSError, BrokenPipeError):
                return
            continue
        try:
            conn.send(("ok", reply))
        except (OSError, BrokenPipeError):
            return
