"""Horizontal scale-out: shard the streaming fleet across processes.

The shard layer splits one logical fleet across N worker processes
while preserving every contract the single-process engine makes —
bit-exact outputs, elastic churn, checkpoint/resume parity — and adds
worker failover (respawn from snapshot + gap replay).

* :class:`ShardPlan` — deterministic, balanced station→shard routing
  that never migrates a survivor.
* :class:`ShardedFleetEngine` — the multi-process
  :class:`~repro.stream.engine.ReplayDriver`: scatter blocks, gather
  decisions, one engine facade.

Checkpoints use the one format of :mod:`repro.stream.checkpoint`: a
sharded engine saves one member file per shard under the manifest,
rewriting only shards that changed since their file was committed, and
a manifest with two or more shards loads back as a
:class:`ShardedFleetEngine` on the saved plan.
"""

from repro.stream.shard.engine import (
    ShardedFleetEngine,
    ShardFailoverError,
    ShardWorkerError,
)
from repro.stream.shard.plan import ShardPlan

__all__ = [
    "ShardFailoverError",
    "ShardPlan",
    "ShardWorkerError",
    "ShardedFleetEngine",
]
