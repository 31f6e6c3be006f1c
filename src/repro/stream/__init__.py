"""Online streaming detection & mitigation for fleet-scale telemetry.

The batch pipeline (:mod:`repro.anomaly`) re-windows and re-scores a
full series on every call — fine for reproducing the paper's tables,
useless for a live federated deployment ingesting readings from
thousands of charging stations.  This package is the online serving
path: per-station ring buffers hold exactly one autoencoder window of
history (:mod:`~repro.stream.buffers`), scaling is per-station under
fixed MinMax bounds fitted on training data, as in the paper
(:mod:`~repro.stream.scaler`), thresholds are calibrated
per station from normal history, inference is *micro-batched* — one
LSTM forward pass per tick for the whole fleet, not one per station
(:mod:`~repro.stream.detector`) — and mitigation is causal, built only
from the past (:mod:`~repro.stream.mitigation`).  :mod:`~repro.stream.engine` replays
any batch attack scenario through the pipeline and reports throughput,
latency, and the paper's detection metrics.

The pipeline step is a block, batching the *time* axis as well:
:meth:`StreamingDetector.process_block` ingests ``(n_stations, B)``
readings and scores every window the block completes in one inference
pass, and ``engine.run(fleet, block_size=B)`` drives detection and
mitigation block-wise.  Mitigation repairs the output stream only;
detection always scores the raw readings.  Every per-tick entry point
(``process_tick``, ``step_tick``, ``mitigate``) is the ``B = 1`` view of
its block counterpart.

Operations: the pipeline checkpoints to a manifest directory with
bit-exact resume (:mod:`~repro.stream.checkpoint`), fleets grow and
shrink at runtime (``add_stations``/``drop_stations`` on the detector,
engine and every state bank), and NaN readings can be accepted as
missing data (``StreamingDetector(..., missing="impute")``) — imputed
causally, never flagged, and counted per-station in the report.  One in-process
:class:`~repro.stream.engine.StreamReplayEngine` runs the whole fleet.

Quickstart::

    from repro.stream import (
        StreamingDetector, StreamingMinMaxScaler, StreamReplayEngine,
        attack_fleet,
    )

    fleet_scaler = StreamingMinMaxScaler.from_bounds(train_min, train_max)
    detector = StreamingDetector(trained_autoencoder, n_stations,
                                 scaler=fleet_scaler)
    detector.calibrate(normal_history)          # per-station 98th pct
    engine = StreamReplayEngine(detector, mitigator="hold_last_good")
    report = engine.run(*attack_fleet(clients, scenario, seed=7)[:2])
    print(report.summary())
"""

from repro.stream.buffers import RingBufferBank
from repro.stream.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.detector import BlockResult, StreamingDetector, TickResult
from repro.stream.engine import (
    StreamInterrupted,
    StreamReplayEngine,
    StreamReport,
    attack_fleet,
    synthesize_fleet,
)
from repro.stream.mitigation import (
    CausalLinearMitigator,
    HoldLastGoodMitigator,
    SeasonalHoldMitigator,
    StreamingMitigator,
)
from repro.stream.scaler import StreamingMinMaxScaler

__all__ = [
    "RingBufferBank",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "BlockResult",
    "StreamingDetector",
    "TickResult",
    "StreamInterrupted",
    "StreamReplayEngine",
    "StreamReport",
    "attack_fleet",
    "synthesize_fleet",
    "CausalLinearMitigator",
    "HoldLastGoodMitigator",
    "SeasonalHoldMitigator",
    "StreamingMitigator",
    "StreamingMinMaxScaler",
]
