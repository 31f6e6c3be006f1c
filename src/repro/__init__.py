"""repro — reproduction of "Federated Anomaly Detection and Mitigation
for EV Charging Forecasting Under Cyberattacks" (Babayomi & Kim).

A from-scratch, numpy-only implementation of the paper's complete
system and every substrate it depends on:

- :mod:`repro.nn` — a pure-numpy deep-learning framework (LSTM with
  hand-derived BPTT, Dense, Dropout, RepeatVector, TimeDistributed,
  Adam/SGD/RMSProp, early stopping, serialization).
- :mod:`repro.data` — synthetic Shenzhen-like EV charging data for the
  paper's three traffic zones plus the preprocessing pipeline
  (per-client MinMax scaling, temporal 80/20 split, 24 h windows).
- :mod:`repro.attacks` — the DDoS traffic model (33,000 → 350,500 p/s,
  100 ms slots) translated into volume-spike injection, plus FDI and
  temporal-disruption extensions.
- :mod:`repro.anomaly` — the ``EVChargingAnomalyFilter``: LSTM
  autoencoder detection (98th-percentile threshold) and
  interpolation-based mitigation.
- :mod:`repro.federated` — FedAvg client/server simulation with
  robust-aggregation alternatives and communication accounting.
- :mod:`repro.forecasting` — the LSTM(50)→Dense(10,relu)→Dense(1)
  forecaster in federated and centralized pipelines.
- :mod:`repro.experiments` — regenerates every table and figure of the
  paper's evaluation (Tables I–III, Figs. 2–3, headline metrics).
- :mod:`repro.stream` — the online serving path: per-station ring
  buffers, incremental MinMax scaling, calibrated per-station
  thresholds, a micro-batched
  :class:`~repro.stream.detector.StreamingDetector` (one LSTM forward
  per tick for the whole fleet), causal mitigation,
  and a replay engine with throughput/latency/detection reporting.
- :mod:`repro.serve` — the live ingestion layer: a framed, CRC-checked
  wire protocol, an asyncio :class:`~repro.serve.server.IngestionServer`
  (reorder buffer with lateness watermark, dedup, bounded-queue
  backpressure, SIGTERM checkpointing with bit-exact crash recovery)
  and a retrying :class:`~repro.serve.client.IngestClient` with a
  chaos-injection transport for fault soak tests.
- :mod:`repro.obs` — opt-in runtime observability: counters, gauges,
  latency histograms and stage spans threaded through the streaming,
  training and federated paths, with Prometheus text exposition and
  JSONL snapshot export (enable via ``repro.obs.enable()`` or
  ``REPRO_OBS=1``; zero-cost no-ops when off).

Quickstart::

    from repro.experiments import ExperimentConfig, get_or_run, full_report
    result = get_or_run(ExperimentConfig.fast())
    print(full_report(result))

Streaming quickstart (online detection across a fleet)::

    from repro.stream import StreamingDetector, StreamReplayEngine, attack_fleet

    detector = StreamingDetector(trained_autoencoder, n_stations, scaler=scaler)
    detector.calibrate(normal_history)              # per-station 98th pct
    engine = StreamReplayEngine(detector, mitigator="hold_last_good")
    attacked, labels, names = attack_fleet(clients, scenario, seed=7)
    print(engine.run(attacked, labels, names).summary())
"""

from repro import (
    anomaly,
    attacks,
    data,
    experiments,
    federated,
    forecasting,
    nn,
    obs,
    serve,
    stream,
    utils,
)

__version__ = "1.0.0"

__all__ = [
    "anomaly",
    "attacks",
    "data",
    "experiments",
    "federated",
    "forecasting",
    "nn",
    "obs",
    "serve",
    "stream",
    "utils",
    "__version__",
]
