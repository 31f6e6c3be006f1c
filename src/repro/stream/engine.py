"""Replay driver: stream attack scenarios through the online pipeline.

The engine closes the loop between the batch world (datasets, attack
scenarios, trained autoencoders) and the streaming world: it takes a
``(n_stations, n_ticks)`` fleet matrix — built from any
:class:`~repro.attacks.scenario.AttackScenario` via
:func:`attack_fleet`, or synthesized at arbitrary scale via
:func:`synthesize_fleet` — and feeds it block by block (``B = 1``: one
tick at a time) through a :class:`~repro.stream.detector.StreamingDetector`
and an optional :class:`~repro.stream.mitigation.StreamingMitigator`,
timing every step.

The resulting :class:`StreamReport` carries throughput (ticks/s and
station-readings/s), per-tick latency quantiles, the full flag/mitigated
matrices, and — when ground-truth labels are supplied — the same
point-level detection metrics the batch experiments report
(:func:`repro.anomaly.metrics.aggregate_detection_metrics`).

One step primitive, :meth:`StreamReplayEngine.step_block`, serves the
offline replay (:meth:`~StreamReplayEngine.run`), the tick API
(:meth:`~StreamReplayEngine.step_tick`, a ``B = 1`` block) and live
ingestion (:mod:`repro.serve`), so all three decide identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.analysis.markers import hot_path
from repro.anomaly.metrics import DetectionMetrics, aggregate_detection_metrics
from repro.attacks.scenario import AttackScenario
from repro.data.datasets import ClientDataset
from repro.data.shenzhen import PAPER_ZONE_CONFIGS, generate_zone_series
from repro.stream._ticks import as_column
from repro.stream.detector import StreamingDetector
from repro.stream.mitigation import StreamingMitigator
from repro.stream.mitigation import get as get_mitigator
from repro.utils.rng import SeedLike, as_generator, spawn


class StreamInterrupted(RuntimeError):
    """A replay aborted mid-run (source raised, pipeline raised, Ctrl-C).

    The engine finalizes everything processed up to the failure into a
    complete :class:`StreamReport` — throughput, latencies, flags,
    mitigated values over the *completed* ticks — and attaches it as
    :attr:`report` instead of losing the run's stats.  The original
    failure is chained as ``__cause__`` (a ``KeyboardInterrupt`` during
    replay therefore surfaces as this exception; check ``__cause__`` if
    the distinction matters).
    """

    def __init__(self, report: StreamReport, cause: BaseException) -> None:
        super().__init__(
            f"stream replay interrupted after {report.n_ticks} completed "
            f"tick(s): {cause!r}"
        )
        self.report = report


@dataclass
class StreamReport:
    """Everything one replay produced.

    ``flags``/``scores``/``mitigated``/``missing`` are
    ``(n_stations, n_ticks)`` matrices aligned with the input fleet;
    ``latencies`` holds per-tick wall-clock seconds.  ``missing`` marks
    NaN readings accepted under the detector's ``missing="impute"`` mode
    (all-False otherwise).  ``metrics`` is present when labels were
    given.
    """

    n_stations: int
    n_ticks: int
    elapsed_seconds: float
    latencies: np.ndarray = field(repr=False)
    flags: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    mitigated: np.ndarray = field(repr=False)
    missing: np.ndarray = field(repr=False)
    metrics: DetectionMetrics | None = None

    @property
    def missing_counts(self) -> np.ndarray:
        """Per-station count of missing (NaN, imputed) readings."""
        return self.missing.sum(axis=1)

    @property
    def ticks_per_second(self) -> float:
        # Guard the degenerate replays: zero ticks is zero throughput
        # (not inf or 0/0), and a zero elapsed time with work done is
        # "unmeasurably fast".
        if self.n_ticks == 0:
            return 0.0
        return self.n_ticks / self.elapsed_seconds if self.elapsed_seconds > 0 else float("inf")

    @property
    def readings_per_second(self) -> float:
        return self.ticks_per_second * self.n_stations

    def latency_quantile(self, q: float) -> float:
        """Per-tick latency at percentile ``q`` (seconds).

        NaN for a zero-tick replay — there are no latencies to rank.
        """
        if self.latencies.size == 0:
            return float("nan")
        return float(np.percentile(self.latencies, q))

    def summary(self) -> str:
        """Human-readable one-stop report (throughput, latency, quality)."""
        lines = [
            f"streamed {self.n_ticks} ticks x {self.n_stations} stations "
            f"in {self.elapsed_seconds:.3f}s",
        ]
        if self.n_ticks == 0:
            lines.append("no ticks streamed (empty replay)")
        else:
            lines += [
                f"throughput: {self.ticks_per_second:,.1f} ticks/s "
                f"({self.readings_per_second:,.0f} readings/s)",
                f"per-tick latency: mean {1e3 * float(np.mean(self.latencies)):.3f} ms, "
                f"p50 {1e3 * self.latency_quantile(50):.3f} ms, "
                f"p95 {1e3 * self.latency_quantile(95):.3f} ms, "
                f"max {1e3 * float(np.max(self.latencies)):.3f} ms",
            ]
        total_missing = int(self.missing.sum())
        if total_missing:
            affected = int((self.missing_counts > 0).sum())
            lines.append(
                f"missing readings: {total_missing} imputed "
                f"across {affected} stations"
            )
        if self.metrics is not None:
            m = self.metrics
            lines.append(
                f"detection: precision {m.precision:.3f}, recall {m.recall:.3f}, "
                f"f1 {m.f1:.3f}, fpr {100 * m.false_positive_rate:.2f}%, "
                f"events detected {100 * m.events_detected_ratio:.1f}%"
            )
        return "\n".join(lines)


def _stacked_blocks(ticks, n_stations: int, block_size: int):
    """Stack an iterable of ``(n_stations,)`` ticks into blocks.

    Yields ``(n_stations, block_size)`` blocks as ticks accumulate, then
    a trailing partial block; a source error propagates at the tick it
    happens, leaving the pending ticks undecided.
    """
    pending: list[np.ndarray] = []
    for values in ticks:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (n_stations,):
            raise ValueError(f"each tick must be ({n_stations},), got {values.shape}")
        pending.append(values)
        if len(pending) == block_size:
            yield np.stack(pending, axis=1)
            pending = []
    if pending:
        yield np.stack(pending, axis=1)


class StreamReplayEngine:
    """Drive a fleet matrix through detection + mitigation, block by block.

    Every public step — :meth:`run`, :meth:`step_tick` and
    :meth:`step_block` — goes through one ``_step_block(values, reg)``,
    which takes an ``(n_stations, B)`` block and returns
    ``(flags, scores, missing, mitigated)``, each the block's shape.  A
    tick is a ``B = 1`` block everywhere.
    """

    def __init__(
        self,
        detector: StreamingDetector,
        mitigator: StreamingMitigator | str | None = None,
        *,
        feedback: bool = False,
    ) -> None:
        """Detection scores the raw readings and never sees a repair, as
        in the batch filter.  ``feedback`` accepts only ``False``: the
        closed loop that wrote repairs back into the window buffers was
        removed, and ``feedback=True`` raises :class:`ValueError`."""
        if feedback:
            raise ValueError(
                "feedback=True is not supported: the closed mitigation loop "
                "was removed; repairs are never written back into detection"
            )
        self.detector = detector
        self.mitigator: StreamingMitigator | None = (
            None if mitigator is None else get_mitigator(mitigator, detector.n_stations)
        )
        self._wire_fallback()

    @property
    def n_stations(self) -> int:
        """The fleet's current station count (the detector's)."""
        return self.detector.n_stations

    def _wire_fallback(self) -> None:
        """Default the mitigator's unset no-anchor fallbacks to scaler minima.

        A station flagged before it has any clean reading (attacked on
        its first tick) has no anchor to hold; without a fallback the
        attacked value would flow downstream as "mitigated".  The
        scaler's fixed lower bound per station is a safe stand-in.  Only
        unset (non-finite) fallback entries are filled, so explicit
        user-provided fallbacks win.

        Bounds are given up front, so this runs only where a station can
        gain an unset entry: at engine construction and in
        :meth:`add_stations`.  Without a mitigator or a scaler it does
        nothing.
        """
        if self.mitigator is None or self.detector.scaler is None:
            return
        unset = ~np.isfinite(self.mitigator.fallback)
        if not unset.any():
            return
        fallback = self.mitigator.fallback.copy()
        fallback[unset] = self.detector.scaler.data_min_[unset]
        self.mitigator.set_fallback(fallback)
        reg = obs.registry()
        if reg.enabled:
            reg.counter(
                "repro_stream_fallback_wired_total",
                help="Stations whose no-anchor mitigation fallback was "
                "wired from the scaler minimum.",
            ).inc(int(unset.sum()))

    @hot_path
    def _step_block(self, values: np.ndarray, reg) -> tuple:
        """One block: detect, then mitigate.

        The exact loop body of :meth:`run`, shared with live ingestion
        (:mod:`repro.serve`), so a served stream and an offline replay
        of the same readings take one code path.
        """
        result = self.detector.process_block(values)
        if self.mitigator is None:
            return result.flags, result.scores, result.missing, values.copy()
        with reg.span("repro_stream_mitigate"):
            # Missing readings are repaired exactly like flagged ones:
            # the policy's causal impute replaces the NaN.
            mitigated = self.mitigator.mitigate_block(values, result.flags | result.missing)
        return result.flags, result.scores, result.missing, mitigated

    def step_tick(
        self, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Process one ``(n_stations,)`` tick: :meth:`step_block` with ``B = 1``.

        Returns ``(flags, scores, missing, mitigated)``, each
        ``(n_stations,)``.
        """
        out = self._step_block(as_column(values), obs.registry())
        return tuple(column[:, 0] for column in out)

    def step_block(
        self, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Process one ``(n_stations, B)`` block: detect, then mitigate.

        The live-ingestion entry point: identical semantics to one
        iteration of :meth:`run`, so a server feeding consecutive blocks
        reproduces ``run(fleet, block_size=B)`` bit-for-bit on the same
        readings.  Returns ``(flags, scores, missing, mitigated)``, each
        ``(n_stations, B)``; without a mitigator, ``mitigated`` is a copy
        of ``values`` (NaN readings stay NaN).
        """
        return self._step_block(np.asarray(values, dtype=np.float64), obs.registry())

    def run(
        self,
        fleet: np.ndarray,
        labels: np.ndarray | None = None,
        station_names: list[str] | None = None,
        block_size: int = 1,
    ) -> StreamReport:
        """Replay ``fleet`` (``(n_stations, n_ticks)`` raw readings).

        ``labels`` — same-shape boolean ground truth — enables detection
        metrics in the report (micro-aggregated across stations, as the
        paper's "overall" numbers are).

        NaN entries in ``fleet`` raise under the detector's default
        ``missing="raise"``; with ``missing="impute"`` they stream as
        missing readings — scored against causal imputes, repaired by
        the mitigation policy (missing entries are treated exactly like
        flagged ones), and tallied in ``StreamReport.missing``.  Without
        a mitigator, missing entries stay NaN in ``report.mitigated``.

        ``block_size`` feeds ``B`` ticks at a time through
        :meth:`~repro.stream.detector.StreamingDetector.process_block` —
        the throughput lever for large fleets (one forward pass and one
        mitigation call per block instead of per tick); the default
        ``block_size=1`` decides every tick before the next one arrives.
        Larger blocks keep tick semantics for scaling and scoring (to
        floating-point round-off — float32 inference can round the last
        ulp differently across batch sizes).  A trailing partial block is
        processed with whatever ticks remain.  Per-tick ``latencies``
        within one block report the block's wall-clock divided evenly
        across its ticks.

        ``fleet`` may also be any *iterable* of per-tick
        ``(n_stations,)`` readings (a generator, a live source): ticks
        are consumed lazily, blocks are assembled as ``block_size``
        ticks accumulate (plus a trailing partial block), and the report
        covers however many ticks the source yielded.  ``labels``
        require a materialized fleet.

        If the source or the pipeline raises mid-run — including
        ``KeyboardInterrupt`` — the ticks completed so far are finalized
        into a full :class:`StreamReport` and re-raised as
        :class:`StreamInterrupted` with the report attached, instead of
        losing the whole run's stats.  Ticks delivered but not yet
        decided (a partial pending block) are not reported.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        n_stations = self.n_stations
        if station_names is not None and len(station_names) != n_stations:
            raise ValueError("station_names must have one entry per station")
        if isinstance(fleet, (np.ndarray, list, tuple)):
            fleet = np.asarray(fleet, dtype=np.float64)
            if fleet.ndim != 2 or fleet.shape[0] != n_stations:
                raise ValueError(
                    f"fleet must be ({n_stations}, n_ticks), got {fleet.shape}"
                )
            if labels is not None:
                labels = np.asarray(labels, dtype=bool)
                if labels.shape != fleet.shape:
                    raise ValueError(
                        f"labels shape {labels.shape} must match fleet shape {fleet.shape}"
                    )
            blocks = (
                fleet[:, first : first + block_size]
                for first in range(0, fleet.shape[1], block_size)
            )
        else:
            if labels is not None:
                raise ValueError("labels require a materialized (array) fleet")
            try:
                ticks = iter(fleet)
            except TypeError:
                raise TypeError(
                    f"fleet must be an array or an iterable of per-tick readings, "
                    f"got {type(fleet).__name__}"
                ) from None
            blocks = _stacked_blocks(ticks, n_stations, block_size)

        reg = obs.registry()
        step_hist = self._step_histogram(reg, block_size)
        # Per decided block: its (flags, scores, missing, mitigated)
        # columns and its wall-clock per tick.
        decided: list[tuple] = []
        latencies: list[np.ndarray] = []
        error: BaseException | None = None
        start = time.perf_counter()
        try:
            for block in blocks:
                block_start = time.perf_counter()
                decided.append(self._step_block(block, reg))
                block_elapsed = time.perf_counter() - block_start
                latencies.append(
                    np.full(block.shape[1], block_elapsed / block.shape[1], dtype=np.float64)
                )
                if step_hist is not None:
                    step_hist.observe(block_elapsed)
        except (Exception, KeyboardInterrupt) as exc:
            # An interrupted block's partial state stays in the detector,
            # but its undecided columns are not reported.
            error = exc
        elapsed = time.perf_counter() - start

        def join(column: int, dtype) -> np.ndarray:
            if not decided:
                return np.empty((n_stations, 0), dtype=dtype)
            return np.concatenate([out[column] for out in decided], axis=1)

        flags, scores = join(0, bool), join(1, np.float64)
        missing, mitigated = join(2, bool), join(3, np.float64)
        if labels is not None:
            labels = labels[:, : flags.shape[1]]
        return self._finalize(
            reg,
            elapsed,
            np.concatenate(latencies) if latencies else np.empty(0, dtype=np.float64),
            flags,
            scores,
            mitigated,
            missing,
            labels,
            station_names,
            error,
        )

    @staticmethod
    def _step_histogram(reg, block_size: int):
        """The histogram one run's steps land in (``None`` when disabled)."""
        if not reg.enabled:
            return None
        if block_size == 1:
            return reg.histogram(
                "repro_stream_tick_seconds",
                help="Wall-clock per tick-mode engine step (detect + mitigate).",
            )
        return reg.histogram(
            "repro_stream_block_seconds",
            help="Wall-clock per block-mode engine step (detect + mitigate).",
        )

    def _finalize(
        self,
        reg,
        elapsed: float,
        latencies: np.ndarray,
        flags: np.ndarray,
        scores: np.ndarray,
        mitigated: np.ndarray,
        missing: np.ndarray,
        labels: np.ndarray | None,
        station_names: list[str] | None,
        error: BaseException | None,
    ) -> StreamReport:
        """Assemble the report; raise :class:`StreamInterrupted` on error."""
        n_stations = self.n_stations
        n_ticks = flags.shape[1]
        if reg.enabled:
            reg.counter(
                "repro_stream_replay_runs_total", help="Replay engine runs."
            ).inc()
            if n_ticks and elapsed > 0:
                reg.gauge(
                    "repro_stream_readings_per_second",
                    help="Throughput of the most recent replay run.",
                ).set(n_ticks * n_stations / elapsed)
        metrics = None
        if labels is not None:
            names = station_names or [f"station-{j}" for j in range(n_stations)]
            metrics = aggregate_detection_metrics(
                {names[j]: (labels[j], flags[j]) for j in range(n_stations)}
            )
        report = StreamReport(
            n_stations=n_stations,
            n_ticks=n_ticks,
            elapsed_seconds=elapsed,
            latencies=latencies,
            flags=flags,
            scores=scores,
            mitigated=mitigated,
            missing=missing,
            metrics=metrics,
        )
        if error is not None:
            raise StreamInterrupted(report, error) from error
        return report

    def add_stations(
        self,
        n_new: int,
        thresholds: float | np.ndarray | None = None,
        data_min: np.ndarray | None = None,
        data_max: np.ndarray | None = None,
    ) -> None:
        """Grow the fleet mid-operation: detector and mitigator together.

        See :meth:`StreamingDetector.add_stations`; the mitigator (when
        present) gains matching cold stations, whose no-anchor fallback
        is wired from their scaler bounds.
        """
        self.detector.add_stations(
            n_new, thresholds=thresholds, data_min=data_min, data_max=data_max
        )
        if self.mitigator is not None:
            self.mitigator.add_stations(n_new)
            self._wire_fallback()
        self._count_churn("add", int(n_new))

    def drop_stations(self, stations: np.ndarray) -> None:
        """Remove stations mid-operation: detector and mitigator together."""
        before = self.detector.n_stations
        self.detector.drop_stations(stations)
        if self.mitigator is not None:
            self.mitigator.drop_stations(stations)
        self._count_churn("drop", before - self.detector.n_stations)

    @staticmethod
    def _count_churn(op: str, n: int) -> None:
        reg = obs.registry()
        if reg.enabled:
            reg.counter(
                "repro_stream_churn_stations_total",
                help="Stations added to / dropped from the fleet at runtime.",
                labels={"op": op},
            ).inc(n)


def _apply_dropout(
    fleet: np.ndarray, dropout_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """NaN out a random ``dropout_rate`` fraction of readings in place."""
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    if dropout_rate > 0.0:
        fleet[rng.random(fleet.shape) < dropout_rate] = np.nan
    return fleet


def attack_fleet(
    clients: list[ClientDataset],
    scenario: AttackScenario,
    seed: SeedLike = None,
    dropout_rate: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Adapt a batch attack scenario into replayable fleet matrices.

    Applies ``scenario`` to every client with independent schedules
    (exactly as the batch experiments do) and stacks the results into
    ``(attacked, labels, station_names)`` ready for
    :meth:`StreamReplayEngine.run`.  All clients must share one length.

    ``dropout_rate`` > 0 additionally NaNs out that fraction of readings
    uniformly at random (sensor dropout on top of the attack — replay
    with a ``missing="impute"`` detector); labels are untouched, so a
    dropped attacked reading still counts as an attack tick.
    """
    if not clients:
        raise ValueError("need at least one client")
    lengths = {len(client) for client in clients}
    if len(lengths) != 1:
        raise ValueError(f"clients must share one series length, got {sorted(lengths)}")
    outcomes = scenario.apply(clients, seed=seed)
    attacked = np.stack([outcomes[c.name].client.series for c in clients])
    labels = np.stack([outcomes[c.name].labels for c in clients])
    attacked = _apply_dropout(attacked, dropout_rate, spawn(seed, "fleet/dropout"))
    return attacked, labels, [client.name for client in clients]


def synthesize_fleet(
    n_stations: int,
    n_ticks: int,
    seed: SeedLike = None,
    dropout_rate: float = 0.0,
) -> np.ndarray:
    """Generate a large synthetic fleet ``(n_stations, n_ticks)``.

    Stations cycle through the paper's three zone profiles with
    independent noise streams — structure-preserving fleet scale-out for
    throughput work (the paper itself only has three stations).

    ``dropout_rate`` > 0 NaNs out that fraction of readings uniformly at
    random (simulated sensor dropout for ``missing="impute"`` replays);
    the underlying series are identical to a ``dropout_rate=0`` call
    with the same seed.
    """
    if n_stations < 1:
        raise ValueError(f"n_stations must be >= 1, got {n_stations}")
    if n_ticks < 1:
        raise ValueError(f"n_ticks must be >= 1, got {n_ticks}")
    rng = as_generator(seed)
    zone_ids = sorted(PAPER_ZONE_CONFIGS)
    fleet = np.empty((n_stations, n_ticks), dtype=np.float64)
    for j in range(n_stations):
        config = PAPER_ZONE_CONFIGS[zone_ids[j % len(zone_ids)]]
        series = generate_zone_series(
            config, n_timestamps=n_ticks, seed=spawn(rng, f"station/{j}")
        )
        fleet[j] = series.volume_kwh
    return _apply_dropout(fleet, dropout_rate, spawn(rng, "dropout"))
