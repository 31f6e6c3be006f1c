"""Online anomaly detection with micro-batched autoencoder inference.

:class:`StreamingDetector` is the streaming counterpart of
:class:`~repro.anomaly.detector.ReconstructionAnomalyDetector` in its
``"window"`` scoring mode: at every tick the newest reading completes a
``sequence_length`` window per station, the *whole fleet's* windows go
through the trained :class:`~repro.anomaly.autoencoder.LSTMAutoencoder`
in ONE forward pass (micro-batching — the difference between thousands
of tiny LSTM invocations and one wide matmul chain per tick), and each
station's window MSE is compared against its threshold.

:meth:`StreamingDetector.process_block` is the one ingestion path: a
``(n_stations, B)`` block of consecutive readings is scaled, buffered,
and scored — all ``B × n_stations`` completed windows in ONE forward
pass — with zero per-tick Python.  :meth:`~StreamingDetector.process_tick`
is its ``B = 1`` view; larger blocks trade decision latency for
throughput (see ``benchmarks/bench_streaming.py``).

Replaying a series one tick at a time reproduces the batch detector's
window-mode flags exactly: same windows, same forward pass, same
threshold (see ``tests/stream/test_stream_parity.py``).

Thresholds come in two flavours:

* **fixed** — per-station (or global) values calibrated offline, e.g.
  the paper's 98th-percentile rule via :meth:`calibrate`;
* **adaptive** — per-station streaming percentiles maintained by the P²
  sketch (:class:`~repro.stream.quantile.P2QuantileBank`), updated only
  with scores that were *not* flagged, so an ongoing attack cannot
  stretch its own detection boundary.  In block mode the adaptive
  boundary is frozen for the duration of one block (flags inside a block
  are decided against the thresholds that stood at its start) and all of
  the block's clean scores are swept into the sketch afterwards —
  adaptation happens at block granularity, which is tick granularity
  at ``B = 1``.

Operations: the detector serializes its full pipeline state via
``state_dict()``/``load_state_dict()`` (bundle with the autoencoder via
:mod:`repro.stream.checkpoint` for one-file checkpoints with bit-exact
resume), resizes the fleet at runtime via ``add_stations`` /
``drop_stations``, and — under ``missing="impute"`` — accepts NaN
readings as missing data instead of raising (the default
``missing="raise"`` rejects them with a clear error).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.analysis.markers import hot_path
from repro.anomaly.autoencoder import LSTMAutoencoder
from repro.data.windowing import sliding_windows
from repro.stream._state import StateDict, check_keys, nest, scalar, take, unnest
from repro.stream._ticks import as_column, check_block, check_drop
from repro.stream.buffers import RingBufferBank
from repro.stream.quantile import P2QuantileBank
from repro.stream.scaler import StreamingMinMaxScaler

_MISSING_MODES = ("raise", "impute")


@dataclass
class TickResult:
    """Outcome of one engine tick across the fleet.

    ``scores``/``flags`` cover the full fleet; stations that were not
    scored this tick (no reading, or buffer still warming up) carry NaN
    scores and False flags.  ``scored`` marks which stations produced a
    decision.  ``missing`` marks stations whose reading this tick was a
    NaN handled under ``missing="impute"`` — they are never flagged
    (there is no reading to accuse) and their scores come from windows
    containing the imputed stand-in.
    """

    tick: int
    scored: np.ndarray
    scores: np.ndarray
    flags: np.ndarray
    missing: np.ndarray | None = None

    @property
    def n_flagged(self) -> int:
        return int(self.flags.sum())


@dataclass
class BlockResult:
    """Outcome of one ``B``-tick block across the fleet.

    ``scores``/``flags``/``scored`` are ``(n_stations, B)`` matrices
    whose column ``t`` is exactly the :class:`TickResult` that tick
    ``first_tick + t`` would have produced (for fixed thresholds;
    adaptive thresholds update at block granularity).  Stations absent
    from the block, or still warming up at a given column, carry NaN
    scores and False flags there.  ``missing`` marks entries that were
    NaN readings handled under ``missing="impute"``.
    """

    first_tick: int
    scored: np.ndarray
    scores: np.ndarray
    flags: np.ndarray
    missing: np.ndarray | None = None

    @property
    def block_size(self) -> int:
        return int(self.scores.shape[1])

    @property
    def n_flagged(self) -> int:
        return int(self.flags.sum())


class StreamingDetector:
    """Fleet-wide online detector with O(sequence_length) state/station.

    Parameters
    ----------
    autoencoder:
        A *trained* :class:`~repro.anomaly.autoencoder.LSTMAutoencoder`
        (train offline on normal data, exactly as the batch pipeline
        does — streaming applies to inference, not training).
    n_stations:
        Fleet size.
    scaler:
        Optional :class:`~repro.stream.scaler.StreamingMinMaxScaler`
        applied to raw readings before buffering.  Omit when the stream
        is already in scaled space.
    threshold:
        Scalar or ``(n_stations,)`` array of fixed decision boundaries,
        or the string ``"p2"`` for adaptive per-station streaming
        percentiles.  Fixed thresholds can also be installed later via
        :meth:`calibrate`.
    percentile:
        Percentile for adaptive mode and :meth:`calibrate` (paper: 98).
    min_calibration_scores:
        Adaptive mode only: per-station number of scores observed before
        flags may fire (an uncalibrated sketch is noise, not a boundary).
    missing:
        ``"raise"`` (default) rejects a NaN reading with a clear error;
        ``"impute"`` treats it as a missing observation — a causal
        stand-in (the station's last buffered value, or the scale floor
        for a cold buffer) fills the window so scoring continues, the
        missing reading never widens scaler bounds or updates adaptive
        thresholds, the station is not flagged at that tick, and
        :attr:`missing_counts` tracks per-station totals.  The replay
        engine additionally repairs missing entries with the mitigation
        policy (see :class:`~repro.stream.engine.StreamReplayEngine`).
    """

    #: Constructor configuration (and the injected model), supplied
    #: again on rebuild — deliberately absent from state_dict (RPR001).
    #: The autoencoder's weights checkpoint through its own state_dict.
    _EPHEMERAL = ("autoencoder", "percentile", "min_calibration_scores", "missing")

    def __init__(
        self,
        autoencoder: LSTMAutoencoder,
        n_stations: int,
        scaler: StreamingMinMaxScaler | None = None,
        threshold: float | np.ndarray | str | None = None,
        percentile: float = 98.0,
        min_calibration_scores: int = 50,
        missing: str = "raise",
    ) -> None:
        if n_stations < 1:
            raise ValueError(f"n_stations must be >= 1, got {n_stations}")
        if not 0.0 < percentile < 100.0:
            raise ValueError(f"percentile must be in (0, 100), got {percentile}")
        if min_calibration_scores < 5:
            raise ValueError(
                f"min_calibration_scores must be >= 5, got {min_calibration_scores}"
            )
        if scaler is not None and scaler.n_stations != n_stations:
            raise ValueError(
                f"scaler tracks {scaler.n_stations} stations, detector {n_stations}"
            )
        if missing not in _MISSING_MODES:
            raise ValueError(
                f"missing must be one of {_MISSING_MODES}, got {missing!r}"
            )
        self.autoencoder = autoencoder
        self.n_stations = int(n_stations)
        self.scaler = scaler
        self.percentile = float(percentile)
        self.min_calibration_scores = int(min_calibration_scores)
        self.missing = missing
        self.missing_counts = np.zeros(self.n_stations, dtype=np.int64)
        self.buffers = RingBufferBank(n_stations, self.sequence_length)
        self.tick = 0

        self.adaptive: P2QuantileBank | None = None
        self._thresholds = np.full(self.n_stations, np.nan, dtype=np.float64)
        if isinstance(threshold, str):
            if threshold != "p2":
                raise ValueError(f"threshold string must be 'p2', got {threshold!r}")
            self.adaptive = P2QuantileBank(self.n_stations, self.percentile)
        elif threshold is not None:
            self._thresholds[:] = np.asarray(threshold, dtype=np.float64)

    @property
    def sequence_length(self) -> int:
        return self.autoencoder.config.sequence_length

    @property
    def thresholds(self) -> np.ndarray:
        """Current per-station decision boundaries (NaN = cannot flag)."""
        if self.adaptive is not None:
            calibrated = self.adaptive.counts >= self.min_calibration_scores
            return np.where(calibrated, self.adaptive.estimate, np.nan)
        return self._thresholds

    def calibrate(self, normal_fleet: np.ndarray, scale: bool = True) -> np.ndarray:
        """Fit fixed per-station thresholds from normal history.

        ``normal_fleet`` is ``(n_stations, T)`` of known-normal raw
        readings (scaled internally when the detector owns a scaler and
        ``scale`` is true).  Every station's history is window-scored in
        one batched pass and its threshold set to the configured
        percentile of its own scores — the streaming equivalent of the
        paper's per-client 98th-percentile rule.  Returns the thresholds.
        """
        fleet = np.asarray(normal_fleet, dtype=np.float64)
        if fleet.ndim != 2 or fleet.shape[0] != self.n_stations:
            raise ValueError(
                f"normal_fleet must be ({self.n_stations}, T), got {fleet.shape}"
            )
        if fleet.shape[1] < self.sequence_length:
            raise ValueError("normal_fleet is shorter than one window")
        if self.scaler is not None and scale:
            fleet = self.scaler.transform_fleet(fleet)
        n_windows = fleet.shape[1] - self.sequence_length + 1
        windows = np.concatenate(
            [sliding_windows(fleet[j], self.sequence_length) for j in range(self.n_stations)]
        )
        errors = self.autoencoder.window_errors(windows[:, :, None])
        per_station = errors.reshape(self.n_stations, n_windows)
        self._thresholds = np.percentile(per_station, self.percentile, axis=1)
        self.adaptive = None
        return self._thresholds

    def process_tick(
        self, values: np.ndarray, stations: np.ndarray | None = None
    ) -> TickResult:
        """Ingest one reading per station: :meth:`process_block` with ``B = 1``.

        ``values`` holds raw readings for every station (or for the
        subset named by ``stations`` — only those are buffered and
        scored, which is the micro-batching entry point for fleets whose
        stations report on heterogeneous schedules).
        """
        block = self.process_block(as_column(values), stations)
        return TickResult(
            tick=block.first_tick,
            scored=block.scored[:, 0],
            scores=block.scores[:, 0],
            flags=block.flags[:, 0],
            missing=block.missing[:, 0],
        )

    @hot_path
    def process_block(
        self, values: np.ndarray, stations: np.ndarray | None = None
    ) -> BlockResult:
        """Ingest ``B`` consecutive readings per station in one call.

        ``values`` is ``(n_stations, B)`` raw readings, oldest column
        first (or ``(k, B)`` for the subset named by ``stations`` —
        heterogeneous schedules ingest block-wise too).  All ``B``
        columns are scaled with exact tick-by-tick bound-widening
        semantics, pushed into the ring buffers in one scatter, and every
        window the block completes is scored in ONE autoencoder forward
        pass.

        With adaptive (``"p2"``) thresholds, the boundary is frozen
        across the block and clean scores are folded in afterwards
        (block-granular adaptation); fixed thresholds have no such
        coupling and match one-tick-at-a-time replay to floating-point
        round-off for any ``B`` — larger batches can take different BLAS
        kernel paths, so the last ulp of a float32 score is not
        guaranteed across batch sizes.

        NaN readings raise under the default ``missing="raise"`` and are
        treated as missing observations under ``missing="impute"`` (see
        the class docstring).
        """
        reg = obs.registry()
        no_anchor_imputes = 0
        with reg.span("repro_stream_validate"):
            values, station_index = check_block(values, stations, self.n_stations)
        block = values.shape[1]
        length = self.sequence_length

        with reg.span("repro_stream_scale_buffer"):
            miss = np.isnan(values)
            any_missing = bool(miss.any())
            if any_missing and self.missing == "raise":
                raise ValueError(
                    f"{int(miss.sum())} NaN reading(s) in block starting at tick "
                    f"{self.tick}; missing readings are rejected by default — "
                    "construct the detector with missing='impute' to accept them"
                )
            present = ~miss if any_missing else None

            if self.scaler is not None:
                # Transform BEFORE committing bounds: the block transform
                # replays the per-column running bounds internally (missing
                # entries excluded from the bounds and the finiteness check).
                scaled = self.scaler.transform_block_checked(
                    values, station_index, present
                )
                self.scaler.partial_fit_block_checked(values, station_index, present)
            elif any_missing:
                scaled = values.copy()
            else:
                scaled = values
            if any_missing:
                no_anchor_imputes = self._impute(scaled, miss, station_index, reg.enabled)

            # History tail ‖ block: the window ending at block column t is
            # extended[:, t : t + L].
            counts_before = self.buffers.counts[station_index]
            extended = np.concatenate(
                [self.buffers.recent(length - 1, station_index), scaled], axis=1
            )
            self.buffers.push_block_checked(scaled, station_index)

        # Column t completes a window iff the station had accumulated
        # length-1-t readings beforehand.
        due = counts_before[:, None] + np.arange(1, block + 1)[None, :] >= length
        rows, cols = np.nonzero(due)
        # Flat positions of the decided entries in the (n_stations, B)
        # outputs: one 1-D put is much cheaper than a 2-D fancy scatter.
        decided = station_index[rows] * block + cols
        scores = np.full((self.n_stations, block), np.nan, dtype=np.float64)
        flags = np.zeros((self.n_stations, block), dtype=bool)
        scored = np.zeros((self.n_stations, block), dtype=bool)
        missing_full = np.zeros((self.n_stations, block), dtype=bool)
        if any_missing:
            missing_full[station_index] = miss
        if rows.size:
            with reg.span("repro_stream_forward"):
                # windows[r, t] is extended[r, t : t + L]: a strided view
                # of the fresh contiguous `extended` (no per-tick Python,
                # no index matrix; the ndarray constructor is the cheapest
                # way to build it).
                windows = np.ndarray(
                    (len(extended), block, length),
                    extended.dtype,
                    extended,
                    strides=extended.strides + extended.strides[1:],
                )
                # ONE forward pass for every completed window in the block.
                errors = self.autoencoder.window_errors(windows[rows, cols][:, :, None])
            with reg.span("repro_stream_threshold"):
                scores.put(decided, errors)
                # A NaN boundary (not calibrated yet) never flags.
                flagged = errors > self.thresholds[station_index[rows]]
                if any_missing:
                    # An absent reading is never flagged (the score judged
                    # an imputed stand-in, not a sensor value).
                    flagged &= present.take(rows * block + cols)
                flags.put(decided, flagged)
                if self.adaptive is not None:
                    # Guarded, block-granular adaptation: sweep the block's
                    # clean scores (flagged and imputed ones pre-masked out)
                    # through the sketch in column order.
                    clean = due & ~flags[station_index]
                    if any_missing:
                        clean &= present
                    if clean.any():
                        self.adaptive.update_block_checked(
                            scores[station_index], station_index, mask=clean
                        )
        scored.put(decided, True)
        if reg.enabled:
            self._record_obs(
                reg, values.size, int(flags.sum()), int(missing_full.sum()),
                no_anchor_imputes,
            )
        result = BlockResult(
            first_tick=self.tick,
            scored=scored,
            scores=scores,
            flags=flags,
            missing=missing_full,
        )
        self.tick += block
        return result

    def _impute(
        self,
        scaled: np.ndarray,
        miss: np.ndarray,
        station_index: np.ndarray,
        count_fallbacks: bool,
    ) -> int:
        """Fill the missing entries of ``scaled`` in place, causally.

        Each missing entry takes the most recent present scaled value in
        its row, carrying in the station's last buffered value (which
        reflects closed-loop repairs) or the scale floor for a buffer
        that has never seen a reading.  Only rows holding a missing entry
        are touched.  Returns how many imputes fell back to the floor
        (counted only when ``count_fallbacks``; 0 otherwise).
        """
        rows = np.flatnonzero(miss.any(axis=1))
        stations = station_index[rows]
        row_miss = miss[rows]
        self.missing_counts[stations] += row_miss.sum(axis=1)
        warm = self.buffers.counts[stations] >= 1
        floor = self.scaler.feature_range[0] if self.scaler is not None else 0.0
        carry = np.where(warm, self.buffers.last(stations), floor)
        carried = np.concatenate([carry[:, None], scaled[rows]], axis=1)
        # Position in `carried` of the value each entry takes: itself when
        # present, else the last present one before it (0 = the carry).
        anchor = np.maximum.accumulate(
            np.where(row_miss, 0, np.arange(1, carried.shape[1])), axis=1
        )
        starts = np.arange(0, carried.size, carried.shape[1])[:, None]
        scaled[rows] = carried.take(starts + anchor)
        if not count_fallbacks:
            return 0
        return int(np.count_nonzero((anchor == 0) & ~warm[:, None]))

    @staticmethod
    def _record_obs(
        reg, readings: int, flagged: int, missing: int, no_anchor: int
    ) -> None:
        """Fold one tick/block's counts into the enabled registry."""
        reg.counter(
            "repro_stream_readings_total", help="Readings ingested."
        ).inc(readings)
        if flagged:
            reg.counter(
                "repro_stream_flags_total", help="Readings flagged anomalous."
            ).inc(flagged)
        if missing:
            reg.counter(
                "repro_stream_missing_total",
                help="NaN readings accepted as missing and imputed.",
            ).inc(missing)
        if no_anchor:
            reg.counter(
                "repro_stream_impute_fallback_total",
                help="Missing readings imputed from the scale floor "
                "(no buffered anchor yet).",
            ).inc(no_anchor)

    def amend_last(
        self, values: np.ndarray, stations: np.ndarray | None = None
    ) -> None:
        """Replace the newest buffered reading: :meth:`amend_block` with ``B = 1``."""
        self.amend_block(as_column(values), stations)

    def amend_block(
        self,
        values: np.ndarray,
        stations: np.ndarray | None = None,
        flags: np.ndarray | None = None,
    ) -> None:
        """Replace the newest ``B`` buffered readings with repaired values.

        Closed-loop operation: after mitigation, writing the repaired
        values back into the window buffer stops an attacked reading
        from corrupting the next ``sequence_length`` windows (which is
        what smears window-mode flags onto normal neighbours).  Repairs
        are written back at block granularity — the *next* block's
        windows see the repaired history, while windows inside the
        amended block were already scored against the raw readings.  A
        closed loop intentionally diverges from the open-loop batch
        detector, which always scores the raw series.  Repaired values
        are re-scaled under the current bounds (never widening them;
        repairs are not observations).

        ``flags`` (same shape, optional) restricts the rewrite to the
        flagged entries.  The closed loop must pass it when the scaler is
        live: clean readings were buffered under mid-block *running*
        bounds, and rewriting them under end-of-block bounds would
        silently alter unflagged stations' history.
        """
        values, station_index = check_block(values, stations, self.n_stations)
        if flags is not None:
            flags = np.asarray(flags, dtype=bool)
            if flags.shape != values.shape:
                raise ValueError(
                    f"flags shape {flags.shape} must match values shape {values.shape}"
                )
        if self.scaler is not None:
            # `flags` doubles as the present mask: stations with no
            # rewritten entries need no fitted bounds.
            values = self.scaler.transform_block_fixed_checked(
                values, station_index, present=flags
            )
        self.buffers.amend_block_checked(values, station_index, mask=flags)

    # ------------------------------------------------------------------
    # operations: serialization and elastic fleets
    # ------------------------------------------------------------------
    def state_dict(self) -> StateDict:
        """Full pipeline state (buffers, scaler, thresholds, sketch, tick).

        Everything needed for bit-exact resume EXCEPT the autoencoder
        weights, which serialize via :mod:`repro.nn.serialization` — or
        use :func:`repro.stream.checkpoint.save_checkpoint` to bundle
        both into one archive.
        """
        state: StateDict = {
            "tick": scalar(self.tick),
            "thresholds": self._thresholds.copy(),
            "missing_counts": self.missing_counts.copy(),
        }
        state |= nest("buffers", self.buffers.state_dict())
        if self.scaler is not None:
            state |= nest("scaler", self.scaler.state_dict())
        if self.adaptive is not None:
            state |= nest("adaptive", self.adaptive.state_dict())
        return state

    def load_state_dict(self, state: StateDict) -> None:
        """Restore state captured by :meth:`state_dict` (strictly validated).

        The detector must be constructed with the same structure the
        state was saved from (fleet size, scaler presence, adaptive
        mode); mismatches raise instead of half-loading.
        """
        owner = type(self).__name__
        # Expected keys from each component's STATE_KEYS — calling
        # state_dict() here would deep-copy the whole pipeline just to
        # enumerate its keys.
        expected = {"tick", "thresholds", "missing_counts"}
        expected |= {f"buffers.{key}" for key in self.buffers.STATE_KEYS}
        if self.scaler is not None:
            expected |= {f"scaler.{key}" for key in self.scaler.STATE_KEYS}
        if self.adaptive is not None:
            expected |= {f"adaptive.{key}" for key in self.adaptive.STATE_KEYS}
        check_keys(state, expected, owner)
        tick = int(take(state, "tick", owner, (), np.int64))
        thresholds = take(state, "thresholds", owner, (self.n_stations,), np.float64)
        missing_counts = take(
            state, "missing_counts", owner, (self.n_stations,), np.int64
        )
        self.buffers.load_state_dict(unnest(state, "buffers"))
        if self.scaler is not None:
            self.scaler.load_state_dict(unnest(state, "scaler"))
        if self.adaptive is not None:
            self.adaptive.load_state_dict(unnest(state, "adaptive"))
        self.tick = tick
        self._thresholds = thresholds
        self.missing_counts = missing_counts

    def add_stations(
        self,
        n_new: int,
        thresholds: float | np.ndarray | None = None,
        data_min: np.ndarray | None = None,
        data_max: np.ndarray | None = None,
    ) -> None:
        """Grow the fleet by ``n_new`` stations joining cold at runtime.

        New stations start with empty buffers (they warm up over the
        next ``sequence_length`` ticks) and leave every existing
        station's state untouched.  In fixed-threshold mode pass
        ``thresholds`` (scalar or ``(n_new,)``) or the newcomers never
        flag (NaN boundary) until :meth:`calibrate` runs again; in
        adaptive mode they calibrate themselves from the stream.  When
        the detector owns a scaler, ``data_min``/``data_max`` seed the
        newcomers' bounds (required if the scaler is frozen).
        """
        if n_new < 1:
            raise ValueError(f"n_new must be >= 1, got {n_new}")
        if thresholds is not None and self.adaptive is not None:
            raise ValueError(
                "adaptive (p2) mode has no fixed thresholds to assign; "
                "new stations calibrate from the stream"
            )
        new_thresholds = np.full(n_new, np.nan, dtype=np.float64)
        if thresholds is not None:
            new_thresholds[:] = np.asarray(thresholds, dtype=np.float64)
        if self.scaler is not None:
            self.scaler.add_stations(n_new, data_min=data_min, data_max=data_max)
        elif data_min is not None or data_max is not None:
            raise ValueError("data_min/data_max require the detector to own a scaler")
        self.buffers.add_stations(n_new)
        if self.adaptive is not None:
            self.adaptive.add_stations(n_new)
        self._thresholds = np.concatenate([self._thresholds, new_thresholds])
        self.missing_counts = np.concatenate(
            [self.missing_counts, np.zeros(n_new, dtype=np.int64)]
        )
        self.n_stations += int(n_new)

    def drop_stations(self, stations: np.ndarray) -> None:
        """Remove stations from the fleet at runtime.

        Survivors keep their buffers, bounds, thresholds and sketches
        bit-for-bit; indices renumber compactly (station ``j`` becomes
        ``j - (dropped below j)``).
        """
        stations = check_drop(stations, self.n_stations)
        self.buffers.drop_stations(stations)
        if self.scaler is not None:
            self.scaler.drop_stations(stations)
        if self.adaptive is not None:
            self.adaptive.drop_stations(stations)
        self._thresholds = np.delete(self._thresholds, stations)
        self.missing_counts = np.delete(self.missing_counts, stations)
        self.n_stations -= len(stations)

    def __repr__(self) -> str:
        mode = "adaptive-p2" if self.adaptive is not None else "fixed"
        return (
            f"StreamingDetector(n_stations={self.n_stations}, "
            f"L={self.sequence_length}, threshold={mode}, tick={self.tick})"
        )
