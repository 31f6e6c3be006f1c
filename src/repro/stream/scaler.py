"""Incremental per-station MinMax scaling for streaming ingestion.

The batch pipeline fits one :class:`~repro.data.scaling.MinMaxScaler`
per client on that client's training segment.  Online, the fleet scaler
keeps the same per-station ``data_min_``/``data_max_`` state as a pair
of ``(n_stations,)`` vectors, updates them in O(n_stations) per tick
(:meth:`partial_fit`), and applies the identical transform — constant
stations map to the lower bound, exactly as the batch scaler does, so
scaled values round-trip bit-for-bit with the offline preprocessing.

Deployments typically :meth:`partial_fit` during a warmup window and
then :meth:`freeze` the bounds: adapting min/max *during* an attack
would let a volume spike stretch the scale and hide itself.
"""

from __future__ import annotations

import numpy as np

from repro.data.scaling import MinMaxScaler
from repro.stream._state import StateDict, check_keys, scalar, take
from repro.stream._ticks import check_block, check_drop, check_tick


class StreamingMinMaxScaler:
    """Per-station running min/max scaler over a fleet of series.

    Parameters
    ----------
    n_stations:
        Fleet size; all state vectors have this length.
    feature_range:
        Target range, default [0, 1] (the paper's normalisation).
    """

    #: Constructor configuration, rebuilt on construction — deliberately
    #: absent from state_dict (RPR001).
    _EPHEMERAL = ("n_stations", "feature_range")

    def __init__(
        self, n_stations: int, feature_range: tuple[float, float] = (0.0, 1.0)
    ) -> None:
        if n_stations < 1:
            raise ValueError(f"n_stations must be >= 1, got {n_stations}")
        low, high = feature_range
        if not high > low:
            raise ValueError(f"feature_range must be increasing, got {feature_range}")
        self.n_stations = int(n_stations)
        self.feature_range = (float(low), float(high))
        self.data_min_ = np.full(self.n_stations, np.inf, dtype=np.float64)
        self.data_max_ = np.full(self.n_stations, -np.inf, dtype=np.float64)
        self.frozen = False

    @classmethod
    def from_bounds(
        cls,
        data_min: np.ndarray,
        data_max: np.ndarray,
        feature_range: tuple[float, float] = (0.0, 1.0),
        frozen: bool = True,
    ) -> "StreamingMinMaxScaler":
        """Build from per-station bounds (e.g. batch-calibrated ones).

        ``data_min``/``data_max`` may come straight from one
        :class:`~repro.data.scaling.MinMaxScaler` per station fitted on
        training data — the streaming transform then matches the batch
        transform exactly.
        """
        data_min = np.asarray(data_min, dtype=np.float64).ravel()
        data_max = np.asarray(data_max, dtype=np.float64).ravel()
        if data_min.shape != data_max.shape:
            raise ValueError("data_min and data_max must have the same shape")
        scaler = cls(len(data_min), feature_range)
        scaler.data_min_ = data_min.copy()
        scaler.data_max_ = data_max.copy()
        scaler.frozen = bool(frozen)
        return scaler

    @classmethod
    def from_batch_scalers(
        cls, scalers: list[MinMaxScaler], feature_range: tuple[float, float] = (0.0, 1.0)
    ) -> "StreamingMinMaxScaler":
        """Adopt the bounds of per-client fitted batch scalers, frozen.

        Each batch scaler must be fitted on exactly one feature column —
        a streaming station is one scalar series, and silently adopting
        the *first* column of a multi-feature scaler would mis-scale
        every other feature's readings.
        """
        mins, maxs = [], []
        for index, batch_scaler in enumerate(scalers):
            if batch_scaler.data_min_ is None or batch_scaler.data_max_ is None:
                raise ValueError(f"scaler at index {index} is not fitted")
            data_min = np.asarray(batch_scaler.data_min_).ravel()
            data_max = np.asarray(batch_scaler.data_max_).ravel()
            if data_min.size != 1 or data_max.size != 1:
                raise ValueError(
                    f"scaler at index {index} was fitted on {data_min.size} "
                    f"features; from_batch_scalers needs single-feature scalers "
                    f"(one per station) — fit each on one station's series"
                )
            mins.append(float(data_min[0]))
            maxs.append(float(data_max[0]))
        return cls.from_bounds(
            np.array(mins, dtype=np.float64), np.array(maxs, dtype=np.float64), feature_range
        )

    @property
    def fitted(self) -> np.ndarray:
        """Boolean mask of stations that have observed at least one value."""
        return np.isfinite(self.data_min_)

    def freeze(self) -> "StreamingMinMaxScaler":
        """Stop adapting bounds (call after the warmup window)."""
        self.frozen = True
        return self

    def partial_fit(
        self, values: np.ndarray, stations: np.ndarray | None = None
    ) -> "StreamingMinMaxScaler":
        """Widen per-station bounds with one tick of readings."""
        if self.frozen:
            return self
        values, stations = self._check(values, stations)
        return self.partial_fit_checked(values, stations)

    def partial_fit_checked(
        self, values: np.ndarray, stations: np.ndarray
    ) -> "StreamingMinMaxScaler":
        """:meth:`partial_fit` for pre-validated arrays."""
        if self.frozen:
            return self
        np.minimum.at(self.data_min_, stations, values)
        np.maximum.at(self.data_max_, stations, values)
        return self

    def partial_fit_block(
        self, values: np.ndarray, stations: np.ndarray | None = None
    ) -> "StreamingMinMaxScaler":
        """Widen per-station bounds with a ``(k, B)`` block of readings.

        Equivalent to ``B`` sequential :meth:`partial_fit` calls — the
        final bounds only depend on the block's per-station extrema.
        """
        if self.frozen:
            return self
        values, stations = check_block(values, stations, self.n_stations)
        return self.partial_fit_block_checked(values, stations)

    def partial_fit_block_checked(
        self,
        values: np.ndarray,
        stations: np.ndarray,
        present: np.ndarray | None = None,
    ) -> "StreamingMinMaxScaler":
        """:meth:`partial_fit_block` for pre-validated arrays.

        ``present`` (same shape as ``values``, optional) restricts the
        widening to selected entries — the detector passes the
        not-missing mask so an absent (NaN) reading never touches the
        bounds.
        """
        if self.frozen:
            return self
        if present is None:
            block_min = values.min(axis=1)
            block_max = values.max(axis=1)
        else:
            # ±inf sentinels make masked-out entries no-ops under
            # minimum/maximum without NaN-propagation hazards.
            block_min = np.where(present, values, np.inf).min(axis=1)
            block_max = np.where(present, values, -np.inf).max(axis=1)
        np.minimum.at(self.data_min_, stations, block_min)
        np.maximum.at(self.data_max_, stations, block_max)
        return self

    def ingest_tick_checked(self, values: np.ndarray, stations: np.ndarray) -> np.ndarray:
        """Fold one pre-validated tick into the bounds and scale it.

        The one-column view of the block ingestion pair: transform under
        the running bounds, then commit them — so an unscalable tick (a
        NaN reading) raises BEFORE anything is committed.
        """
        column = values[:, None]
        scaled = self.transform_block_checked(column, stations)
        self.partial_fit_block_checked(column, stations)
        return scaled[:, 0]

    def transform(self, values: np.ndarray, stations: np.ndarray | None = None) -> np.ndarray:
        """Scale one tick of readings into the feature range."""
        values, stations = self._check(values, stations)
        return self.transform_checked(values, stations)

    def transform_checked(self, values: np.ndarray, stations: np.ndarray) -> np.ndarray:
        """:meth:`transform` for pre-validated arrays."""
        data_min = self.data_min_[stations]
        span = self.data_max_[stations] - data_min
        if not np.all(np.isfinite(span)):
            raise RuntimeError(
                "transform before any observation for some stations; "
                "partial_fit first (or build via from_bounds)"
            )
        return self._scale(values, data_min, span)

    def transform_block(
        self, values: np.ndarray, stations: np.ndarray | None = None
    ) -> np.ndarray:
        """Scale a ``(k, B)`` block exactly as tick-by-tick ingestion would.

        Tick-by-tick, each reading is first folded into the bounds
        (:meth:`partial_fit`) and then transformed, so a mid-block
        record-breaking value widens the scale for *itself and every
        later column but no earlier one*.  This method reproduces that
        bit-for-bit using per-column running bounds
        (``cummin``/``cummax`` against the current state) WITHOUT
        mutating state — call :meth:`partial_fit_block` afterwards to
        commit the block's extrema.  When the scaler is frozen the
        bounds are fixed and every column uses them, again matching the
        tick-by-tick path.
        """
        values, stations = check_block(values, stations, self.n_stations)
        return self.transform_block_checked(values, stations)

    def transform_block_checked(
        self,
        values: np.ndarray,
        stations: np.ndarray,
        present: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`transform_block` for pre-validated arrays.

        ``present`` (same shape, optional) marks which entries are real
        readings: masked-out (missing) entries neither widen the running
        bounds nor participate in the finiteness check, and their output
        values are meaningless — the detector overwrites them with
        causal imputes before anything downstream sees them.
        """
        if self.frozen:
            # Fixed bounds: the current-bounds transform.
            return self.transform_block_fixed_checked(values, stations, present)
        # Running bounds inclusive of the current column: exactly the
        # state a sequential partial_fit-then-transform would have seen.
        if present is None:
            run_values_min = values
            run_values_max = values
        else:
            run_values_min = np.where(present, values, np.inf)
            run_values_max = np.where(present, values, -np.inf)
        run_min = np.minimum(
            np.minimum.accumulate(run_values_min, axis=1),
            self.data_min_[stations][:, None],
        )
        run_max = np.maximum(
            np.maximum.accumulate(run_values_max, axis=1),
            self.data_max_[stations][:, None],
        )
        span = run_max - run_min
        finite = np.isfinite(span)
        if present is not None:
            finite |= ~present
        if not np.all(finite):
            # Same failure transform() raises for (a NaN reading, or
            # nothing observed and nothing in the block) — without this a
            # NaN would silently scale to NaN instead of erroring.
            raise RuntimeError(
                "transform before any observation for some stations; "
                "partial_fit first (or build via from_bounds)"
            )
        with np.errstate(invalid="ignore"):
            return self._scale(values, run_min, span)

    def transform_block_fixed_checked(
        self,
        values: np.ndarray,
        stations: np.ndarray,
        present: np.ndarray | None = None,
    ) -> np.ndarray:
        """Block transform under the *current* bounds only (no widening).

        Scales the way :meth:`transform` would — with whatever bounds
        stand now — regardless of frozen state.  The frozen path of
        :meth:`transform_block_checked` and the detector's
        ``amend_block`` (whose rewrites must never stretch the scale)
        use it.
        ``present`` (optional) exempts stations whose entries are all
        missing from the fitted-bounds requirement (their outputs are
        placeholder garbage the detector overwrites with imputes).
        """
        data_min = self.data_min_[stations][:, None]
        span = self.data_max_[stations][:, None] - data_min
        finite = np.isfinite(span)
        if present is not None:
            finite = finite | ~present.any(axis=1, keepdims=True)
        if not np.all(finite):
            raise RuntimeError(
                "transform before any observation for some stations; "
                "partial_fit first (or build via from_bounds)"
            )
        with np.errstate(invalid="ignore"):
            return self._scale(values, data_min, span)

    def _scale(
        self, values: np.ndarray, data_min: np.ndarray, span: np.ndarray
    ) -> np.ndarray:
        constant = span == 0.0
        low, high = self.feature_range
        scaled = (values - data_min) / np.where(constant, 1.0, span) * (high - low) + low
        return np.where(constant, low, scaled)

    def inverse_transform(
        self, values: np.ndarray, stations: np.ndarray | None = None
    ) -> np.ndarray:
        """Map scaled readings back to original units."""
        values, stations = self._check(values, stations)
        data_min = self.data_min_[stations]
        span = self.data_max_[stations] - data_min
        low, high = self.feature_range
        return (values - low) / (high - low) * span + data_min

    def transform_fleet(self, fleet: np.ndarray) -> np.ndarray:
        """Scale a whole ``(n_stations, T)`` history in one broadcast.

        Batch counterpart of :meth:`transform` for calibration-time work
        (per-timestep Python loops over a long history are pure
        overhead).
        """
        fleet = np.asarray(fleet, dtype=np.float64)
        if fleet.ndim != 2 or fleet.shape[0] != self.n_stations:
            raise ValueError(
                f"fleet must be ({self.n_stations}, T), got {fleet.shape}"
            )
        span = self.data_max_ - self.data_min_
        if not np.all(np.isfinite(span)):
            raise RuntimeError(
                "transform before any observation for some stations; "
                "partial_fit first (or build via from_bounds)"
            )
        safe_span = np.where(span == 0.0, 1.0, span)
        low, high = self.feature_range
        scaled = (fleet - self.data_min_[:, None]) / safe_span[:, None] * (high - low) + low
        return np.where(span[:, None] == 0.0, low, scaled)

    def _check(
        self, values: np.ndarray, stations: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        return check_tick(values, stations, self.n_stations)

    # ------------------------------------------------------------------
    # operations: serialization and elastic fleets
    # ------------------------------------------------------------------
    #: state_dict entry names — parents embedding this scaler build
    #: their expected-key sets from this instead of calling state_dict().
    STATE_KEYS = ("data_min", "data_max", "frozen")

    def state_dict(self) -> StateDict:
        """Runtime state as a flat dict of arrays (bit-exact resume)."""
        return {
            "data_min": self.data_min_.copy(),
            "data_max": self.data_max_.copy(),
            "frozen": scalar(self.frozen),
        }

    def load_state_dict(self, state: StateDict) -> None:
        """Restore state captured by :meth:`state_dict` (strictly validated)."""
        owner = type(self).__name__
        check_keys(state, set(self.STATE_KEYS), owner)
        data_min = take(state, "data_min", owner, (self.n_stations,), np.float64)
        data_max = take(state, "data_max", owner, (self.n_stations,), np.float64)
        frozen = take(state, "frozen", owner, (), np.bool_)
        self.data_min_ = data_min
        self.data_max_ = data_max
        self.frozen = bool(frozen)

    def add_stations(
        self,
        n_new: int,
        data_min: np.ndarray | None = None,
        data_max: np.ndarray | None = None,
    ) -> None:
        """Grow the fleet by ``n_new`` stations.

        New stations start unfitted (±inf bounds) unless explicit
        ``data_min``/``data_max`` are given — required in practice when
        the scaler is frozen, because a frozen scaler never learns
        bounds from the stream and an unfitted station cannot be scaled.
        """
        if n_new < 1:
            raise ValueError(f"n_new must be >= 1, got {n_new}")
        if (data_min is None) != (data_max is None):
            raise ValueError("pass both data_min and data_max, or neither")
        if data_min is None:
            new_min = np.full(n_new, np.inf, dtype=np.float64)
            new_max = np.full(n_new, -np.inf, dtype=np.float64)
        else:
            new_min = np.asarray(data_min, dtype=np.float64).ravel()
            new_max = np.asarray(data_max, dtype=np.float64).ravel()
            if new_min.shape != (n_new,) or new_max.shape != (n_new,):
                raise ValueError(
                    f"data_min/data_max must each hold {n_new} values, "
                    f"got {new_min.shape}/{new_max.shape}"
                )
        if self.frozen and data_min is None:
            raise ValueError(
                "a frozen scaler cannot learn bounds for new stations from "
                "the stream; pass data_min/data_max (e.g. batch-calibrated "
                "bounds) or unfreeze first"
            )
        self.n_stations += int(n_new)
        self.data_min_ = np.concatenate([self.data_min_, new_min])
        self.data_max_ = np.concatenate([self.data_max_, new_max])

    def drop_stations(self, stations: np.ndarray) -> None:
        """Remove stations; survivors keep their bounds, renumbered compactly."""
        stations = check_drop(stations, self.n_stations)
        self.data_min_ = np.delete(self.data_min_, stations)
        self.data_max_ = np.delete(self.data_max_, stations)
        self.n_stations -= len(stations)

    def __repr__(self) -> str:
        return (
            f"StreamingMinMaxScaler(n_stations={self.n_stations}, "
            f"frozen={self.frozen}, fitted={int(self.fitted.sum())})"
        )
