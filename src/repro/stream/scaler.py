"""Per-station MinMax scaling with fixed bounds for streaming ingestion.

The batch pipeline fits one :class:`~repro.data.scaling.MinMaxScaler`
per client on that client's training segment, so its bounds are fixed
before the first live reading.  The fleet scaler keeps the same
per-station ``data_min_``/``data_max_`` state as a pair of
``(n_stations,)`` vectors, given when it is built (typically from each
station's training segment) and when stations join, and never moved by
the stream: bounds that adapted during an attack would let a volume
spike stretch the scale and hide itself.  The transform is the batch
scaler's — constant stations map to the lower bound — so scaled values
round-trip bit-for-bit with the offline preprocessing.

Bounds are validated wherever they enter (construction,
:meth:`~StreamingMinMaxScaler.add_stations`,
:meth:`~StreamingMinMaxScaler.load_state_dict`): one finite pair per
station with ``data_min <= data_max`` and a span that is 0 or has a
finite reciprocal (a subnormal span would scale every reading to inf).
Anything else raises :class:`ValueError` and leaves the scaler as it was.
"""

from __future__ import annotations

import numpy as np

from repro.stream._state import StateDict, check_keys, take
from repro.stream._ticks import check_block, check_drop, check_tick


def _check_bounds(
    data_min: np.ndarray, data_max: np.ndarray, n_stations: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Validated float64 copies of per-station bounds.

    ``n_stations`` (optional) is the number of pairs the caller needs.
    """
    if data_min is None or data_max is None:
        raise ValueError("pass both data_min and data_max: every station needs fixed bounds")
    data_min = np.array(data_min, dtype=np.float64).ravel()
    data_max = np.array(data_max, dtype=np.float64).ravel()
    if data_min.shape != data_max.shape or (
        n_stations is not None and data_min.shape != (n_stations,)
    ):
        want = "the same number of" if n_stations is None else f"{n_stations}"
        raise ValueError(
            f"data_min/data_max must each hold {want} values, "
            f"got {data_min.shape}/{data_max.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        span = data_max - data_min
        # A subnormal span (1 / span overflows) scales every reading to inf.
        usable = np.isfinite(span) & (span >= 0.0) & ((span == 0.0) | np.isfinite(1.0 / span))
    bad = np.flatnonzero(~usable)
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"data_min/data_max must be finite with data_min <= data_max and a "
            f"span that is 0 or has a finite reciprocal; entry {j} has "
            f"data_min={data_min[j]!r}, data_max={data_max[j]!r}"
        )
    return data_min, data_max


class StreamingMinMaxScaler:
    """Per-station MinMax scaler with fixed bounds over a fleet of series.

    Parameters
    ----------
    data_min, data_max:
        Per-station bounds, one finite pair per station with
        ``data_min <= data_max`` and a span that is 0 or not subnormal
        (e.g. the bounds of one batch
        :class:`~repro.data.scaling.MinMaxScaler` per station fitted on
        training data — the streaming transform then matches the batch
        transform exactly).  The fleet size is their length.
    feature_range:
        Target range, default [0, 1] (the paper's normalisation).
    """

    #: Constructor configuration, rebuilt on construction — deliberately
    #: absent from state_dict (RPR001).
    _EPHEMERAL = ("n_stations", "feature_range")

    def __init__(
        self,
        data_min: np.ndarray,
        data_max: np.ndarray,
        feature_range: tuple[float, float] = (0.0, 1.0),
    ) -> None:
        low, high = feature_range
        if not high > low:
            raise ValueError(f"feature_range must be increasing, got {feature_range}")
        self.data_min_, self.data_max_ = _check_bounds(data_min, data_max)
        if self.data_min_.size < 1:
            raise ValueError("a scaler needs bounds for at least one station")
        self.n_stations = int(self.data_min_.size)
        self.feature_range = (float(low), float(high))

    @classmethod
    def from_bounds(
        cls,
        data_min: np.ndarray,
        data_max: np.ndarray,
        feature_range: tuple[float, float] = (0.0, 1.0),
    ) -> "StreamingMinMaxScaler":
        """Build from per-station bounds: the constructor, by name."""
        return cls(data_min, data_max, feature_range)

    def partial_fit(self, *args, **kwargs) -> "StreamingMinMaxScaler":
        """No-op: bounds are fixed, so readings never move them.

        ``partial_fit_checked``, ``partial_fit_block`` and
        ``partial_fit_block_checked`` are the same no-op, kept so callers
        of the fit-then-transform protocol keep working.  Returns ``self``.
        """
        return self

    partial_fit_checked = partial_fit_block = partial_fit_block_checked = partial_fit

    def transform(self, values: np.ndarray, stations: np.ndarray | None = None) -> np.ndarray:
        """Scale one tick of readings into the feature range."""
        values, stations = check_tick(values, stations, self.n_stations)
        return self.transform_checked(values, stations)

    def transform_checked(self, values: np.ndarray, stations: np.ndarray) -> np.ndarray:
        """:meth:`transform` for pre-validated arrays: a one-column block."""
        return self.transform_block_checked(values[:, None], stations)[:, 0]

    #: Kept for callers that pin the name: the tick transform.
    ingest_tick_checked = transform_checked

    def transform_block(
        self, values: np.ndarray, stations: np.ndarray | None = None
    ) -> np.ndarray:
        """Scale a ``(k, B)`` block: every column under the fixed bounds."""
        values, stations = check_block(values, stations, self.n_stations)
        return self.transform_block_checked(values, stations)

    def transform_block_checked(self, values: np.ndarray, stations) -> np.ndarray:
        """:meth:`transform_block` for pre-validated arrays — the one transform body.

        ``stations`` indexes the rows of ``values`` into the fleet (an
        index array, or a full slice).  A NaN reading scales to NaN.
        """
        data_min = self.data_min_[stations, None]
        span = self.data_max_[stations, None] - data_min
        constant = span == 0.0
        low, high = self.feature_range
        scaled = (values - data_min) / np.where(constant, 1.0, span) * (high - low) + low
        return np.where(constant, low, scaled)

    #: Kept for callers that pin the name: the block transform.
    transform_block_fixed_checked = transform_block_checked

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
        return self.transform_block_checked(fleet, slice(None))

    # ------------------------------------------------------------------
    # operations: serialization and elastic fleets
    # ------------------------------------------------------------------
    #: state_dict entry names — parents embedding this scaler build
    #: their expected-key sets from this instead of calling state_dict().
    STATE_KEYS = ("data_min", "data_max")

    def state_dict(self) -> StateDict:
        """Runtime state as a flat dict of arrays (bit-exact resume)."""
        return {"data_min": self.data_min_.copy(), "data_max": self.data_max_.copy()}

    def load_state_dict(self, state: StateDict) -> None:
        """Restore state captured by :meth:`state_dict` (strictly validated)."""
        owner = type(self).__name__
        check_keys(state, set(self.STATE_KEYS), owner)
        data_min = take(state, "data_min", owner, (self.n_stations,), np.float64)
        data_max = take(state, "data_max", owner, (self.n_stations,), np.float64)
        self.data_min_, self.data_max_ = _check_bounds(data_min, data_max)

    def add_stations(self, n_new: int, data_min: np.ndarray, data_max: np.ndarray) -> None:
        """Grow the fleet by ``n_new`` stations with their own fixed bounds."""
        if n_new < 1:
            raise ValueError(f"n_new must be >= 1, got {n_new}")
        new_min, new_max = _check_bounds(data_min, data_max, n_new)
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
        return f"StreamingMinMaxScaler(n_stations={self.n_stations})"
