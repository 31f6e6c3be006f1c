"""Causal (online) mitigation policies.

The batch pipeline repairs a flagged point by interpolating between the
normal values on *both* sides (:mod:`repro.anomaly.mitigation`).  A live
stream has no right-hand anchor — the repair must be causal, built only
from the past.  Each policy keeps O(1)–O(period) state per station,
fully vectorized across the fleet, and emits a mitigated value for every
station every tick: flagged readings are replaced, clean readings pass
through (and refresh the policy's notion of "last known good").

When a station is flagged before it has produced *any* clean reading
(attacked on its very first tick, say) there is no anchor to hold.  The
per-station :attr:`StreamingMitigator.fallback` value covers that gap:
when set, a no-anchor repair emits the fallback instead of passing the
attacked value through raw.  :class:`~repro.stream.engine.StreamReplayEngine`
wires the fallback to the detector scaler's ``data_min_`` (the smallest
reading ever observed per station) automatically; stations without a
fallback keep the historical raw-passthrough behaviour.

Every built-in policy has one implementation,
:meth:`StreamingMitigator.mitigate_block`, which repairs a
``(n_stations, B)`` block in one call, vectorized across *time* as well
— forward-filled anchor indices replace a per-tick Python loop — and
the repair at column ``t`` sees the same last-good/trend/seasonal state
one-tick-at-a-time replay would have had.  :meth:`~StreamingMitigator.mitigate`
is its ``B = 1`` view.

Operations: every policy serializes its runtime state via
``state_dict()`` / ``load_state_dict()`` (see
:mod:`repro.stream.checkpoint`) and resizes at runtime via
``add_stations`` / ``drop_stations`` without touching surviving
stations' state.
"""

from __future__ import annotations

from typing import NoReturn

import numpy as np

from repro.stream._state import StateDict, check_keys, nest, take, unnest
from repro.stream._ticks import check_drop
from repro.stream.buffers import RingBufferBank


class StreamingMitigator:
    """Base policy: ``mitigate_block(values, flags) -> repaired``.

    A policy overrides :meth:`mitigate_block` (``(n_stations, B)``
    blocks; the built-ins do) or :meth:`mitigate` (one
    ``(n_stations,)`` tick); the base class derives the other.

    ``fallback`` is an optional scalar or ``(n_stations,)`` array used
    to repair a flagged reading when no clean anchor exists yet; NaN
    (the default) preserves raw passthrough for that station.
    """

    name = "streaming-mitigator"

    def __init__(
        self, n_stations: int, fallback: float | np.ndarray | None = None
    ) -> None:
        if n_stations < 1:
            raise ValueError(f"n_stations must be >= 1, got {n_stations}")
        self.n_stations = int(n_stations)
        self.fallback = np.full(self.n_stations, np.nan, dtype=np.float64)
        if fallback is not None:
            self.set_fallback(fallback)

    def set_fallback(self, values: float | np.ndarray) -> "StreamingMitigator":
        """Install per-station no-anchor repair values (scalar broadcasts)."""
        values = np.broadcast_to(
            np.asarray(values, dtype=np.float64), (self.n_stations,)
        )
        self.fallback = values.copy()
        return self

    def mitigate(self, values: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """Return repaired readings for one tick: :meth:`mitigate_block` with ``B = 1``."""
        if type(self).mitigate_block is StreamingMitigator.mitigate_block:
            self._not_implemented()
        values, flags = self._check(values, flags)
        return self.mitigate_block(values[:, None], flags[:, None])[:, 0]

    def mitigate_block(self, values: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """Repair a ``(n_stations, B)`` block; never mutates input.

        The base implementation loops :meth:`mitigate` over columns, so
        a custom policy that only repairs single ticks still works in a
        block engine.
        """
        if type(self).mitigate is StreamingMitigator.mitigate:
            self._not_implemented()
        values, flags = self._check_block(values, flags)
        repaired = np.empty_like(values)
        for t in range(values.shape[1]):
            repaired[:, t] = self.mitigate(values[:, t], flags[:, t])
        return repaired

    def _not_implemented(self) -> NoReturn:
        raise NotImplementedError(
            f"{type(self).__name__} must override mitigate_block() (or mitigate())"
        )

    # ------------------------------------------------------------------
    # operations: serialization and elastic fleets
    # ------------------------------------------------------------------
    def get_config(self) -> dict:
        """Constructor kwargs (beyond fleet size) for checkpoint rebuild."""
        return {}

    def state_dict(self) -> StateDict:
        """Runtime state as a flat dict of arrays (see :mod:`._state`)."""
        return {"fallback": self.fallback.copy()}

    def load_state_dict(self, state: StateDict) -> None:
        """Restore state captured by :meth:`state_dict` (strictly validated)."""
        check_keys(state, {"fallback"}, type(self).__name__)
        self.fallback = take(
            state, "fallback", type(self).__name__, (self.n_stations,), np.float64
        )

    def add_stations(self, n_new: int) -> None:
        """Grow the fleet by ``n_new`` cold stations (no anchor, no fallback)."""
        if n_new < 1:
            raise ValueError(f"n_new must be >= 1, got {n_new}")
        self.n_stations += int(n_new)
        self.fallback = np.concatenate([self.fallback, np.full(n_new, np.nan, dtype=np.float64)])

    def drop_stations(self, stations: np.ndarray) -> None:
        """Remove stations; survivors keep their state, renumbered compactly."""
        stations = self._check_drop(stations)
        self.fallback = np.delete(self.fallback, stations)
        self.n_stations -= len(stations)

    def _check_drop(self, stations: np.ndarray) -> np.ndarray:
        return check_drop(stations, self.n_stations)

    def _check(self, values: np.ndarray, flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.asarray(values, dtype=np.float64)
        flags = np.asarray(flags, dtype=bool)
        if values.shape != (self.n_stations,) or flags.shape != (self.n_stations,):
            raise ValueError(
                f"values/flags must both be ({self.n_stations},), "
                f"got {values.shape}/{flags.shape}"
            )
        return values, flags

    def _check_block(
        self, values: np.ndarray, flags: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        values = np.asarray(values, dtype=np.float64)
        flags = np.asarray(flags, dtype=bool)
        if (
            values.ndim != 2
            or values.shape[0] != self.n_stations
            or flags.shape != values.shape
        ):
            raise ValueError(
                f"block values/flags must both be ({self.n_stations}, B), "
                f"got {values.shape}/{flags.shape}"
            )
        return values, flags

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_stations={self.n_stations})"


def _row_starts(matrix: np.ndarray) -> np.ndarray:
    """Flat offset of each row of a C-contiguous ``matrix``, as a column.

    Adding a same-shape column-index matrix gives flat indices for one
    1-D ``take`` — much cheaper than a 2-D fancy gather.
    """
    return np.arange(0, matrix.size, matrix.shape[1])[:, None]


def _refreshes(flags: np.ndarray, carried_at: np.ndarray | int) -> np.ndarray:
    """Position of the last state refresh at or before each block column.

    Block column ``t`` is position ``t + 1``; a clean (unflagged) column
    refreshes the policy state at itself, and until the first one the
    carried pre-block state counts as a refresh at ``carried_at`` (<= 0,
    scalar or ``(n, 1)``).  A forward fill over positions, no per-tick
    Python.
    """
    positions = np.arange(1, flags.shape[1] + 1)
    return np.maximum.accumulate(np.where(flags, carried_at, positions), axis=1)


class HoldLastGoodMitigator(StreamingMitigator):
    """Replace a flagged reading with the station's last clean value.

    The streaming analogue of the paper's "bridge the anomalous run from
    its boundaries" with only the left boundary available.  Flags before
    any clean observation repair to :attr:`fallback` when set, and pass
    the raw value through otherwise (there is nothing to hold yet).
    """

    name = "hold_last_good"

    def __init__(
        self, n_stations: int, fallback: float | np.ndarray | None = None
    ) -> None:
        super().__init__(n_stations, fallback=fallback)
        self.last_good = np.full(self.n_stations, np.nan, dtype=np.float64)

    def mitigate_block(self, values: np.ndarray, flags: np.ndarray) -> np.ndarray:
        values, flags = self._check_block(values, flags)
        # Index 0 holds the carried last_good, t + 1 block column t.  A
        # flagged column never refreshes, so its gathered value is the
        # last clean one strictly before it.
        history = np.concatenate([self.last_good[:, None], values], axis=1)
        last_good = history.take(_row_starts(history) + _refreshes(flags, 0))
        # A non-finite anchor (none yet, or a clean NaN reading) degrades
        # to the fallback; a NaN fallback passes the raw value through.
        source = np.where(np.isfinite(last_good), last_good, self.fallback[:, None])
        repaired = np.where(flags & np.isfinite(source), source, values)
        self.last_good = last_good[:, -1]
        return repaired

    def state_dict(self) -> StateDict:
        return super().state_dict() | {"last_good": self.last_good.copy()}

    def load_state_dict(self, state: StateDict) -> None:
        owner = type(self).__name__
        check_keys(state, {"fallback", "last_good"}, owner)
        last_good = take(state, "last_good", owner, (self.n_stations,), np.float64)
        super().load_state_dict({"fallback": state["fallback"]})
        self.last_good = last_good

    def add_stations(self, n_new: int) -> None:
        super().add_stations(n_new)
        self.last_good = np.concatenate([self.last_good, np.full(n_new, np.nan, dtype=np.float64)])

    def drop_stations(self, stations: np.ndarray) -> None:
        stations = self._check_drop(stations)
        self.last_good = np.delete(self.last_good, stations)
        super().drop_stations(stations)


class CausalLinearMitigator(StreamingMitigator):
    """Extrapolate a flagged run from the slope of the last two clean values.

    Keeps the repaired series moving with the local trend instead of
    flat-lining through long bursts.  ``max_slope_ticks`` caps how far
    the extrapolation runs before degrading to hold-last-good (an
    unbounded linear guess diverges on multi-hour attacks), and repairs
    are floored at zero — charging volume cannot be negative.  With no
    clean anchor yet the repair degrades to :attr:`fallback` (raw
    passthrough when unset).
    """

    name = "causal_linear"

    #: Constructor configuration, rebuilt from get_config() on
    #: checkpoint restore — deliberately absent from state_dict (RPR001).
    _EPHEMERAL = ("max_slope_ticks",)

    def __init__(
        self,
        n_stations: int,
        max_slope_ticks: int = 6,
        fallback: float | np.ndarray | None = None,
    ) -> None:
        super().__init__(n_stations, fallback=fallback)
        if max_slope_ticks < 1:
            raise ValueError(f"max_slope_ticks must be >= 1, got {max_slope_ticks}")
        self.max_slope_ticks = int(max_slope_ticks)
        self.last_good = np.full(self.n_stations, np.nan, dtype=np.float64)
        self.prev_good = np.full(self.n_stations, np.nan, dtype=np.float64)
        self._run_length = np.zeros(self.n_stations, dtype=np.int64)

    def mitigate_block(self, values: np.ndarray, flags: np.ndarray) -> np.ndarray:
        values, flags = self._check_block(values, flags)
        # The carried state refreshed -run_length positions ago, so
        # `run` continues a carried-in flagged run.
        at = _refreshes(flags, -self._run_length[:, None])
        run = np.arange(1, values.shape[1] + 1) - at
        # Index 0 holds prev_good, 1 last_good, t + 2 block column t: the
        # good value of a refresh at `a` sits at a + 1, its predecessor at a.
        carried = [self.prev_good[:, None], self.last_good[:, None]]
        history = np.concatenate(carried + [values], axis=1)
        refresh = _row_starts(history) + np.maximum(at, 0)
        last_good = history.take(refresh + 1)
        prev_good = np.concatenate(carried + [last_good], axis=1).take(refresh)
        slope = np.where(np.isfinite(prev_good), last_good - prev_good, 0.0)
        extrapolated = last_good + slope * np.minimum(run, self.max_slope_ticks)
        source = np.where(
            np.isfinite(last_good), np.maximum(extrapolated, 0.0), self.fallback[:, None]
        )
        repaired = np.where(flags & np.isfinite(source), source, values)
        self._run_length = run[:, -1].copy()
        self.last_good = last_good[:, -1]
        self.prev_good = prev_good[:, -1]
        return repaired

    def get_config(self) -> dict:
        return {"max_slope_ticks": self.max_slope_ticks}

    def state_dict(self) -> StateDict:
        return super().state_dict() | {
            "last_good": self.last_good.copy(),
            "prev_good": self.prev_good.copy(),
            "run_length": self._run_length.copy(),
        }

    def load_state_dict(self, state: StateDict) -> None:
        owner = type(self).__name__
        check_keys(state, {"fallback", "last_good", "prev_good", "run_length"}, owner)
        shape = (self.n_stations,)
        last_good = take(state, "last_good", owner, shape, np.float64)
        prev_good = take(state, "prev_good", owner, shape, np.float64)
        run_length = take(state, "run_length", owner, shape, np.int64)
        super().load_state_dict({"fallback": state["fallback"]})
        self.last_good = last_good
        self.prev_good = prev_good
        self._run_length = run_length

    def add_stations(self, n_new: int) -> None:
        super().add_stations(n_new)
        self.last_good = np.concatenate([self.last_good, np.full(n_new, np.nan, dtype=np.float64)])
        self.prev_good = np.concatenate([self.prev_good, np.full(n_new, np.nan, dtype=np.float64)])
        self._run_length = np.concatenate(
            [self._run_length, np.zeros(n_new, dtype=np.int64)]
        )

    def drop_stations(self, stations: np.ndarray) -> None:
        stations = self._check_drop(stations)
        self.last_good = np.delete(self.last_good, stations)
        self.prev_good = np.delete(self.prev_good, stations)
        self._run_length = np.delete(self._run_length, stations)
        super().drop_stations(stations)


class SeasonalHoldMitigator(StreamingMitigator):
    """Replace a flagged reading with the repaired value one period ago.

    Charging demand is strongly daily-periodic; the value from the same
    hour yesterday is a far better stand-in than the last clean value
    when a burst spans several hours.  Falls back to hold-last-good
    until a full period of history exists (which itself degrades to
    :attr:`fallback` before any clean value).
    """

    name = "seasonal_hold"

    #: Constructor configuration, rebuilt from get_config() on
    #: checkpoint restore — deliberately absent from state_dict (RPR001).
    _EPHEMERAL = ("period",)

    def __init__(
        self,
        n_stations: int,
        period: int = 24,
        fallback: float | np.ndarray | None = None,
    ) -> None:
        super().__init__(n_stations, fallback=fallback)
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.period = int(period)
        self._history = RingBufferBank(n_stations, period)
        self._fallback = HoldLastGoodMitigator(n_stations)
        self._fallback.fallback = self.fallback

    def set_fallback(self, values: float | np.ndarray) -> "StreamingMitigator":
        super().set_fallback(values)
        # The inner hold-last-good policy does the actual no-anchor
        # repair; keep it aliased to this policy's fallback array.
        if hasattr(self, "_fallback"):
            self._fallback.fallback = self.fallback
        return self

    def mitigate_block(self, values: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """Block repair, chunked so in-block seasonality stays exact.

        A block longer than one period would need repaired values from
        *inside itself* as seasonal sources; processing in chunks of at
        most ``period`` columns keeps every source in committed history,
        so the result matches one-tick-at-a-time replay for any ``B``.
        """
        values, flags = self._check_block(values, flags)
        repaired = np.empty_like(values)
        for start in range(0, values.shape[1], self.period):
            stop = min(start + self.period, values.shape[1])
            chunk = self._repair_chunk(values[:, start:stop], flags[:, start:stop])
            self._history.push_block(chunk)
            repaired[:, start:stop] = chunk
        return repaired

    def _repair_chunk(self, values: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """Repair ``b <= period`` columns against committed history only."""
        b = values.shape[1]
        held = self._fallback.mitigate_block(values, flags)
        # The seasonal source for chunk column t is the repaired value
        # exactly `period` ticks before it, which (for b <= period) sits
        # at position t of the history's trailing window — regardless of
        # how full the ring is, because recent() right-aligns.
        season = self._history.recent(self.period)[:, :b]
        ready = self._history.counts[:, None] + np.arange(b)[None, :] >= self.period
        use_season = flags & ready & np.isfinite(season)
        return np.where(use_season, season, held)

    def get_config(self) -> dict:
        return {"period": self.period}

    def state_dict(self) -> StateDict:
        return (
            super().state_dict()
            | nest("history", self._history.state_dict())
            | {"held.last_good": self._fallback.last_good.copy()}
        )

    def load_state_dict(self, state: StateDict) -> None:
        owner = type(self).__name__
        expected = {"fallback", "held.last_good"} | {
            f"history.{key}" for key in self._history.STATE_KEYS
        }
        check_keys(state, expected, owner)
        last_good = take(state, "held.last_good", owner, (self.n_stations,), np.float64)
        self._history.load_state_dict(unnest(state, "history"))
        super().load_state_dict({"fallback": state["fallback"]})
        self._fallback.last_good = last_good
        self._fallback.fallback = self.fallback

    def add_stations(self, n_new: int) -> None:
        super().add_stations(n_new)
        self._history.add_stations(n_new)
        self._fallback.add_stations(n_new)
        self._fallback.fallback = self.fallback

    def drop_stations(self, stations: np.ndarray) -> None:
        stations = self._check_drop(stations)
        self._history.drop_stations(stations)
        self._fallback.drop_stations(stations)
        super().drop_stations(stations)
        self._fallback.fallback = self.fallback


_REGISTRY: dict[str, type[StreamingMitigator]] = {
    "hold_last_good": HoldLastGoodMitigator,
    "causal_linear": CausalLinearMitigator,
    "seasonal_hold": SeasonalHoldMitigator,
}


def get(
    name_or_mitigator: str | StreamingMitigator,
    n_stations: int,
    **kwargs,
) -> StreamingMitigator:
    """Resolve a streaming mitigation policy by name."""
    if isinstance(name_or_mitigator, StreamingMitigator):
        if kwargs:
            raise ValueError(
                "constructor kwargs only apply when resolving a policy by name"
            )
        if name_or_mitigator.n_stations != n_stations:
            raise ValueError(
                f"mitigator tracks {name_or_mitigator.n_stations} stations, "
                f"expected {n_stations}"
            )
        return name_or_mitigator
    try:
        return _REGISTRY[name_or_mitigator](n_stations, **kwargs)
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown streaming mitigator {name_or_mitigator!r}; known: {known}"
        ) from None
