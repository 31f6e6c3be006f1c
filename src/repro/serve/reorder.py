"""Reorder buffer: out-of-order frames back into a tick timeline.

The wire delivers ``(station, seq, reading)`` triples in whatever order
the network feels like; the detector consumes dense ``(n_stations,)``
tick columns in strict tick order.  :class:`ReorderBuffer` bridges the
two:

* **Re-sequencing.** Each accepted reading is filed under its absolute
  tick index.  Ticks become *flushable* once they fall at or below the
  **watermark** — ``highest_seen_tick - lateness`` — i.e. once the fleet
  has collectively advanced ``lateness`` ticks past them.  Flushing
  emits dense columns in order; a station that never delivered its
  reading for an emitted tick contributes NaN, which the detector's
  ``missing="impute"`` path repairs downstream.
* **Deduplication.** A second copy of a ``(station, seq)`` already filed
  (retry, chaos duplicate) is reported :data:`Offer.DUPLICATE`.
* **Lateness.** A frame for a tick that has already been emitted is
  :data:`Offer.LATE` — dropped, its slot already served as missing.
* **Seq unwrapping.** Wire seqs live in u32 and wrap at ``2**32``.  Each
  station's raw seq is unwrapped against its own last absolute position
  (nearest-interpretation with a ``2**31`` midpoint), so a fleet running
  long enough to wrap keeps a monotone internal timeline.
* **Backpressure.** At most ``capacity`` ticks may sit between the next
  tick to emit and the newest pending tick; an offer that would stretch
  the window further is :data:`Offer.OVERFLOW` — the server answers
  BUSY and the client backs off and retries.

The buffer is plain sync code with O(pending) state so it can be
checkpointed (:meth:`state_dict`/:meth:`load_state_dict`) alongside the
detector for bit-exact crash recovery.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.serve.protocol import SEQ_MOD

_HALF = SEQ_MOD // 2


class Offer(Enum):
    """Outcome of offering one reading to the buffer."""

    ACCEPTED = "accepted"
    DUPLICATE = "duplicate"
    LATE = "late"
    OVERFLOW = "overflow"


#: Dense uint8 encoding of :class:`Offer` for the vectorized batch path:
#: ``offer_block`` returns codes indexing this tuple.  Each code equals
#: the :class:`~repro.serve.protocol.AckStatus` the sender is answered
#: with (OK, DUPLICATE, LATE, BUSY), so the server acks codes as they are.
OFFER_BY_CODE = (Offer.ACCEPTED, Offer.DUPLICATE, Offer.LATE, Offer.OVERFLOW)
_CODE = {offer: i for i, offer in enumerate(OFFER_BY_CODE)}


class _Pending:
    __slots__ = ("values", "filled", "first_arrival")

    def __init__(self, n_stations: int, arrival: float) -> None:
        self.values = np.full(n_stations, np.nan)
        self.filled = np.zeros(n_stations, dtype=bool)
        self.first_arrival = arrival


class ReorderBuffer:
    """Re-sequence, dedup, and watermark a fleet's out-of-order frames.

    Parameters
    ----------
    n_stations:
        Fleet width; station ids on the wire are ``0..n_stations-1``.
    lateness:
        Watermark lag in ticks.  Tick ``t`` is held until some station
        reports a tick ``>= t + lateness`` (or a flush forces it out).
        ``0`` means no reordering tolerance: a tick is flushable as
        soon as any frame for it (or a newer tick) arrives.
    capacity:
        Maximum span of buffered ticks (next-to-emit .. newest pending).
        Offers beyond it overflow — the backpressure signal.
    start:
        Absolute tick index the timeline starts at (tick of the first
        expected reading).  Lets tests park the buffer just below the
        u32 wrap point.
    """

    #: Telemetry tallies restart from zero on resume by design — the obs
    #: layer owns cumulative counters (RPR001).
    _EPHEMERAL = ("counts",)

    def __init__(
        self,
        n_stations: int,
        *,
        lateness: int = 8,
        capacity: int = 1024,
        start: int = 0,
    ) -> None:
        if n_stations < 1:
            raise ValueError(f"n_stations must be >= 1, got {n_stations}")
        if lateness < 0:
            raise ValueError(f"lateness must be >= 0, got {lateness}")
        if capacity < max(1, lateness + 1):
            raise ValueError(
                f"capacity must cover the watermark lag (>= {max(1, lateness + 1)}), "
                f"got {capacity}"
            )
        self.n_stations = n_stations
        self.lateness = lateness
        self.capacity = capacity
        #: Next absolute tick index to emit.
        self.next_emit = start
        #: Highest absolute tick index seen so far (start - 1 when empty).
        self.high = start - 1
        #: Per-station last absolute tick filed (-1 sentinel: none yet).
        self.last_seen = np.full(n_stations, -1, dtype=np.int64)
        self._pending: dict[int, _Pending] = {}
        # Telemetry tallies (mirrored into repro.obs by the server).
        self.counts = {offer: 0 for offer in Offer}

    # ------------------------------------------------------------------
    # ingest

    def _unwrap(self, station: int, raw_seq: int) -> int:
        """Absolute tick index for a wire seq, nearest-interpretation.

        The reference point is the station's own last absolute tick (or
        the global ``next_emit`` before its first frame).  A forward
        delta under ``2**31`` moves forward; anything else is read as
        the (smaller) backward step — so duplicates and stragglers keep
        their original tick across a u32 wrap instead of landing one
        full period in the future.
        """
        ref = int(self.last_seen[station])
        if ref < 0:
            ref = self.next_emit
        delta = (raw_seq - ref) % SEQ_MOD
        if delta < _HALF:
            return int(ref + delta)
        return int(ref - (SEQ_MOD - delta))

    def offer(self, station: int, raw_seq: int, reading: float, arrival: float = 0.0) -> Offer:
        """File one reading; returns the ack the sender should see.

        ``arrival`` is a caller-supplied clock reading used for
        ingest-latency accounting of the tick's *first* frame.
        """
        if not 0 <= station < self.n_stations:
            raise ValueError(f"station {station} out of range [0, {self.n_stations})")
        tick = self._unwrap(station, raw_seq)
        if tick < self.next_emit:
            # Already emitted (as a value or as NaN-missing) — too late.
            self.counts[Offer.LATE] += 1
            return Offer.LATE
        entry = self._pending.get(tick)
        if entry is not None and entry.filled[station]:
            self.counts[Offer.DUPLICATE] += 1
            return Offer.DUPLICATE
        if entry is None:
            if tick - self.next_emit >= self.capacity:
                self.counts[Offer.OVERFLOW] += 1
                return Offer.OVERFLOW
            entry = self._pending[tick] = _Pending(self.n_stations, arrival)
        entry.values[station] = reading
        entry.filled[station] = True
        if tick > self.high:
            self.high = tick
        if tick > self.last_seen[station]:
            self.last_seen[station] = tick
        self.counts[Offer.ACCEPTED] += 1
        return Offer.ACCEPTED

    def offer_block(
        self,
        stations: np.ndarray,
        raw_seqs: np.ndarray,
        readings: np.ndarray,
        arrival: float = 0.0,
    ) -> np.ndarray:
        """File many readings at once; per-reading codes into :data:`OFFER_BY_CODE`.

        Exactly equivalent to calling :meth:`offer` once per reading in
        order — the batch tests assert this property — but the unwrap,
        watermark, dedup, and filing steps run vectorized per *tick
        group* instead of per reading.  When the batch mentions the same
        station twice, later entries depend on how earlier ones filed
        (unwrap reference, dedup), so such batches take the scalar path;
        so does a one-record batch (every v1 DATA frame), for which the
        vectorized steps are pure fixed overhead.
        """
        stations = np.asarray(stations, dtype=np.int64)
        raw_seqs = np.asarray(raw_seqs, dtype=np.int64)
        readings = np.asarray(readings, dtype=np.float64)
        if not (stations.shape == raw_seqs.shape == readings.shape and stations.ndim == 1):
            raise ValueError("stations, raw_seqs, readings must be equal-length 1-D arrays")
        n = stations.size
        if n == 0:
            return np.empty(0, dtype=np.uint8)
        # A one-record batch is range-checked by the scalar offer it takes.
        if n > 1 and (int(stations.min()) < 0 or int(stations.max()) >= self.n_stations):
            raise ValueError(f"station out of range [0, {self.n_stations})")
        if n == 1 or np.unique(stations).size != n:
            records = zip(stations.tolist(), raw_seqs.tolist(), readings.tolist(), strict=True)
            return np.array(
                [_CODE[self.offer(s, q, r, arrival=arrival)] for s, q, r in records],
                dtype=np.uint8,
            )
        # Unique stations: no offer in the batch can change another's
        # unwrap reference or dedup slot, so the outcome is independent
        # of processing order and each step vectorizes.
        ref = self.last_seen[stations]
        ref = np.where(ref < 0, self.next_emit, ref)
        delta = np.mod(raw_seqs - ref, SEQ_MOD)
        ticks = np.where(delta < _HALF, ref + delta, ref - (SEQ_MOD - delta))
        codes = np.empty(n, dtype=np.uint8)
        late = ticks < self.next_emit
        codes[late] = _CODE[Offer.LATE]
        live = np.nonzero(~late)[0]
        for tick in np.unique(ticks[live]):
            idx = live[ticks[live] == tick]
            tick = int(tick)
            entry = self._pending.get(tick)
            if entry is None:
                if tick - self.next_emit >= self.capacity:
                    codes[idx] = _CODE[Offer.OVERFLOW]
                    continue
                entry = self._pending[tick] = _Pending(self.n_stations, arrival)
            group = stations[idx]
            dup = entry.filled[group]
            codes[idx[dup]] = _CODE[Offer.DUPLICATE]
            fresh = idx[~dup]
            accept = stations[fresh]
            entry.values[accept] = readings[fresh]
            entry.filled[accept] = True
            codes[fresh] = _CODE[Offer.ACCEPTED]
            if tick > self.high:
                self.high = tick
            self.last_seen[accept] = np.maximum(self.last_seen[accept], tick)
        tally = np.bincount(codes, minlength=len(OFFER_BY_CODE))
        for i, offer in enumerate(OFFER_BY_CODE):
            self.counts[offer] += int(tally[i])
        return codes

    # ------------------------------------------------------------------
    # churn (the wire control plane resizes the buffer alongside the
    # engine so in-flight ticks stay consistent with the fleet width)

    def add_stations(self, n_new: int) -> None:
        """Grow the fleet width; newcomers have no history.

        Pending (emitted-later) ticks gain NaN slots for the newcomers —
        they had not joined when those ticks were in flight, so their
        slots serve as missing, exactly like an engine-local
        ``add_stations`` between two ``run`` calls.
        """
        if n_new < 1:
            raise ValueError(f"n_new must be >= 1, got {n_new}")
        self.n_stations += int(n_new)
        self.last_seen = np.concatenate([self.last_seen, np.full(n_new, -1, dtype=np.int64)])
        for entry in self._pending.values():
            entry.values = np.concatenate([entry.values, np.full(n_new, np.nan)])
            entry.filled = np.concatenate([entry.filled, np.zeros(n_new, dtype=bool)])

    def drop_stations(self, stations: np.ndarray) -> None:
        """Shrink the fleet width; survivors renumber compactly.

        Same renumbering as the engine's ``drop_stations`` (survivor
        order preserved), so wire station ids keep matching engine rows.
        Pending ticks lose the dropped rows — those stations' timelines
        end at the churn point.
        """
        stations = np.unique(np.asarray(stations, dtype=np.int64))
        if stations.size == 0:
            raise ValueError("no stations to drop")
        if stations[0] < 0 or stations[-1] >= self.n_stations:
            raise ValueError(f"station to drop out of range [0, {self.n_stations})")
        if stations.size >= self.n_stations:
            raise ValueError("cannot drop every station")
        keep = np.setdiff1d(np.arange(self.n_stations, dtype=np.int64), stations)
        self.n_stations = int(keep.size)
        self.last_seen = self.last_seen[keep].copy()
        for entry in self._pending.values():
            entry.values = entry.values[keep].copy()
            entry.filled = entry.filled[keep].copy()

    # ------------------------------------------------------------------
    # emit

    @property
    def watermark(self) -> int:
        """Highest tick currently eligible for emission."""
        return self.high - self.lateness

    @property
    def pending_ticks(self) -> int:
        """Span of the buffered window (0 when fully drained)."""
        return max(0, self.high - self.next_emit + 1)

    def drain(self) -> list[tuple[int, np.ndarray, float]]:
        """Emit every tick at or below the watermark, in order.

        Returns ``(tick, values, first_arrival)`` triples; stations that
        never delivered contribute NaN.  A tick nobody mentioned at all
        (a gap in the timeline) emits as an all-NaN column with the
        arrival clock of the frame that advanced the watermark past it
        (0.0 if untracked).
        """
        return self._emit_upto(self.watermark)

    def flush(self) -> list[tuple[int, np.ndarray, float]]:
        """Emit everything buffered, watermark be damned (shutdown/EOF)."""
        return self._emit_upto(self.high)

    def _emit_upto(self, last: int) -> list[tuple[int, np.ndarray, float]]:
        out: list[tuple[int, np.ndarray, float]] = []
        while self.next_emit <= last:
            tick = self.next_emit
            entry = self._pending.pop(tick, None)
            if entry is None:
                out.append((tick, np.full(self.n_stations, np.nan), 0.0))
            else:
                out.append((tick, entry.values, entry.first_arrival))
            self.next_emit = tick + 1
        return out

    # ------------------------------------------------------------------
    # checkpoint

    def state_dict(self) -> dict[str, np.ndarray]:
        ticks = np.asarray(sorted(self._pending), dtype=np.int64)
        values = np.stack(
            [self._pending[t].values for t in ticks], axis=1
        ) if len(ticks) else np.empty((self.n_stations, 0))
        filled = np.stack(
            [self._pending[t].filled for t in ticks], axis=1
        ) if len(ticks) else np.empty((self.n_stations, 0), dtype=bool)
        arrivals = np.asarray([self._pending[t].first_arrival for t in ticks], dtype=np.float64)
        return {
            "config": np.asarray([self.n_stations, self.lateness, self.capacity], dtype=np.int64),
            "cursor": np.asarray([self.next_emit, self.high], dtype=np.int64),
            "last_seen": self.last_seen.copy(),
            "pending_ticks_idx": ticks,
            "pending_values": values,
            "pending_filled": filled,
            "pending_arrivals": arrivals,
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        config = np.asarray(state["config"], dtype=np.int64)
        if int(config[0]) != self.n_stations:
            raise ValueError(
                f"checkpointed reorder buffer has {int(config[0])} stations, "
                f"this one has {self.n_stations}"
            )
        self.lateness = int(config[1])
        self.capacity = int(config[2])
        cursor = np.asarray(state["cursor"], dtype=np.int64)
        self.next_emit = int(cursor[0])
        self.high = int(cursor[1])
        self.last_seen = np.asarray(state["last_seen"], dtype=np.int64).copy()
        self._pending = {}
        ticks = np.asarray(state["pending_ticks_idx"], dtype=np.int64)
        values = np.asarray(state["pending_values"], dtype=np.float64)
        filled = np.asarray(state["pending_filled"], dtype=bool)
        arrivals = np.asarray(state["pending_arrivals"], dtype=np.float64)
        for i, tick in enumerate(ticks):
            entry = _Pending(self.n_stations, float(arrivals[i]))
            entry.values = values[:, i].copy()
            entry.filled = filled[:, i].copy()
            self._pending[int(tick)] = entry
