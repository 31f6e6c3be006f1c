"""Fixed-size per-station history buffers for online inference.

The batch pipeline re-windows the full series on every call; the
streaming engine instead keeps, for every station, exactly the last
``length`` readings — the autoencoder's context window — in a single
``(n_stations, 2·length)`` array.  Each push writes a value twice
(at the ring position and mirrored ``length`` columns later), so the
most-recent window of *any* station is always one contiguous slice of
the doubled row.  Per tick this is O(n_stations) writes and zero
reallocation: bounded state, no matter how long the stream runs.

Block mode (:meth:`RingBufferBank.push_block`) ingests ``B`` consecutive
readings per station in one shot; combined with :meth:`recent` a caller
can assemble every window a block completes as a strided view over
``history-tail ‖ block`` with no per-tick Python at all (see
:meth:`~repro.stream.detector.StreamingDetector.process_block`).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.markers import hot_path
from repro.stream._state import StateDict, check_keys, take
from repro.stream._ticks import as_column, check_block, check_drop, check_tick


class RingBufferBank:
    """Ring buffers for a fleet of stations, vectorized as one array.

    Parameters
    ----------
    n_stations:
        Number of independent series tracked.
    length:
        Window length kept per station (the detector's
        ``sequence_length``).

    Stations may tick independently: :meth:`push` accepts an optional
    index array, and :attr:`ready` reports which stations have
    accumulated a full window yet.
    """

    def __init__(self, n_stations: int, length: int) -> None:
        if n_stations < 1:
            raise ValueError(f"n_stations must be >= 1, got {n_stations}")
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        self.n_stations = int(n_stations)
        self.length = int(length)
        # Doubled storage: value at ring slot i is mirrored at i + length,
        # making every wrap-around window a contiguous slice.
        self._data = np.zeros((self.n_stations, 2 * self.length), dtype=np.float64)
        self._write = np.zeros(self.n_stations, dtype=np.int64)
        self.counts = np.zeros(self.n_stations, dtype=np.int64)

    @property
    def ready(self) -> np.ndarray:
        """Boolean mask of stations holding a full window."""
        return self.counts >= self.length

    def push(self, values: np.ndarray, stations: np.ndarray | None = None) -> None:
        """Append one reading per station (all stations, or ``stations``).

        ``values`` must be 1-D with one entry per addressed station, in
        the same order as ``stations`` (or station order when omitted).
        """
        values, stations = check_tick(values, stations, self.n_stations)
        self.push_checked(values, stations)

    def push_checked(self, values: np.ndarray, stations: np.ndarray) -> None:
        """:meth:`push` for pre-validated arrays: a one-column block push."""
        self.push_block_checked(values[:, None], stations)

    def push_block(self, values: np.ndarray, stations: np.ndarray | None = None) -> None:
        """Append ``B`` consecutive readings per station in one call.

        ``values`` is ``(k, B)``, oldest column first — exactly ``B``
        sequential :meth:`push` calls collapsed into one vectorized
        scatter (each value still mirrored into the doubled half).
        """
        values, stations = check_block(values, stations, self.n_stations)
        self.push_block_checked(values, stations)

    @hot_path
    def push_block_checked(self, values: np.ndarray, stations: np.ndarray) -> None:
        """:meth:`push_block` for pre-validated arrays."""
        block = values.shape[1]
        # A block longer than the ring overwrites its own head; write only
        # the surviving tail so every target slot is scattered exactly once.
        effective = min(block, self.length)
        skip = block - effective
        write = self._write[stations]
        columns = ((write + skip)[:, None] + np.arange(effective)) % self.length
        slots = self._flat(stations, columns)
        self._data.put(slots, values[:, skip:])
        self._data.put(slots + self.length, values[:, skip:])
        self._write[stations] = (write + block) % self.length
        self.counts[stations] += block

    def _flat(self, stations: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Flat ``_data`` indices of per-station ``(k, m)`` ``columns``: one
        1-D gather/scatter is much cheaper than a 2-D fancy index."""
        return (stations * (2 * self.length))[:, None] + columns

    @hot_path
    def windows(self, stations: np.ndarray | None = None) -> np.ndarray:
        """Last ``length`` readings per station, oldest first, ``(k, L)``.

        Every addressed station must be :attr:`ready`.
        """
        if stations is None:
            stations = np.arange(self.n_stations)
        else:
            stations = np.asarray(stations, dtype=np.int64)
        if not np.all(self.counts[stations] >= self.length):
            raise ValueError("windows() requires a full buffer for every station")
        # After a push at slot w the write pointer is w+1, so the window
        # oldest→newest occupies doubled columns [write, write + length).
        columns = self._write[stations, None] + np.arange(self.length)[None, :]
        return self._data[stations[:, None], columns]

    def recent(self, m: int, stations: np.ndarray | None = None) -> np.ndarray:
        """Last ``m <= length`` buffered readings per station, ``(k, m)``.

        Unlike :meth:`windows` this never raises on a warming-up station:
        slots that were never written read as 0.0 and the caller masks
        them out via :attr:`counts`.  This is the history tail that block
        scoring prepends to an incoming block so every window the block
        completes is a contiguous slice of one ``(k, m + B)`` array.
        """
        if not 0 <= m <= self.length:
            raise ValueError(f"recent() needs 0 <= m <= {self.length}, got {m}")
        if stations is None:
            stations = np.arange(self.n_stations)
        else:
            stations = np.asarray(stations, dtype=np.int64)
        if m == 0:
            return np.empty((len(stations), 0), dtype=np.float64)
        # The last `length` readings sit in doubled columns
        # [write, write + length); the last m are the tail of that slice.
        columns = (self._write[stations] + (self.length - m))[:, None] + np.arange(m)
        return self._data.take(self._flat(stations, columns))

    def amend_last(self, values: np.ndarray, stations: np.ndarray | None = None) -> None:
        """Overwrite the most recent reading: :meth:`amend_block` with ``B = 1``."""
        self.amend_block(as_column(values), stations)

    def amend_block(self, values: np.ndarray, stations: np.ndarray | None = None) -> None:
        """Overwrite the most recent ``B`` readings per addressed station.

        After a block of ``B`` pushes, rewrite those same ``B`` slots
        (columns past ``length`` history are silently clipped to the
        ``length`` the ring still remembers).
        """
        values, stations = check_block(values, stations, self.n_stations)
        self.amend_block_checked(values, stations)

    @hot_path
    def amend_block_checked(
        self,
        values: np.ndarray,
        stations: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> None:
        """:meth:`amend_block` for pre-validated arrays.

        ``mask`` (same shape as ``values``, optional) restricts the
        rewrite to selected entries, so unselected readings keep their
        originally-buffered values.
        """
        block = values.shape[1]
        if not np.all(self.counts[stations] >= min(block, self.length)):
            raise ValueError(
                "amending requires a prior push: every amended reading must have been pushed"
            )
        if block > self.length:
            # Only the newest `length` readings still exist in the ring.
            values = values[:, block - self.length :]
            if mask is not None:
                mask = mask[:, block - self.length :]
            block = self.length
        columns = (
            self._write[stations, None] - block + np.arange(block)[None, :]
        ) % self.length
        if mask is None:
            self._data[stations[:, None], columns] = values
            self._data[stations[:, None], columns + self.length] = values
        else:
            rows, cols = np.nonzero(mask)
            targets = columns[rows, cols]
            self._data[stations[rows], targets] = values[rows, cols]
            self._data[stations[rows], targets + self.length] = values[rows, cols]

    def last(self, stations: np.ndarray | None = None) -> np.ndarray:
        """Most recent reading per addressed station (0.0 before any push)."""
        if stations is None:
            stations = np.arange(self.n_stations)
        else:
            stations = np.asarray(stations, dtype=np.int64)
        newest = (self._write[stations] - 1) % self.length
        return self._data[stations, newest]

    # ------------------------------------------------------------------
    # operations: serialization and elastic fleets
    # ------------------------------------------------------------------
    #: state_dict entry names — parents embedding this bank build their
    #: expected-key sets from this instead of calling state_dict().
    STATE_KEYS = ("data", "write", "counts")

    def state_dict(self) -> StateDict:
        """Runtime state as a flat dict of arrays (bit-exact resume)."""
        return {
            "data": self._data.copy(),
            "write": self._write.copy(),
            "counts": self.counts.copy(),
        }

    def load_state_dict(self, state: StateDict) -> None:
        """Restore state captured by :meth:`state_dict` (strictly validated)."""
        owner = type(self).__name__
        check_keys(state, set(self.STATE_KEYS), owner)
        data = take(state, "data", owner, (self.n_stations, 2 * self.length), np.float64)
        write = take(state, "write", owner, (self.n_stations,), np.int64)
        counts = take(state, "counts", owner, (self.n_stations,), np.int64)
        self._data = data
        self._write = write
        self.counts = counts

    def add_stations(self, n_new: int) -> None:
        """Grow the fleet by ``n_new`` empty (warming-up) buffers."""
        if n_new < 1:
            raise ValueError(f"n_new must be >= 1, got {n_new}")
        self.n_stations += int(n_new)
        self._data = np.concatenate(
            [self._data, np.zeros((n_new, 2 * self.length), dtype=np.float64)]
        )
        self._write = np.concatenate([self._write, np.zeros(n_new, dtype=np.int64)])
        self.counts = np.concatenate([self.counts, np.zeros(n_new, dtype=np.int64)])

    def drop_stations(self, stations: np.ndarray) -> None:
        """Remove stations; survivors keep their buffers, renumbered compactly."""
        stations = check_drop(stations, self.n_stations)
        self._data = np.delete(self._data, stations, axis=0)
        self._write = np.delete(self._write, stations)
        self.counts = np.delete(self.counts, stations)
        self.n_stations -= len(stations)

    def __repr__(self) -> str:
        return (
            f"RingBufferBank(n_stations={self.n_stations}, length={self.length}, "
            f"ready={int(self.ready.sum())})"
        )
