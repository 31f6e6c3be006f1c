"""Shared per-tick/per-block input validation for the streaming state banks.

Every streaming state bank (:class:`~repro.stream.buffers.RingBufferBank`,
:class:`~repro.stream.scaler.StreamingMinMaxScaler`) accepts one reading
per addressed station per tick — or a ``(k, B)`` block of ``B`` consecutive
readings — and this module normalises and validates those inputs in one
place.  Duplicate station indices are rejected outright — numpy
fancy-index assignment would silently keep only the last reading per
slot, and a dropped reading must be an error, not a quiet data loss.

Validation happens ONCE per tick/block at the detector boundary; the
banks' public methods validate for standalone use, but expose
``*_checked`` fast paths so a pipeline never pays for the same check
twice (scaler transform, buffer push) on one input.
"""

from __future__ import annotations

import numpy as np


def _check_stations(stations: np.ndarray, n_values: int, n_stations: int) -> np.ndarray:
    stations = np.asarray(stations, dtype=np.int64)
    if stations.ndim != 1 or len(stations) != n_values:
        raise ValueError("stations must be 1-D and match values in length")
    if stations.size:
        low, high = stations.min(), stations.max()
        if low < 0 or high >= n_stations:
            raise ValueError(
                f"station indices must be in [0, {n_stations}), "
                f"got range [{low}, {high}]"
            )
        # Duplicate test: O(k) via bincount when the addressed index range
        # is dense (the common full-fleet / contiguous-subset case — the
        # previous `len(np.unique(...))` sorted + allocated per tick);
        # fall back to unique for a sparse handful of a huge fleet, where
        # a range-sized counter array would dwarf k.
        if stations.size > 1:
            if high - low < 4 * stations.size:
                duplicated = np.bincount(stations - low).max() > 1
            else:
                duplicated = len(np.unique(stations)) != len(stations)
            if duplicated:
                raise ValueError(
                    "stations must not contain duplicate indices; fancy-index "
                    "updates would silently drop all but one reading per station"
                )
    return stations


def check_drop(stations: np.ndarray, n_stations: int) -> np.ndarray:
    """Validate a ``drop_stations`` index list (shared by every bank).

    Indices must be valid, duplicate-free, and leave at least one
    survivor.
    """
    stations = np.asarray(stations, dtype=np.int64).ravel()
    stations = _check_stations(stations, len(stations), n_stations)
    if len(stations) >= n_stations:
        raise ValueError("cannot drop every station")
    return stations


def check_tick(
    values: np.ndarray, stations: np.ndarray | None, n_stations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate one tick of per-station values; returns float/index arrays."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {values.shape}")
    if stations is None:
        if len(values) != n_stations:
            raise ValueError(f"expected {n_stations} values, got {len(values)}")
        return values, np.arange(n_stations)
    return values, _check_stations(stations, len(values), n_stations)


def as_column(values: np.ndarray) -> np.ndarray:
    """One tick of per-station values as the ``(k, 1)`` block it is.

    The per-tick entry points are views of their block counterparts;
    this is the one place a tick is checked for shape and widened.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {values.shape}")
    return values[:, None]


def check_block(
    values: np.ndarray, stations: np.ndarray | None, n_stations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a ``(k, B)`` block of per-station readings.

    Each row is one station's next ``B`` consecutive readings (oldest
    first).  Returns ``(values, stations)`` with ``values`` float64 and
    ``stations`` an index array covering every row.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"block values must be 2-D (k, B), got shape {values.shape}")
    if values.shape[1] < 1:
        raise ValueError("block must contain at least one tick of readings")
    if stations is None:
        if values.shape[0] != n_stations:
            raise ValueError(
                f"expected {n_stations} block rows, got {values.shape[0]}"
            )
        return values, np.arange(n_stations)
    return values, _check_stations(stations, values.shape[0], n_stations)
