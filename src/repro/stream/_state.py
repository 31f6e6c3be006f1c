"""Shared state-dict plumbing for the streaming components.

Every streaming component exposes ``state_dict()`` /
``load_state_dict()`` returning / accepting a flat
``dict[str, np.ndarray]`` — the exact runtime state needed for
bit-exact resume, nothing derivable from constructor arguments.
Composite components (the detector owning a scaler, the seasonal
mitigator owning a ring buffer) nest their children's dicts under a
dotted prefix, which keeps the whole pipeline's state one flat mapping
that drops straight into one ``np.savez`` member archive
(:mod:`repro.stream.checkpoint`).

The helpers here are deliberately strict: a missing key, a stray key,
or a shape mismatch raises with the owning component named, because a
silently half-loaded state bank is a correctness bug that only shows up
as wrong flags thousands of ticks later.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

StateDict = dict[str, np.ndarray]


def nest(prefix: str, state: Mapping[str, np.ndarray]) -> StateDict:
    """Prefix a child component's state for inclusion in the parent's."""
    return {f"{prefix}.{key}": value for key, value in state.items()}


def unnest(state: Mapping[str, np.ndarray], prefix: str) -> StateDict:
    """Extract (and strip the prefix from) one child's entries."""
    lead = f"{prefix}."
    return {key[len(lead):]: value for key, value in state.items() if key.startswith(lead)}


def take(
    state: Mapping[str, np.ndarray],
    key: str,
    owner: str,
    shape: tuple[int, ...] | None = None,
    dtype: np.dtype | type | None = None,
) -> np.ndarray:
    """Fetch one validated entry as an independent array copy."""
    if key not in state:
        raise KeyError(f"{owner} state is missing entry {key!r}")
    value = np.array(state[key], dtype=dtype)
    if shape is not None and value.shape != shape:
        raise ValueError(
            f"{owner} state entry {key!r} has shape {value.shape}, expected {shape}"
        )
    return value


def check_keys(state: Mapping[str, np.ndarray], expected: set[str], owner: str) -> None:
    """Reject unknown top-level entries (typo'd or mismatched checkpoints)."""
    extra = set(state) - expected
    if extra:
        raise ValueError(
            f"{owner} state has unexpected entries {sorted(extra)}; expected "
            f"a subset of {sorted(expected)}"
        )


def scalar(value: float | int | bool) -> np.ndarray:
    """Wrap a python scalar as a 0-d array for uniform npz storage."""
    return np.asarray(value)
