"""Which optional legs a standalone benchmark run actually exercised.

``bench_engine.py`` and ``bench_streaming.py`` write this record into
their results JSON as ``legs``, so a committed number says what it
measured: the compute backends that ran, the numba version (``None``
when numba is not installed, so its leg did not run), the BLAS library
numpy is linked against with the ``OPENBLAS_CORETYPE`` kernel-family
override if one is set, and the core count.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from importlib import metadata

import numpy as np


def legs(backends: Iterable[str]) -> dict:
    """The ``legs`` record for a run that executed ``backends``."""
    try:
        numba_version = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "backends": sorted(set(backends)),
        "numba": numba_version,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        },
        "cpu_count": os.cpu_count(),
    }
