"""A fixed yardstick for the host's speed, so time metrics compare across runs.

On a shared box the speed this process gets shifts by up to 2x for
seconds to minutes at a time, with no steal time reported.  Back-to-back
runs of identical code then differ more than any regression bound could
tolerate.  Each run therefore also times a frozen numpy LSTM-autoencoder
forward pass of the workload's own shape (benchmark code that never
changes with the program) and reports its time metrics scaled to a host
on which that yardstick runs at its nominal speed:

    duration_reported = duration_measured * speed
    rate_reported     = rate_measured / speed
    speed             = median(yardstick windows/s) / NOMINAL_WINDOWS_PER_S

The yardstick is sampled as close as possible to the work it scales:
before each set-up, between passes (each pass is scaled by the samples
on either side of it, :func:`bracketed`), and in ``serve_paced`` after
every tick (see ``replay.py`` and ``serving.py``).  It tracks the program's
slowdowns because both are numpy LSTM steps of the same batch shape,
while a change to the program moves only the program's side of the
ratio.  The median speed of the samples that scaled a run's traffic is
reported in its per-layer ledger as ``host.speed``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Yardstick windows per second on which reported times are based, by
#: batch rows: about what a 2-vCPU Intel Xeon (2.0 GHz, one BLAS thread)
#: measured.  Constants, never re-measured; they only set the scale of
#: the numbers.  The rows are the windows per forward pass of each
#: workload: 8000 (``replay_block``, ``serve_flood``), 500
#: (``serve_paced``), 128 (``replay_tick``).
NOMINAL_WINDOWS_PER_S = {128: 60_000.0, 500: 105_000.0, 8000: 95_000.0}


class Yardstick:
    """A numpy LSTM autoencoder (L=12, 1-8-4 | 4-4-8-1, float32) on ``rows`` windows."""

    def __init__(self, rows: int) -> None:
        rng = np.random.default_rng(0)
        dims = [(1, 8), (8, 4), (4, 4), (4, 8)]
        self._w = [(rng.standard_normal((i, 4 * u)) * 0.3).astype(np.float32) for i, u in dims]
        self._u = [(rng.standard_normal((u, 4 * u)) * 0.3).astype(np.float32) for _, u in dims]
        self._dense = rng.standard_normal((8, 1)).astype(np.float32)
        self._x = rng.random((rows, 12, 1)).astype(np.float32)
        self.rows = rows
        self.nominal = NOMINAL_WINDOWS_PER_S[rows]

    def _lstm(self, x: np.ndarray, w: np.ndarray, u: np.ndarray, sequences: bool) -> np.ndarray:
        rows, steps, _ = x.shape
        units = u.shape[0]
        z_all = x @ w
        h = np.zeros((rows, units), np.float32)
        c = np.zeros((rows, units), np.float32)
        out = np.empty((rows, steps, units), np.float32)
        for t in range(steps):
            z = z_all[:, t] + h @ u
            gates = 1.0 / (1.0 + np.exp(-z[:, : 3 * units]))
            c = gates[:, units : 2 * units] * c + gates[:, :units] * np.tanh(z[:, 3 * units :])
            h = gates[:, 2 * units :] * np.tanh(c)
            out[:, t] = h
        return out if sequences else h

    def forward(self) -> np.ndarray:
        h = self._lstm(self._x, self._w[0], self._u[0], True)
        code = self._lstm(h, self._w[1], self._u[1], False)
        repeated = np.repeat(code[:, None, :], self._x.shape[1], axis=1)
        h = self._lstm(repeated, self._w[2], self._u[2], True)
        h = self._lstm(h, self._w[3], self._u[3], True)
        return h @ self._dense

    def sample(self, seconds: float) -> float:
        """Time forward passes for about ``seconds`` (at least one); returns the host speed.

        The speed is the median of their windows per second over the
        nominal: 1.0 on a nominal host, lower on a slower one.
        """
        rates = []
        until = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            self.forward()
            now = time.perf_counter()
            rates.append(self.rows / (now - start))
            if now >= until:
                return statistics.median(rates) / self.nominal


def bracketed(samples) -> np.ndarray:
    """Host speed of each pass from the samples taken around it.

    ``samples[k]`` is taken just before pass ``k`` and ``samples[k + 1]``
    just after it.  A pass gets their geometric mean, so a change of host
    speed inside a pass is met half-way rather than missed or taken whole.
    """
    speeds = np.asarray(samples, dtype=np.float64)
    return np.sqrt(speeds[:-1] * speeds[1:])
