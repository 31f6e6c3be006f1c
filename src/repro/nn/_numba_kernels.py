"""JIT-compiled fused kernels for the ``"numba"`` compute backend.

Importing this module requires the optional ``numba`` package; the
backend registry's numba factory is the only importer, so a numpy-only
install never touches it.

Design notes:

* Matmuls are NOT jitted — BLAS through numpy already saturates them.
  These kernels fuse the elementwise chains *around* the matmuls, which
  is exactly the part a sequence of numpy ufuncs cannot fuse: one memory
  pass instead of ~10 dispatch+write cycles per LSTM step.
* Every kernel comes in a serial and a ``prange``-parallel variant; the
  backend picks by batch size (fork/join overhead swamps small batches).
* The LSTM kernel reads the layer's gate-major arrays — ``z``/``hz`` are
  ``(4U, batch)``, the state ``(U, batch)`` — as ``z[j, b]``; ``prange``
  still splits the batch, so each thread owns whole columns.
* ``cache=True`` persists compiled machine code on disk, so only the
  first-ever process pays the JIT cost for a given dtype signature.
* ``fastmath=False`` everywhere: kernels must track the numpy reference
  semantics (NaN propagation, no reassociation), with float differences
  bounded by rounding, not by value-unsafe transforms.
* The scalar sigmoid mirrors the stabilised branchy form of
  :func:`repro.nn.activations.sigmoid` so large |x| cannot overflow.
* Kernels compile lazily per dtype: the float32 and float64 policies
  each get their own specialisation at first call.
"""

from __future__ import annotations

import math

import numpy as np
from numba import njit, prange

__all__ = [
    "lstm_gates_serial",
    "lstm_gates_parallel",
    "bias_act_serial",
    "bias_act_parallel",
    "act_serial",
    "act_parallel",
    "window_mse_serial",
    "window_mse_parallel",
    "pointwise_mse_serial",
    "pointwise_mse_parallel",
]


@njit(cache=True, fastmath=False, inline="always")
def _sigmoid(x):
    # Stabilised logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) otherwise.
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@njit(cache=True, fastmath=False, inline="always")
def _lstm_gates_row(z, hz, c_prev, c_out, h_out, tanh_c_out, b, units):
    # Gate-major (4U, batch) arrays, packed gate order (i, f, o, g):
    # three sigmoid row blocks, then tanh; column b is one batch row.
    for j in range(units):
        gi = _sigmoid(z[j, b] + hz[j, b])
        gf = _sigmoid(z[units + j, b] + hz[units + j, b])
        go = _sigmoid(z[2 * units + j, b] + hz[2 * units + j, b])
        gg = math.tanh(z[3 * units + j, b] + hz[3 * units + j, b])
        cc = gf * c_prev[j, b] + gi * gg
        tc = math.tanh(cc)
        # Activated gates overwrite the pre-activations: the numpy BPTT
        # backward consumes them from the training cache unchanged.
        z[j, b] = gi
        z[units + j, b] = gf
        z[2 * units + j, b] = go
        z[3 * units + j, b] = gg
        c_out[j, b] = cc
        tanh_c_out[j, b] = tc
        h_out[j, b] = go * tc


@njit(cache=True, fastmath=False)
def lstm_gates_serial(z, hz, c_prev, c_out, h_out, tanh_c_out):
    units = z.shape[0] // 4
    batch = z.shape[1]
    for b in range(batch):
        _lstm_gates_row(z, hz, c_prev, c_out, h_out, tanh_c_out, b, units)


@njit(cache=True, fastmath=False, parallel=True)
def lstm_gates_parallel(z, hz, c_prev, c_out, h_out, tanh_c_out):
    units = z.shape[0] // 4
    batch = z.shape[1]
    for b in prange(batch):
        _lstm_gates_row(z, hz, c_prev, c_out, h_out, tanh_c_out, b, units)


@njit(cache=True, fastmath=False, inline="always")
def _apply_act(x, code):
    # Codes: 0 linear, 1 relu, 2 sigmoid, 3 tanh (see NumbaBackend).
    if code == 1:
        return max(x, 0.0)
    if code == 2:
        return _sigmoid(x)
    if code == 3:
        return math.tanh(x)
    return x


@njit(cache=True, fastmath=False)
def bias_act_serial(out, bias, code):
    rows, cols = out.shape
    for r in range(rows):
        for c in range(cols):
            out[r, c] = _apply_act(out[r, c] + bias[c], code)


@njit(cache=True, fastmath=False, parallel=True)
def bias_act_parallel(out, bias, code):
    rows, cols = out.shape
    for r in prange(rows):
        for c in range(cols):
            out[r, c] = _apply_act(out[r, c] + bias[c], code)


@njit(cache=True, fastmath=False)
def act_serial(out, code):
    rows, cols = out.shape
    for r in range(rows):
        for c in range(cols):
            out[r, c] = _apply_act(out[r, c], code)


@njit(cache=True, fastmath=False, parallel=True)
def act_parallel(out, code):
    rows, cols = out.shape
    for r in prange(rows):
        for c in range(cols):
            out[r, c] = _apply_act(out[r, c], code)


@njit(cache=True, fastmath=False, inline="always")
def _window_sse(windows, reconstructed, i):
    timesteps, features = windows.shape[1], windows.shape[2]
    acc = 0.0
    for t in range(timesteps):
        for f in range(features):
            d = np.float64(windows[i, t, f]) - np.float64(reconstructed[i, t, f])
            acc += d * d
    return acc


@njit(cache=True, fastmath=False)
def window_mse_serial(windows, reconstructed, out):
    denom = windows.shape[1] * windows.shape[2]
    for i in range(windows.shape[0]):
        out[i] = _window_sse(windows, reconstructed, i) / denom


@njit(cache=True, fastmath=False, parallel=True)
def window_mse_parallel(windows, reconstructed, out):
    denom = windows.shape[1] * windows.shape[2]
    for i in prange(windows.shape[0]):
        out[i] = _window_sse(windows, reconstructed, i) / denom


@njit(cache=True, fastmath=False, inline="always")
def _pointwise_row(windows, reconstructed, out, i):
    timesteps, features = windows.shape[1], windows.shape[2]
    for t in range(timesteps):
        acc = 0.0
        for f in range(features):
            d = np.float64(windows[i, t, f]) - np.float64(reconstructed[i, t, f])
            acc += d * d
        out[i, t] = acc / features


@njit(cache=True, fastmath=False)
def pointwise_mse_serial(windows, reconstructed, out):
    for i in range(windows.shape[0]):
        _pointwise_row(windows, reconstructed, out, i)


@njit(cache=True, fastmath=False, parallel=True)
def pointwise_mse_parallel(windows, reconstructed, out):
    for i in prange(windows.shape[0]):
        _pointwise_row(windows, reconstructed, out, i)
