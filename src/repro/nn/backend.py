"""Pluggable compute backends for the forward/inference hot paths.

The streaming pipeline is forward-pass-bound: at fleet scale ~97% of
tick time is the autoencoder forward, sitting at the pure-NumPy
elementwise floor (one ufunc dispatch per gate op).  This module puts
the three fused kernels that dominate that cost behind a small registry
so a compiled implementation can replace them without touching layer
code:

* ``lstm_step`` — one LSTM timestep: packed-gate recurrent matmul,
  fused sigmoid/tanh gate activations, and the cell/hidden state update,
  all on gate-major ``(4 * units, batch)`` / ``(units, batch)`` arrays
  so each gate is a contiguous row block.
* ``dense_forward`` — dense projection with the bias add and activation
  fused into the output buffer.
* ``window_errors`` / ``pointwise_errors`` — reconstruction-error
  reductions over window batches.

Two implementations ship:

* ``"numpy"`` — the reference backend: the same ufunc sequence as the
  row-major formulation it came from, bit-identical to it wherever BLAS
  returns the same bits for a product and its transposed view (see
  :mod:`repro.nn.layers.lstm`); always available and the fallback
  whenever an accelerator is absent.
* ``"numba"`` — optional.  JIT-compiled kernels (``@njit(cache=True,
  fastmath=False)``) fuse the per-timestep elementwise chain that numpy
  ufuncs cannot, parallelised over the batch dimension for block-mode
  inference.  Requires the ``numba`` package; kernels specialise on the
  float32/float64 dtype at first call.  Results match numpy within a
  small float tolerance (float64 is typically bit-identical on a given
  libm; float32 differs in the last ulps because the scalar transcendental
  chain rounds once instead of per ufunc).

Selection order (first match wins):

1. explicit argument — ``Sequential(..., backend="numba")``,
   ``model.set_backend(...)``, or a per-layer ``layer.backend``;
2. process-wide default — :func:`set_default_backend`;
3. the ``REPRO_BACKEND`` environment variable;
4. ``"numpy"``.

A *known but unavailable* backend (e.g. ``REPRO_BACKEND=numba`` without
numba installed) warns and falls back to numpy so a numpy-only install
keeps working; an *unknown* name raises with the registered list.

Backends are runtime configuration, never model state: checkpoints and
serialized configs stay backend-agnostic.  Backends accelerate the
*forward direction* — inference AND the training-time forward pass —
while the backward/BPTT direction always runs the numpy path, consuming
the activated-gate caches the forward kernel wrote.  Gradients therefore
stay exact for whichever forward actually ran; gradient *checking*
(float64 finite differences) is still performed against the default
numpy backend, where forward numerics are the reference ones.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from repro import obs
from repro.nn.activations import Activation, sigmoid, sigmoid_inplace

#: Environment variable consulted when no explicit backend is requested.
ENV_VAR = "REPRO_BACKEND"


class BackendUnavailableError(ImportError):
    """A registered backend's optional dependency is not installed."""


class Backend:
    """Fused forward-kernel interface every compute backend implements.

    Kernels write into caller-provided workspace buffers so the layer
    hot loops stay allocation-free regardless of the implementation.
    """

    name = "abstract"

    def lstm_step(
        self,
        z: np.ndarray,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
        c_out: np.ndarray,
        h_out: np.ndarray,
        tanh_c_out: np.ndarray,
        recurrent: np.ndarray,
        ws: dict[str, np.ndarray],
    ) -> None:
        """One fused LSTM timestep in the packed ``(i, f, o, g)`` order.

        Every array is gate-major, batch on the last axis: ``z`` is
        ``(4 * units, batch)`` holding ``x_t @ W + b``, so each gate is
        one row block (``z[:units]`` is ``i``, ``z[3 * units:]`` is
        ``g``); ``h_prev``, ``c_prev``, ``c_out``, ``h_out`` and
        ``tanh_c_out`` are ``(units, batch)``.  The step adds the
        recurrent term ``matmul(h_prev.T, recurrent, out=hz.T)``
        (``recurrent`` is ``(units, 4 * units)``), applies the gate
        activations (written back into ``z`` for the BPTT cache), and
        updates the cell/hidden state into ``c_out`` / ``h_out`` /
        ``tanh_c_out``.  ``c_out`` and ``h_out`` may alias ``c_prev`` /
        ``h_prev`` (the inference path updates state in place); any of
        them may be a strided view (the training forward passes
        ``z[:, t]`` of a ``(4U, T, B)`` cache and ``h_out`` as the
        transposed view of a row-major ``(B, U)`` row).  ``ws`` supplies
        the per-shape scratch: ``hz`` ``(4 * units, batch)``, the
        recurrent product, and ``tmp_u`` ``(units, batch)``.  ``hz`` is
        dead once added into ``z``, so a kernel may overwrite it as
        activation scratch (the numpy kernel's sigmoid does).
        """
        raise NotImplementedError

    def dense_forward(
        self,
        inputs: np.ndarray,
        kernel: np.ndarray,
        bias: np.ndarray | None,
        activation: Activation,
    ) -> np.ndarray:
        """Fused ``activation(inputs @ kernel + bias)`` for inference."""
        raise NotImplementedError

    def window_errors(self, windows: np.ndarray, reconstructed: np.ndarray) -> np.ndarray:
        """Per-window reconstruction MSE, shape ``(n_windows,)``."""
        raise NotImplementedError

    def pointwise_errors(self, windows: np.ndarray, reconstructed: np.ndarray) -> np.ndarray:
        """Per-window per-step squared error (features averaged), ``(n, T)``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyBackend(Backend):
    """Reference backend: plain numpy ufuncs and BLAS matmuls.

    Every kernel performs the operations the layers ran before backends
    existed, in the same order; ``lstm_step`` runs them on gate-major
    arrays (``tests/nn/test_lstm_layout.py`` holds the row-major form
    as its oracle).
    """

    name = "numpy"

    def lstm_step(self, z, h_prev, c_prev, c_out, h_out, tanh_c_out, recurrent, ws):
        units = h_out.shape[0]
        hz = ws["hz"]
        # Transposed view of the row-major (batch, units) @ (units, 4U).
        np.matmul(h_prev.T, recurrent, out=hz.T)
        z += hz
        # One fused sigmoid over the contiguous (i, f, o) rows, one tanh
        # over g — z now holds the activated gates.  hz is dead, so its
        # first 3U rows are the sigmoid's scratch.
        sigmoid_inplace(z[: 3 * units], hz[: 3 * units])
        g = z[3 * units :]
        np.tanh(g, out=g)

        i = z[:units]
        f = z[units : 2 * units]
        o = z[2 * units : 3 * units]
        tmp = ws["tmp_u"]
        np.multiply(f, c_prev, out=c_out)
        np.multiply(i, g, out=tmp)
        c_out += tmp
        np.tanh(c_out, out=tanh_c_out)
        np.multiply(o, tanh_c_out, out=h_out)

    def dense_forward(self, inputs, kernel, bias, activation):
        out = inputs @ kernel
        if bias is not None:
            out += bias
        name = activation.name
        if name in ("linear", "identity"):
            return out
        if name == "relu":
            np.maximum(out, 0.0, out=out)
            return out
        if name == "tanh":
            np.tanh(out, out=out)
            return out
        if name == "sigmoid":
            return sigmoid(out)
        return activation.forward(out)

    def window_errors(self, windows, reconstructed):
        return np.mean((windows - reconstructed) ** 2, axis=(1, 2))

    def pointwise_errors(self, windows, reconstructed):
        return np.mean((windows - reconstructed) ** 2, axis=2)


class NumbaBackend(NumpyBackend):
    """JIT backend: fused elementwise chains compiled with numba.

    Matmuls stay on BLAS; the elementwise chains around them (gate
    activations + state update, bias + activation, squared-error
    reductions) collapse into single compiled passes, parallelised over
    the batch dimension above :attr:`PARALLEL_MIN_ROWS` rows.  Shapes or
    activations the kernels do not cover fall back to the inherited
    numpy implementations.
    """

    name = "numba"

    #: Below this many batch rows the serial kernels win: the parallel
    #: region's fork/join overhead is comparable to the whole step.
    PARALLEL_MIN_ROWS = 128

    #: Activation codes understood by the fused dense kernels.
    _ACT_CODES = {"linear": 0, "identity": 0, "relu": 1, "sigmoid": 2, "tanh": 3}

    def __init__(self, kernels) -> None:
        self._kernels = kernels

    def lstm_step(self, z, h_prev, c_prev, c_out, h_out, tanh_c_out, recurrent, ws):
        hz = ws["hz"]
        np.matmul(h_prev.T, recurrent, out=hz.T)
        if z.shape[1] >= self.PARALLEL_MIN_ROWS:
            self._kernels.lstm_gates_parallel(z, hz, c_prev, c_out, h_out, tanh_c_out)
        else:
            self._kernels.lstm_gates_serial(z, hz, c_prev, c_out, h_out, tanh_c_out)

    def dense_forward(self, inputs, kernel, bias, activation):
        code = self._ACT_CODES.get(activation.name)
        if code is None:
            return super().dense_forward(inputs, kernel, bias, activation)
        out = inputs @ kernel
        flat = out.reshape(-1, out.shape[-1])
        parallel = flat.shape[0] >= self.PARALLEL_MIN_ROWS
        if bias is not None:
            if parallel:
                self._kernels.bias_act_parallel(flat, bias, code)
            else:
                self._kernels.bias_act_serial(flat, bias, code)
        elif code != 0:
            if parallel:
                self._kernels.act_parallel(flat, code)
            else:
                self._kernels.act_serial(flat, code)
        return out

    _FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

    def _mse_operands(self, windows, reconstructed):
        """Prepare operands for the fused reductions, or ``None`` to fall back.

        The streaming hot path scores float64 buffer windows against
        float32 reconstructions; the fused kernels need matching dtypes,
        so float windows are aligned to the reconstruction (= model
        compute) dtype — a numba-only rounding difference covered by the
        documented backend tolerance.  Non-float inputs or mismatched
        shapes fall back to the inherited numpy expression.
        """
        windows = np.asarray(windows)
        reconstructed = np.asarray(reconstructed)
        if (
            windows.ndim != 3
            or windows.shape != reconstructed.shape
            or windows.dtype not in self._FLOAT_DTYPES
            or reconstructed.dtype not in self._FLOAT_DTYPES
        ):
            return None
        windows = np.ascontiguousarray(windows, dtype=reconstructed.dtype)
        reconstructed = np.ascontiguousarray(reconstructed)
        return windows, reconstructed

    def window_errors(self, windows, reconstructed):
        operands = self._mse_operands(windows, reconstructed)
        if operands is None:
            return super().window_errors(windows, reconstructed)
        windows, reconstructed = operands
        out = np.empty(windows.shape[0], dtype=windows.dtype)
        if windows.shape[0] >= self.PARALLEL_MIN_ROWS:
            self._kernels.window_mse_parallel(windows, reconstructed, out)
        else:
            self._kernels.window_mse_serial(windows, reconstructed, out)
        return out

    def pointwise_errors(self, windows, reconstructed):
        operands = self._mse_operands(windows, reconstructed)
        if operands is None:
            return super().pointwise_errors(windows, reconstructed)
        windows, reconstructed = operands
        out = np.empty(windows.shape[:2], dtype=windows.dtype)
        if windows.shape[0] >= self.PARALLEL_MIN_ROWS:
            self._kernels.pointwise_mse_parallel(windows, reconstructed, out)
        else:
            self._kernels.pointwise_mse_serial(windows, reconstructed, out)
        return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_FACTORIES: dict[str, object] = {}
_INSTANCES: dict[str, Backend] = {}
#: Names whose factory already raised BackendUnavailableError, mapped to
#: the error message.  Availability cannot change inside one process
#: (installing a package does not retroactively appear), so a failed
#: optional import is remembered instead of re-attempted — the
#: warn-and-fall-back path must stay cheap enough for per-call hot-loop
#: resolution.
_UNAVAILABLE: dict[str, str] = {}
_DEFAULT: str | None = None


def register_backend(name: str, factory) -> None:
    """Register ``factory`` (a zero-arg callable returning a Backend).

    The factory runs lazily on first :func:`get_backend` and may raise
    :class:`BackendUnavailableError` when an optional dependency is
    missing; the name still shows up in :func:`list_backends` so error
    messages can advertise it.
    """
    _FACTORIES[str(name)] = factory
    _INSTANCES.pop(str(name), None)
    _UNAVAILABLE.pop(str(name), None)


def list_backends() -> list[str]:
    """All registered backend names (available or not)."""
    return sorted(_FACTORIES)


def available_backends() -> list[str]:
    """Registered backends whose dependencies import on this machine."""
    names = []
    for name in list_backends():
        try:
            get_backend(name)
        except BackendUnavailableError:
            continue
        names.append(name)
    return names


def get_backend(name: str | Backend) -> Backend:
    """Resolve a backend by exact name (strict: no fallback).

    Raises ``ValueError`` for an unknown name (listing the registered
    ones) and :class:`BackendUnavailableError` when the backend is
    registered but its optional dependency is missing.
    """
    if isinstance(name, Backend):
        return name
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(list_backends())
        raise ValueError(f"unknown backend {name!r}; available: {known}") from None
    if name in _UNAVAILABLE:
        raise BackendUnavailableError(_UNAVAILABLE[name])
    instance = _INSTANCES.get(name)
    if instance is None:
        try:
            instance = factory()
        except BackendUnavailableError as error:
            _UNAVAILABLE[name] = str(error)
            raise
        _INSTANCES[name] = instance
    return instance


def set_default_backend(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide default backend.

    Validates eagerly: an unknown name raises ``ValueError``, a known
    but unavailable one raises :class:`BackendUnavailableError` — an
    explicit programmatic opt-in should fail loudly, unlike the ambient
    ``REPRO_BACKEND`` environment override which falls back with a
    warning.
    """
    global _DEFAULT
    if name is None:
        _DEFAULT = None
        return
    get_backend(name)
    _DEFAULT = str(name)


def get_default_backend() -> str | None:
    """The process-wide default backend name (``None`` = env/numpy)."""
    return _DEFAULT


def resolve_backend(request: str | Backend | None = None) -> Backend:
    """Resolve the backend to run with (argument > default > env > numpy).

    An explicit ``request`` that names a known-but-unavailable backend
    warns and falls back to numpy (models constructed with
    ``backend="numba"`` must still run on numpy-only installs); an
    unknown explicit name raises.  The same policy applies to the
    ``REPRO_BACKEND`` environment variable, except an unknown env name
    also warns-and-falls-back rather than raising, so one typo'd shell
    export cannot brick every forward pass.
    """
    backend = _resolve(request)
    reg = obs.registry()
    if reg.enabled:
        reg.counter(
            "repro_nn_backend_dispatch_total",
            help="Kernel-dispatch resolutions per compute backend.",
            labels={"backend": backend.name},
        ).inc()
    return backend


def _resolve(request: str | Backend | None) -> Backend:
    if isinstance(request, Backend):
        return request
    if request is not None:
        return _forgiving(str(request), source="backend argument", strict_unknown=True)
    if _DEFAULT is not None:
        return _forgiving(_DEFAULT, source="default backend", strict_unknown=True)
    env = os.environ.get(ENV_VAR, "").strip()
    if env:
        return _forgiving(env, source=f"{ENV_VAR} environment variable", strict_unknown=False)
    return get_backend("numpy")


def _forgiving(name: str, source: str, strict_unknown: bool) -> Backend:
    try:
        return get_backend(name)
    except BackendUnavailableError as error:
        warnings.warn(
            f"{source} requested backend {name!r} but it is unavailable "
            f"({error}); falling back to 'numpy'",
            RuntimeWarning,
            stacklevel=3,
        )
        return get_backend("numpy")
    except ValueError:
        if strict_unknown:
            raise
        known = ", ".join(list_backends())
        warnings.warn(
            f"{source} names unknown backend {name!r} (available: {known}); "
            f"falling back to 'numpy'",
            RuntimeWarning,
            stacklevel=3,
        )
        return get_backend("numpy")


def _numpy_factory() -> Backend:
    return NumpyBackend()


def _numba_factory() -> Backend:
    try:
        from repro.nn import _numba_kernels
    except ImportError as error:
        raise BackendUnavailableError(
            "backend 'numba' requires the optional numba package (pip install numba)"
        ) from error
    return NumbaBackend(_numba_kernels)


register_backend("numpy", _numpy_factory)
register_backend("numba", _numba_factory)
