"""TimeDistributed wrapper — apply an inner layer to every timestep.

Used for the autoencoder's output projection (``TimeDistributed(Dense(1))``
in the Keras idiom).  Implementation folds the time axis into the batch
axis, delegates to the inner layer, and unfolds again, so any layer that
operates on ``(batch, features)`` works unchanged.

A C-contiguous input folds as a zero-copy ``reshape`` view.  A strided
one — in inference always, because an LSTM hands on its gate-major
``(T, U, batch)`` sequence as a ``(batch, T, U)`` view — is gathered
into a fresh C-ordered array, so the inner layer's matmul sees the same
operand (and gives the same bits) as for a contiguous input.  The gather
is not cached: a pass-through inner layer (``Dropout``, a linear
``Activation``) returns its input, so a reused buffer would be handed to
the caller and overwritten by the next call, and a buffer sized by a
calibration pass would stay pinned for the life of the layer.
"""

from __future__ import annotations

import numpy as np

from repro.nn import backend as backends
from repro.nn.layers.base import Layer


class TimeDistributed(Layer):
    """Apply ``inner`` independently at every timestep of a 3-D input."""

    def __init__(self, inner: Layer, name: str | None = None) -> None:
        super().__init__(name=name or f"time_distributed_{inner.name}")
        self.inner = inner
        self._timesteps: int | None = None

    @property
    def backend(self) -> object | None:
        return self._backend_override

    @backend.setter
    def backend(self, value: object | None) -> None:
        # Keep the wrapped layer on the same backend: the inner layer is
        # what actually computes, and it resolves its own dispatch when
        # called without an explicit handle.
        self._backend_override = value
        inner = getattr(self, "inner", None)
        if inner is not None:
            inner.backend = value

    @staticmethod
    def _fold(array: np.ndarray) -> np.ndarray:
        """View ``(batch, timesteps, features)`` as ``(batch*timesteps, features)``.

        Zero-copy for C-contiguous input; strided input is gathered into
        a fresh C-ordered array (see the module docstring for why it is
        never a reused buffer).
        """
        batch, timesteps, features = array.shape
        return np.ascontiguousarray(array).reshape(batch * timesteps, features)

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 2:
            raise ValueError(
                f"TimeDistributed expects (timesteps, features) input, got {input_shape}"
            )
        self._timesteps = int(input_shape[0])
        if self.inner.dtype is None:
            self.inner.dtype = self.dtype
        self.inner.build((input_shape[1],), rng)
        # Adopt the inner layer's variables so the optimizer sees them.
        self._variables = list(self.inner.variables)
        super().build(input_shape, rng)

    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        inner_shape = self.inner.compute_output_shape((input_shape[1],))
        return (input_shape[0],) + tuple(inner_shape)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = self._cast(inputs)
        if inputs.ndim != 3:
            raise ValueError(
                f"TimeDistributed expects (batch, timesteps, features), got {inputs.shape}"
            )
        batch, timesteps, _ = inputs.shape
        outputs = self.inner.forward(self._fold(inputs), training=training)
        # Inner layers emit freshly-written contiguous outputs, so the
        # unfold is a view; np.reshape copies only if that ever changes.
        return np.reshape(outputs, (batch, timesteps, -1))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self._cast(grad)
        batch, timesteps, _ = grad.shape
        grad_inputs = self.inner.backward(self._fold(grad))
        return np.reshape(grad_inputs, (batch, timesteps, -1))

    def infer(self, inputs: np.ndarray, backend: object | None = None) -> np.ndarray:
        inputs = self._cast(inputs)
        if inputs.ndim != 3:
            raise ValueError(
                f"TimeDistributed expects (batch, timesteps, features), got {inputs.shape}"
            )
        batch, timesteps, _ = inputs.shape
        bk = backend if backend is not None else backends.resolve_backend(self.backend)
        outputs = self.inner.infer(self._fold(inputs), backend=bk)
        return np.reshape(outputs, (batch, timesteps, -1))

    def zero_grads(self) -> None:
        self.inner.zero_grads()

    def get_config(self) -> dict:
        config = super().get_config()
        config.update(inner=self.inner.get_config(), inner_class=type(self.inner).__name__)
        return config
