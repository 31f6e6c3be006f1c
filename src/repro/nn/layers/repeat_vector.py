"""RepeatVector layer — bridges encoder and decoder in the LSTM autoencoder.

The autoencoder compresses a ``(timesteps, features)`` window into a
single latent vector (the encoder's final hidden state); ``RepeatVector``
tiles that vector back out to ``timesteps`` copies so the decoder LSTM
can unroll a reconstruction of the same length.

``forward`` materialises the copies (the training pass and its
gradient need a real array); ``infer`` returns a read-only
``np.broadcast_to`` view whose time stride is 0, so nothing is copied
and a downstream :class:`~repro.nn.layers.lstm.LSTM` sees that the input
is the same at every step and projects it once.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer


class RepeatVector(Layer):
    """Repeat a ``(batch, features)`` input ``n`` times → ``(batch, n, features)``."""

    def __init__(self, n: int, name: str | None = None) -> None:
        super().__init__(name=name)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = int(n)

    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 1:
            raise ValueError(f"RepeatVector expects (features,) input, got {input_shape}")
        return (self.n, input_shape[0])

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        inputs = self._cast(inputs)
        if inputs.ndim != 2:
            raise ValueError(f"RepeatVector expects (batch, features) input, got {inputs.shape}")
        return np.repeat(inputs[:, None, :], self.n, axis=1)

    def infer(self, inputs: np.ndarray, backend: object | None = None) -> np.ndarray:
        """A read-only ``(batch, n, features)`` broadcast view of ``inputs``.

        Same values as :meth:`forward` with time stride 0 and no copy; a
        layer that needs its own array (or writes) must copy it, and
        :meth:`Sequential.infer <repro.nn.model.Sequential.infer>` does
        when the view is the model's output.
        """
        del backend
        inputs = self._cast(inputs)
        if inputs.ndim != 2:
            raise ValueError(f"RepeatVector expects (batch, features) input, got {inputs.shape}")
        batch, features = inputs.shape
        return np.broadcast_to(inputs[:, None, :], (batch, self.n, features))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        # Forward broadcast means the backward pass sums over the repeats.
        return self._cast(grad).sum(axis=1)

    def get_config(self) -> dict:
        config = super().get_config()
        config.update(n=self.n)
        return config
