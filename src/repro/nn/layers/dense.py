"""Fully connected layer.

Matches Keras semantics: the kernel acts on the last axis, so a ``Dense``
layer applied to ``(batch, timesteps, features)`` input transforms every
timestep independently — which is how the LSTM autoencoder's output
projection behaves when wrapped in ``TimeDistributed``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import activations, initializers
from repro.nn import backend as backends
from repro.nn.layers.base import Layer


class Dense(Layer):
    """``y = activation(x @ W + b)`` applied along the last axis.

    Parameters
    ----------
    units:
        Output feature count.
    activation:
        Name or :class:`~repro.nn.activations.Activation`; default linear.
    use_bias:
        Whether to add a bias vector.
    kernel_initializer / bias_initializer:
        Initialiser names or callables (defaults match Keras).
    """

    def __init__(
        self,
        units: int,
        activation: str | None = None,
        use_bias: bool = True,
        kernel_initializer: str = "glorot_uniform",
        bias_initializer: str = "zeros",
        name: str | None = None,
    ) -> None:
        super().__init__(name=name)
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.units = int(units)
        self.activation = activations.get(activation)
        self.use_bias = bool(use_bias)
        self.kernel_initializer = kernel_initializer
        self.bias_initializer = bias_initializer
        self._kernel = None
        self._bias = None
        self._cache: dict[str, np.ndarray] = {}

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) < 1:
            raise ValueError(f"Dense needs at least 1-D input, got {input_shape}")
        in_features = int(input_shape[-1])
        self._kernel = self.add_variable(
            "kernel", (in_features, self.units), initializers.get(self.kernel_initializer), rng
        )
        if self.use_bias:
            self._bias = self.add_variable(
                "bias", (self.units,), initializers.get(self.bias_initializer), rng
            )
        super().build(input_shape, rng)

    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(input_shape[:-1]) + (self.units,)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        inputs = self._cast(inputs)
        pre = inputs @ self._kernel.value
        if self.use_bias:
            pre += self._bias.value
        outputs = self.activation.forward(pre)
        self._cache = {"inputs": inputs, "pre": pre, "outputs": outputs}
        return outputs

    def infer(self, inputs: np.ndarray, backend: object | None = None) -> np.ndarray:
        """Fused inference: ``activation(x @ W + b)`` via the compute backend.

        Values are identical to :meth:`forward` (the numpy backend runs
        the same expression, applied in place); no training cache is
        populated, so ``backward`` must not follow.
        """
        inputs = self._cast(inputs)
        if inputs.ndim > 2 and not inputs.flags.c_contiguous:
            # A sequence view (an LSTM's gate-major output, RepeatVector's
            # broadcast) is no BLAS operand; numpy may multiply it in its
            # own loop, with other bits.  Gather it, as forward's input is.
            inputs = np.ascontiguousarray(inputs)
        bk = backend if backend is not None else backends.resolve_backend(self.backend)
        bias = self._bias.value if self.use_bias else None
        return bk.dense_forward(inputs, self._kernel.value, bias, self.activation)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise RuntimeError("backward called before forward")
        inputs = self._cache["inputs"]
        pre = self._cache["pre"]
        outputs = self._cache["outputs"]
        grad_pre = self.activation.backward(self._cast(grad), pre, outputs)

        # Fold any leading (batch, time, ...) dims into one for the matmul.
        flat_in = inputs.reshape(-1, inputs.shape[-1])
        flat_grad = grad_pre.reshape(-1, self.units)
        self._kernel.grad += flat_in.T @ flat_grad
        if self.use_bias:
            self._bias.grad += flat_grad.sum(axis=0)
        return grad_pre @ self._kernel.value.T

    def get_config(self) -> dict:
        config = super().get_config()
        config.update(
            units=self.units,
            activation=self.activation.name,
            use_bias=self.use_bias,
            kernel_initializer=self.kernel_initializer,
            bias_initializer=self.bias_initializer,
        )
        return config
