"""Activation functions with analytic derivatives.

Each activation is a small class exposing ``forward`` and ``backward``;
``backward`` consumes the *forward output* (not the input) wherever the
derivative is cheaper in terms of the output (sigmoid, tanh), which is
what the LSTM backward pass exploits.
"""

from __future__ import annotations

import numpy as np


class Activation:
    """Base class; subclasses implement ``forward`` and ``derivative``."""

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """d(activation)/dx given input ``x`` and forward output ``y``."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Chain an upstream gradient through the activation."""
        return grad * self.derivative(x, y)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Linear(Activation):
    """Identity activation (Keras ``linear``)."""

    name = "linear"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        del y
        return np.ones_like(x)


class ReLU(Activation):
    """Rectified linear unit, max(0, x)."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        del y
        return (x > 0).astype(x.dtype)


class LeakyReLU(Activation):
    """Leaky ReLU with configurable negative slope."""

    name = "leaky_relu"

    def __init__(self, alpha: float = 0.01) -> None:
        self.alpha = float(alpha)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, self.alpha * x)

    def derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        del y
        return np.where(x > 0, 1.0, self.alpha)


class Sigmoid(Activation):
    """Logistic sigmoid, numerically stabilised for large |x|."""

    name = "sigmoid"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(x)

    def derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        del x
        return y * (1.0 - y)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        del x
        return 1.0 - y * y


class Softplus(Activation):
    """Softplus, log(1 + e^x), a smooth ReLU."""

    name = "softplus"

    def forward(self, x: np.ndarray) -> np.ndarray:
        # log1p(exp(-|x|)) + max(x, 0) is stable for both signs.
        return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)

    def derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        del y
        return sigmoid(x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid, returned in a fresh array.

    The output dtype matches the input's floating precision (float64 for
    non-float input, preserving the historical behaviour).  Computes
    :func:`sigmoid_inplace` on a copy, so both give the same bits.
    """
    x = np.asarray(x)
    dtype = x.dtype if x.dtype in (np.float32, np.float64) else np.float64
    out = np.array(x, dtype=dtype)
    sigmoid_inplace(out, np.empty_like(out))
    return out


def sigmoid_inplace(x: np.ndarray, work: np.ndarray) -> None:
    """Overwrite ``x`` with ``sigmoid(x)``, using ``work`` as scratch.

    The stabilised expression ``1 / (1 + e^-x)`` for ``x >= 0`` and
    ``e^x / (1 + e^x)`` otherwise, i.e. ``numerator / (1 + e^{-|x|})``
    with numerator ``1`` or ``e^{-|x|}``.  The numerator is chosen
    without a mask: ``x >= 0`` written into ``x`` is 1.0 or 0.0, and
    its maximum with ``e^{-|x|}`` (in ``[0, 1]``) is the numerator
    either way.  Abs, negate, compare and max are exact, and the
    ``exp``, add and divide take the operands of the two-branch form,
    so the bits are that form's; NaN stays NaN.  ``work`` must be a
    float buffer of ``x``'s shape and dtype, and is overwritten; ``x``
    may be a strided view.
    """
    np.abs(x, out=work)
    np.negative(work, out=work)
    np.exp(work, out=work)              # e^{-|x|}, in [0, 1]
    np.greater_equal(x, 0.0, out=x)     # 1.0 where x >= 0, else 0.0
    np.maximum(work, x, out=x)          # numerator: 1 or e^{-|x|}
    work += 1.0                         # denominator 1 + e^{-|x|}
    x /= work


_REGISTRY: dict[str, type[Activation]] = {
    "linear": Linear,
    "identity": Linear,
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "softplus": Softplus,
}


def get(name_or_activation: str | Activation | None) -> Activation:
    """Resolve an activation by name; ``None`` means linear."""
    if name_or_activation is None:
        return Linear()
    if isinstance(name_or_activation, Activation):
        return name_or_activation
    try:
        return _REGISTRY[name_or_activation]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown activation {name_or_activation!r}; known: {known}"
        ) from None
