"""Sequential model: the training loop of the numpy substrate.

API intentionally mirrors the Keras subset the paper uses::

    model = Sequential([
        LSTM(50),
        Dense(10, activation="relu"),
        Dense(1),
    ])
    model.compile(optimizer=Adam(0.001), loss="mse")
    history = model.fit(x, y, epochs=10, batch_size=32, seed=7)
    predictions = model.predict(x_test)

All stochasticity (weight init, batch shuffling, dropout) derives from
the seed given to :meth:`Sequential.build` / :meth:`Sequential.fit`, so
federated experiments are bit-reproducible.

Precision & allocation discipline: the model's compute dtype is fixed at
build time (``dtype=`` argument, else the global policy — float32 by
default).  ``fit`` casts the dataset once up front, gathers shuffled
mini-batches into reusable batch buffers with ``np.take(..., out=...)``,
and ``predict`` writes each forward chunk straight into one preallocated
output array — the steady-state training loop performs no per-batch
dataset copies or per-chunk concatenations.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

import numpy as np

from repro import obs
from repro.nn import backend as backends
from repro.nn import losses as losses_module
from repro.nn import optimizers as optimizers_module
from repro.nn import policy
from repro.nn.callbacks import Callback, History
from repro.nn.layers.base import Layer, Variable
from repro.nn.layers.lstm import LSTM
from repro.nn.layers.time_distributed import TimeDistributed
from repro.utils.rng import SeedLike, as_generator


class Sequential:
    """A linear stack of layers trained with mini-batch gradient descent."""

    def __init__(
        self,
        layers: list[Layer] | None = None,
        name: str = "sequential",
        dtype: object | None = None,
        backend: object | None = None,
    ) -> None:
        self.name = name
        self.layers: list[Layer] = []
        self.built = False
        self.stop_training = False
        self.optimizer = None
        self.loss = None
        self._input_shape: tuple[int, ...] | None = None
        self._dtype_request = dtype
        self._dtype: np.dtype | None = None
        self._backend: object | None = backend
        for layer in layers or []:
            self.add(layer)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, layer: Layer) -> None:
        """Append a layer; must be called before :meth:`build`."""
        if self.built:
            raise RuntimeError("cannot add layers after the model is built")
        if not isinstance(layer, Layer):
            raise TypeError(f"expected a Layer, got {type(layer).__name__}")
        if self._backend is not None:
            layer.backend = self._backend
        self.layers.append(layer)

    def set_backend(self, backend: object | None) -> None:
        """Pin this model (and every layer) to a compute backend.

        ``backend`` is a registered name, a Backend instance, or ``None``
        to return to the runtime resolution order (process default >
        ``REPRO_BACKEND`` > numpy).  A per-model backend beats the
        process-wide default; it is runtime configuration only and is
        never serialized with the model.
        """
        self._backend = backend
        for layer in self.layers:
            layer.backend = backend

    @property
    def backend(self) -> object | None:
        """This model's backend override (``None`` = runtime resolution)."""
        return self._backend

    def build(self, input_shape: tuple[int, ...], seed: SeedLike = None) -> None:
        """Allocate all layer variables for per-sample ``input_shape``."""
        if self.built:
            raise RuntimeError("model is already built")
        if not self.layers:
            raise RuntimeError("cannot build an empty model")
        rng = as_generator(seed)
        self._dtype = policy.resolve_dtype(self._dtype_request)
        shape = tuple(int(dim) for dim in input_shape)
        for layer in self.layers:
            if layer.dtype is None:
                layer.dtype = self._dtype
            layer.build(shape, rng)
            shape = tuple(layer.compute_output_shape(shape))
        self._input_shape = tuple(int(dim) for dim in input_shape)
        self.built = True

    def compile(self, optimizer="adam", loss="mse") -> None:
        """Attach an optimizer and a loss (names or instances)."""
        self.optimizer = optimizers_module.get(optimizer)
        self.loss = losses_module.get(loss)

    @property
    def input_shape(self) -> tuple[int, ...] | None:
        return self._input_shape

    @property
    def dtype(self) -> np.dtype | None:
        """Compute dtype (``None`` until the model is built)."""
        return self._dtype

    @property
    def output_shape(self) -> tuple[int, ...]:
        if not self.built:
            raise RuntimeError("model must be built to know its output shape")
        shape = self._input_shape
        for layer in self.layers:
            shape = tuple(layer.compute_output_shape(shape))
        return shape

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------
    def _cast(self, array: np.ndarray) -> np.ndarray:
        """View ``array`` in the model dtype (no copy when it matches)."""
        return np.asarray(array, dtype=self._dtype)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run a full forward pass (builds lazily from the batch shape)."""
        inputs = np.asarray(inputs)
        if not self.built:
            self.build(inputs.shape[1:])
        outputs = self._cast(inputs)
        for layer in self.layers:
            outputs = layer.forward(outputs, training=training)
        return outputs

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop an output gradient through every layer (reverse order)."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def infer(self, inputs: np.ndarray, backend: object | None = None) -> np.ndarray:
        """Forward pass down the layers' inference fast paths.

        Same function as ``forward(training=False)`` (the LSTM path is
        bit-identical) but no training caches are populated, so the
        recurrent working set stays O(batch) — ``backward`` must not be
        called after ``infer``.

        Backend dispatch is resolved ONCE here (model override > process
        default > ``REPRO_BACKEND`` > numpy) and the handle is threaded
        to every layer; chunked callers like :meth:`predict` pass their
        own pre-resolved handle so resolution never re-runs per chunk.

        Layers hand each other views where they can (an LSTM's gate-major
        sequence, RepeatVector's broadcast), so the result may be a
        non-contiguous view; it is always writable and never a reused
        workspace.
        """
        inputs = np.asarray(inputs)
        if not self.built:
            self.build(inputs.shape[1:])
        bk = backend if backend is not None else backends.resolve_backend(self._backend)
        outputs = self._cast(inputs)
        for layer in self.layers:
            outputs = layer.infer(outputs, backend=bk)
        if not outputs.flags.writeable:
            outputs = outputs.copy()  # a final RepeatVector's broadcast view
        return outputs

    @contextlib.contextmanager
    def transient_workspaces(self) -> Iterator[None]:
        """Scope for a one-off inference pass, such as a calibration.

        Inside it every :class:`LSTM` of the model (a
        :class:`TimeDistributed` one included) takes its inference
        workspaces from a dict local to each ``infer`` call, so the
        pass's widths neither stay pinned nor enter or reorder the
        layers' workspace LRUs, which keep serving the hot widths.  Each
        layer's previous mode is restored on exit, also when the body
        raises.  Outputs are the same bits either way.
        """
        with contextlib.ExitStack() as stack:
            for layer in self.layers:
                while isinstance(layer, TimeDistributed):
                    layer = layer.inner
                if isinstance(layer, LSTM):
                    stack.enter_context(layer.transient_workspaces())
            yield

    def predict(self, inputs: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Inference in batches; deterministic (dropout disabled).

        Per-chunk work is pure compute: the input is cast to the model
        dtype ONCE up front (chunks are then zero-copy views), the
        compute backend is resolved once, and every chunk is written
        straight into one preallocated output array.  Nothing —
        dtype policy, backend lookup, output allocation — re-resolves
        inside the chunk loop.
        """
        inputs = np.asarray(inputs)
        if len(inputs) == 0:
            raise ValueError("predict called with an empty batch")
        if not self.built:
            self.build(inputs.shape[1:])
        inputs = self._cast(inputs)
        bk = backends.resolve_backend(self._backend)
        n_samples = len(inputs)
        first = self.infer(inputs[:batch_size], backend=bk)
        if len(first) == n_samples:
            # A pass-through final layer can hand the caller's own array
            # back, and a sequence LSTM its gate-major view: predict
            # returns a C-ordered array that aliases no input.
            if not first.flags.c_contiguous or np.may_share_memory(first, inputs):
                return first.copy()  # C order
            return first
        outputs = np.empty((n_samples,) + first.shape[1:], dtype=first.dtype)
        outputs[: len(first)] = first
        for start in range(batch_size, n_samples, batch_size):
            chunk = self.infer(inputs[start : start + batch_size], backend=bk)
            outputs[start : start + len(chunk)] = chunk
        return outputs

    def evaluate(self, inputs: np.ndarray, targets: np.ndarray, batch_size: int = 256) -> float:
        """Mean loss over a dataset (no gradient updates)."""
        if self.loss is None:
            raise RuntimeError("model must be compiled before evaluate()")
        predictions = self.predict(inputs, batch_size=batch_size)
        return float(self.loss(targets, predictions))

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        epochs: int = 1,
        batch_size: int = 32,
        shuffle: bool = True,
        validation_data: tuple[np.ndarray, np.ndarray] | None = None,
        callbacks: list[Callback] | None = None,
        seed: SeedLike = None,
        verbose: bool = False,
    ) -> History:
        """Mini-batch training loop; returns the :class:`History` callback.

        ``seed`` drives batch shuffling (and lazy build when the model was
        not built explicitly).  Training stops early when any callback
        sets ``model.stop_training`` (e.g. :class:`EarlyStopping`).
        """
        if self.optimizer is None or self.loss is None:
            raise RuntimeError("model must be compiled before fit()")
        inputs = np.asarray(inputs)
        targets = np.asarray(targets)
        if len(inputs) != len(targets):
            raise ValueError(
                f"inputs and targets disagree on sample count: "
                f"{len(inputs)} vs {len(targets)}"
            )
        if len(inputs) == 0:
            raise ValueError("fit called with an empty dataset")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")

        rng = as_generator(seed)
        if not self.built:
            self.build(inputs.shape[1:], seed=rng)
        # Cast the dataset once; per-batch gathers below stay in-dtype.
        inputs = self._cast(inputs)
        targets = self._cast(targets)

        history = History()
        all_callbacks: list[Callback] = [history] + list(callbacks or [])
        for callback in all_callbacks:
            callback.model = self
        self.stop_training = False

        for callback in all_callbacks:
            callback.on_train_begin({})

        sample_count = len(inputs)
        effective_batch = min(batch_size, sample_count)
        if shuffle:
            # Reusable mini-batch gather buffers (np.take writes into a
            # leading slice for the final partial batch).
            x_buffer = np.empty((effective_batch,) + inputs.shape[1:], dtype=self._dtype)
            y_buffer = np.empty((effective_batch,) + targets.shape[1:], dtype=self._dtype)
        epoch_span = obs.registry().span("repro_nn_fit_epoch")
        for epoch in range(epochs):
            with epoch_span:
                for callback in all_callbacks:
                    callback.on_epoch_begin(epoch, {})
                epoch_loss = 0.0
                if shuffle:
                    order = rng.permutation(sample_count)
                for start in range(0, sample_count, batch_size):
                    stop = min(start + batch_size, sample_count)
                    length = stop - start
                    if shuffle:
                        batch_idx = order[start:stop]
                        x_batch = np.take(inputs, batch_idx, axis=0, out=x_buffer[:length])
                        y_batch = np.take(targets, batch_idx, axis=0, out=y_buffer[:length])
                    else:
                        x_batch = inputs[start:stop]
                        y_batch = targets[start:stop]
                    batch_loss = self._train_step(x_batch, y_batch)
                    epoch_loss += batch_loss * length
                logs = {"loss": epoch_loss / sample_count}
                if validation_data is not None:
                    logs["val_loss"] = self.evaluate(*validation_data)
                if verbose:
                    rendered = ", ".join(f"{k}={v:.6f}" for k, v in logs.items())
                    print(f"epoch {epoch + 1}/{epochs}: {rendered}")
                for callback in all_callbacks:
                    callback.on_epoch_end(epoch, logs)
            if self.stop_training:
                break

        for callback in all_callbacks:
            callback.on_train_end({})
        return history

    def train_on_batch(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One forward/backward/update step; returns the batch loss."""
        if self.optimizer is None or self.loss is None:
            raise RuntimeError("model must be compiled before training")
        if not self.built:
            self.build(np.asarray(inputs).shape[1:])
        return self._train_step(self._cast(inputs), self._cast(targets))

    def _train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Forward/backward/update on already-cast arrays."""
        predictions = self.forward(inputs, training=True)
        loss_value = self.loss(targets, predictions)
        self.zero_grads()
        grad = self.loss.gradient(targets, predictions)
        self.backward(grad)
        self.optimizer.step(self.trainable_variables)
        return float(loss_value)

    # ------------------------------------------------------------------
    # variables and weights
    # ------------------------------------------------------------------
    @property
    def trainable_variables(self) -> list[Variable]:
        variables: list[Variable] = []
        for layer in self.layers:
            variables.extend(layer.variables)
        return variables

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def get_weights(self) -> list[np.ndarray]:
        """Copies of every trainable tensor, in layer order."""
        return [variable.value.copy() for variable in self.trainable_variables]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        """Assign weights (shapes must match; order as :meth:`get_weights`)."""
        variables = self.trainable_variables
        if len(weights) != len(variables):
            raise ValueError(
                f"expected {len(variables)} weight arrays, got {len(weights)}"
            )
        for variable, weight in zip(variables, weights, strict=True):
            variable.assign(weight)

    def count_params(self) -> int:
        return sum(layer.count_params() for layer in self.layers)

    def summary(self) -> str:
        """Human-readable architecture table (also returned as a string)."""
        lines = [f"Model: {self.name}", "-" * 60]
        shape = self._input_shape
        for layer in self.layers:
            if self.built and shape is not None:
                shape = tuple(layer.compute_output_shape(shape))
                shape_repr = str((None,) + shape)
            else:
                shape_repr = "(unbuilt)"
            lines.append(
                f"{layer.name:<28} {shape_repr:<20} params={layer.count_params()}"
            )
        lines.append("-" * 60)
        lines.append(f"Total params: {self.count_params()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Sequential(name={self.name!r}, layers={len(self.layers)}, built={self.built})"
