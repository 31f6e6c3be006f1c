"""LSTM layer with hand-derived backpropagation through time (BPTT).

This is the workhorse of the reproduction: both the forecaster
(``LSTM(50) → Dense(10, relu) → Dense(1)``) and the anomaly-detection
autoencoder (``LSTM 50→25 / 25→50``) are built from this layer.

Gate equations (Keras/standard orientation, gate order ``i, f, g, o``)::

    z_t = x_t @ W_x + h_{t-1} @ W_h + b            # 4 * units gates
    i_t = sigmoid(z_i)    f_t = sigmoid(z_f)
    g_t = tanh(z_g)       o_t = sigmoid(z_o)
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

The forward pass caches per-timestep tensors; the backward pass walks the
sequence in reverse accumulating the recurrent gradients.  Gradients are
verified against central finite differences in ``tests/nn/test_gradcheck.py``.

Fused compute engine
--------------------
The public weight layout stays Keras-compatible (columns ordered
``i, f, g, o``), but internally the kernels are *packed* into the gate
order ``i, f, o, g`` so the three sigmoid gates form one contiguous
block.  The per-timestep step itself (recurrent matmul + gate
activations + state update) is dispatched through the pluggable
:mod:`repro.nn.backend` registry — the default ``"numpy"`` backend
applies a single fused in-place sigmoid over ``z[:3U]`` and one
in-place tanh over ``z[3U:]``, while the optional ``"numba"`` backend
compiles the whole elementwise chain into one batch-parallel kernel.
The sigmoid is exact and selects its numerator without a mask (see
:func:`~repro.nn.activations.sigmoid_inplace`); its one scratch buffer
is the recurrent product's ``hz[:3U]``, dead once added into ``z``, so
an inference workspace holds 12U floats per batch row (``z``, ``hz``,
``h``, ``c``, ``tanh(c)`` and one ``(U, batch)`` temporary), 16U for a
layer fed by :class:`RepeatVector`, which also keeps the once-projected
input ``z_once``.
Inference runs a batch of 2 * ``_TILE`` windows or more in column tiles
of ``_TILE`` to 2 * ``_TILE`` - 1 windows, each with its own workspace,
so an inference workspace is bounded by the tile, not by how many
windows one call scores (about one L2 at U = 8); a narrower batch is
one tile.  All per-timestep tensors (gate pre-activations, cell states,
hidden states, matmul outputs) live in per-layer workspaces — keyed by
``(batch, timesteps)`` for training, by tile width for inference — and
are reused across calls: the hot loops in both ``forward`` and the BPTT
backward allocate nothing.  A one-off pass (a threshold calibration)
runs inside :meth:`~repro.nn.model.Sequential.transient_workspaces`:
its inference workspaces are local to each ``infer`` call and freed
when it returns, so the layer keeps only the widths the hot steps
reuse.  Backends accelerate the forward direction only; BPTT always
runs the numpy path against the (backend-written) activated-gate caches.

The packed kernels and their transposes are cached and refreshed only
when a weight's :attr:`~repro.nn.layers.base.Variable.version` changes
(weight assignment and optimizer steps bump it; in-place mutation through
a raw view must call ``Variable.touch()``).

Gate-major workspaces
---------------------
Every gate tensor is *gate-major*: one step's gates are a ``(4U, batch)``
array and ``h``/``c``/``tanh(c)``/the step scratch are ``(U, batch)``, so
each gate is one contiguous row block and every elementwise pass of the
step runs over contiguous memory.  (Row-major ``(batch, 4U)`` gates make
each gate a strided slice of U columns, with U as small as 4.)

Each matmul is written as the transposed view of its row-major form,
e.g. ``matmul(h.T, recurrent, out=hz.T)``.  Whether BLAS returns the
same bits for both forms depends on its kernel, not on this layer:
OpenBLAS's AVX-512 (SkylakeX) kernels do for short contractions — every
float32 model up to 32 units checked (perfbench's 8-4-4-8 autoencoder,
the fast profile's 32/16 layers) and float64 up to 8 — while for longer
ones (the paper profile's 50-unit layers), and on its AVX2 (Haswell,
Zen) kernels already at 8 units, results move in the last ulps
(``tests/nn/test_lstm_layout.py`` probes which case holds).  The tensors
BPTT hands to BLAS in bulk stay row-major and time-major, exactly as the
row-major form had them: the input sequence ``(T, B, F)``, the hidden
states ``(T, B, U)`` (written through ``hs[t].T``; also the layer
output) and the gate-gradient staging ``(T, B, 4U)``, written through
its per-step ``(4U, B)`` view.  The training forward caches gates as
``(4U, T, B)`` so the input projection of all timesteps stays one gemm.

Inference keeps sequences gate-major *between* layers as well.  A
``return_sequences`` layer's ``infer`` writes each ``h_t`` into row ``t``
of a fresh ``(T, U, B)`` array (a tile into its columns of that row)
and returns the ``(B, T, U)`` transposed view; the next LSTM projects
that view's ``inputs[:, t, :]`` — an F-ordered ``(B, U)`` BLAS
operand — in place, so no step copies its input or scatters its
output.  Only a consumer that needs rows
(``TimeDistributed``'s fold, a ``Dense`` on a sequence) gathers the view,
once per call.

Because workspaces are reused, a layer instance must not be driven from
multiple threads concurrently (models are cheap — use one per thread).
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

import numpy as np

from repro.nn import initializers
from repro.nn import backend as backends
from repro.nn.layers.base import Layer

#: Workspaces retained per layer; least-recently-used shapes are evicted
#: beyond this, so transient batch sizes (streaming warmup, ragged station
#: schedules) cannot push out the hot steady-state shape.
_MAX_WORKSPACES = 16

#: Inference column tile.  A batch of up to 2 * _TILE - 1 windows runs as
#: one tile; a wider one runs the step loop once per column range
#: ``[k * _TILE, (k + 1) * _TILE)``, the last range taking the remainder,
#: so every tile starts at a multiple of _TILE and is _TILE to
#: 2 * _TILE - 1 windows wide.  A tile's workspace is 12U floats per
#: window (16U behind a RepeatVector) — 1.5 to 3 MB at U = 8 in float32,
#: about one L2 — however many windows one call scores; a 32,768-window
#: workspace was 12.6 MB.  The tiles of one call share a workspace per
#: width; inside ``Sequential.transient_workspaces`` it is freed when the
#: call returns instead of staying in the layer's LRU.
_TILE = 4096


def _steps_blas_ready(inputs: np.ndarray) -> bool:
    """Whether ``np.matmul`` hands each step's ``inputs[:, t, :]`` to BLAS.

    numpy's rule for a 2-D operand: unit stride along one axis and a
    stride along the other that spans at least a row (or column).
    Anything else — a reversed or doubly strided batch — numpy either
    multiplies in its own loop, which rounds differently from BLAS, or
    (recent releases) copies into a temporary on every call.
    """
    item = inputs.itemsize
    rows, _, cols = inputs.shape
    s_rows, _, s_cols = inputs.strides
    return (s_cols == item and s_rows % item == 0 and s_rows // item >= cols) or (
        s_rows == item and s_cols % item == 0 and s_cols // item >= rows
    )


class LSTM(Layer):
    """Long Short-Term Memory layer.

    Parameters
    ----------
    units:
        Hidden/cell state dimensionality.
    return_sequences:
        If ``True`` the layer outputs the full hidden-state sequence
        ``(batch, timesteps, units)``; otherwise only the final hidden
        state ``(batch, units)`` (Keras semantics).
    unit_forget_bias:
        Initialise the forget-gate bias to 1.0 (Keras default), which
        stabilises early training of gated recurrent nets.
    kernel_initializer / recurrent_initializer:
        Defaults match Keras: Glorot-uniform input kernel, orthogonal
        recurrent kernel.
    """

    def __init__(
        self,
        units: int,
        return_sequences: bool = False,
        unit_forget_bias: bool = True,
        kernel_initializer: str = "glorot_uniform",
        recurrent_initializer: str = "orthogonal",
        name: str | None = None,
    ) -> None:
        super().__init__(name=name)
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.units = int(units)
        self.return_sequences = bool(return_sequences)
        self.unit_forget_bias = bool(unit_forget_bias)
        self.kernel_initializer = kernel_initializer
        self.recurrent_initializer = recurrent_initializer
        self._kernel = None  # (features, 4 * units), gate order (i, f, g, o)
        self._recurrent = None  # (units, 4 * units)
        self._bias = None  # (4 * units,)
        self._cache: dict[str, object] = {}
        self._workspaces: dict[tuple[int, int], dict[str, np.ndarray]] = {}
        self._infer_workspaces: dict[int, dict[str, np.ndarray]] = {}
        self._transient = False  # see transient_workspaces()
        self._packed: dict[str, np.ndarray] = {}
        self._packed_versions: tuple[int, int, int] | None = None
        self._perm: np.ndarray | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 2:
            raise ValueError(
                f"LSTM expects (timesteps, features) input shape, got {input_shape}"
            )
        features = int(input_shape[-1])
        self._kernel = self.add_variable(
            "kernel",
            (features, 4 * self.units),
            initializers.get(self.kernel_initializer),
            rng,
        )
        self._recurrent = self.add_variable(
            "recurrent_kernel",
            (self.units, 4 * self.units),
            initializers.get(self.recurrent_initializer),
            rng,
        )
        self._bias = self.add_variable("bias", (4 * self.units,), initializers.zeros, rng)
        if self.unit_forget_bias:
            # Gate order is (i, f, g, o): slots [units:2*units] are the forget gate.
            self._bias.value[self.units : 2 * self.units] = 1.0
            self._bias.touch()
        super().build(input_shape, rng)

        units = self.units
        dtype = self.dtype
        # Packed layout (i, f, o, g): sigmoid gates first, tanh gate last.
        self._perm = np.concatenate(
            [
                np.arange(0, 2 * units),              # i, f
                np.arange(3 * units, 4 * units),      # o
                np.arange(2 * units, 3 * units),      # g
            ]
        )
        self._packed = {
            "kernel": np.empty((features, 4 * units), dtype=dtype),
            "recurrent": np.empty((units, 4 * units), dtype=dtype),
            "bias": np.empty((4 * units,), dtype=dtype),
            "kernel_t": np.empty((4 * units, features), dtype=dtype),
            "recurrent_t": np.empty((4 * units, units), dtype=dtype),
        }
        self._packed_versions = None
        # Parameter-gradient staging buffers (packed layout, bulk matmuls).
        self._pg_kernel = np.empty((4 * units, features), dtype=dtype)
        self._pg_recurrent = np.empty((4 * units, units), dtype=dtype)
        self._pg_bias = np.empty((4 * units,), dtype=dtype)

    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        timesteps = input_shape[0]
        if self.return_sequences:
            return (timesteps, self.units)
        return (self.units,)

    # -- workspace / packed-kernel management ---------------------------
    def _refresh_packed(self) -> dict[str, np.ndarray]:
        versions = (self._kernel.version, self._recurrent.version, self._bias.version)
        if versions != self._packed_versions:
            packed = self._packed
            np.take(self._kernel.value, self._perm, axis=1, out=packed["kernel"])
            np.take(self._recurrent.value, self._perm, axis=1, out=packed["recurrent"])
            np.take(self._bias.value, self._perm, axis=0, out=packed["bias"])
            packed["kernel_t"][...] = packed["kernel"].T
            packed["recurrent_t"][...] = packed["recurrent"].T
            self._packed_versions = versions
        return self._packed

    def _workspace(self, batch: int, timesteps: int) -> dict[str, np.ndarray]:
        key = (batch, timesteps)
        ws = self._workspaces.pop(key, None)
        if ws is not None:
            self._workspaces[key] = ws  # re-insert: dict order is LRU order
        else:
            units = self.units
            features = int(self.input_shape[-1])
            dtype = self.dtype
            u_b = (units, batch)
            ws = {
                # Row-major BLAS operands (sequences time-major).
                "x_tm": np.empty((timesteps, batch, features), dtype=dtype),
                "hs": np.empty((timesteps, batch, units), dtype=dtype),
                "dz": np.empty((timesteps, batch, 4 * units), dtype=dtype),
                "gi_tm": np.empty((timesteps, batch, features), dtype=dtype),
                "dh_next": np.empty((batch, units), dtype=dtype),
                # Gate-major: z[:, t] is step t's (4U, batch) gate block.
                "z": np.empty((4 * units, timesteps, batch), dtype=dtype),
                "cs": np.empty((timesteps, units, batch), dtype=dtype),
                "tanh_cs": np.empty((timesteps, units, batch), dtype=dtype),
                # Per-step scratch.
                "state0": np.zeros(u_b, dtype=dtype),  # h_{-1} = c_{-1} = 0
                "hz": np.empty((4 * units, batch), dtype=dtype),
                "tmp_u": np.empty(u_b, dtype=dtype),
                "dh": np.empty(u_b, dtype=dtype),
                "dc": np.empty(u_b, dtype=dtype),
                "dc_next": np.empty(u_b, dtype=dtype),
                "do": np.empty(u_b, dtype=dtype),
            }
            if len(self._workspaces) >= _MAX_WORKSPACES:
                self._workspaces.pop(next(iter(self._workspaces)))
            self._workspaces[key] = ws
        return ws

    @contextlib.contextmanager
    def transient_workspaces(self) -> Iterator[None]:
        """Take :meth:`infer`'s workspaces from a dict local to each call.

        For a one-off pass: its widths are never inserted into, or
        reordered in, the layer's workspace LRU, and its buffers are
        freed when each call returns.  The previous mode is restored on
        exit, also when the body raises, so scopes nest.
        """
        previous = self._transient
        self._transient = True
        try:
            yield
        finally:
            self._transient = previous

    def _infer_workspace(
        self, batch: int, cache: dict[int, dict[str, np.ndarray]]
    ) -> dict[str, np.ndarray]:
        ws = cache.pop(batch, None)
        if ws is not None:
            cache[batch] = ws  # re-insert: dict order is LRU order
        else:
            units = self.units
            dtype = self.dtype
            ws = {
                "z": np.empty((4 * units, batch), dtype=dtype),
                "hz": np.empty((4 * units, batch), dtype=dtype),
                "h": np.empty((units, batch), dtype=dtype),
                "c": np.empty((units, batch), dtype=dtype),
                "tanh_c": np.empty((units, batch), dtype=dtype),
                "tmp_u": np.empty((units, batch), dtype=dtype),
            }
            if len(cache) >= _MAX_WORKSPACES:
                cache.pop(next(iter(cache)))
            cache[batch] = ws
        return ws

    def infer(self, inputs: np.ndarray, backend: object | None = None) -> np.ndarray:
        """Cache-free forward pass for inference.

        Same gate math as :meth:`forward` (same fused kernels via the
        same backend) but keeps only the running ``h``/``c`` state
        instead of per-timestep BPTT caches: a workspace of 12U floats
        per window (16U for a time-invariant input), kept in the layer's
        width-keyed LRU for the next call of that width — or, inside
        :meth:`transient_workspaces`, in a dict local to this call.
        A batch of up to 2 * ``_TILE`` - 1 windows runs as
        one tile — the whole block-mode streaming step, so per-ufunc
        dispatch amortises over ``B × n_stations`` windows in ONE call.
        A wider batch (a calibration pass) runs the step loop once per
        column range ``[k * _TILE, (k + 1) * _TILE)``, the last taking
        the remainder, so its working set stays at one tile's workspace
        — L2-resident for small U — instead of growing with the batch.
        The state and gates are gate-major — ``z`` is ``(4U, width)``,
        ``h``/``c`` are ``(U, width)`` — so every elementwise pass is
        contiguous.

        Inference moves no bytes it does not compute on:

        * each step's input projection reads ``inputs[:, t, :]`` in
          place (a view numpy cannot hand to BLAS, such as a reversed
          batch, is gathered once first, so the product keeps its BLAS
          bits; a one-feature sequence is laid out time-major once, so
          each step's elementwise projection reads a contiguous row);
        * a time-invariant input — :class:`RepeatVector`'s broadcast
          view, time stride 0 — is projected once per tile, not per step;
        * a ``return_sequences`` layer writes each ``h_t`` straight into
          its tile's columns of a fresh gate-major ``(T, U, batch)``
          array and returns its ``(batch, T, U)`` transposed *view*,
          which the next LSTM reads without a copy.

        The result is always writable and freshly allocated (never a
        workspace).  ``backward`` after ``infer`` is undefined.

        ``backend`` is an already-resolved backend handle (chunked
        callers resolve once); ``None`` resolves per call, never per step.
        """
        inputs = self._cast(inputs)
        if inputs.ndim != 3:
            raise ValueError(
                f"LSTM expects (batch, timesteps, features) input, got {inputs.shape}"
            )
        bk = backend if backend is not None else backends.resolve_backend(self.backend)
        batch, timesteps, features = inputs.shape
        packed = self._refresh_packed()
        cache = {} if self._transient else self._infer_workspaces

        # Steps read their input in place; two layouts are fixed first, once.
        invariant = timesteps > 1 and inputs.strides[1] == 0
        if features > 1 and not _steps_blas_ready(inputs):
            # Gather once, not per step, and keep every product on BLAS.
            inputs = np.ascontiguousarray(inputs)
        elif features == 1 and not invariant and inputs.strides[0] != inputs.itemsize:
            # Time-major: each step's multiply reads a row, not a column.
            inputs = np.ascontiguousarray(inputs.transpose(1, 0, 2)).transpose(1, 0, 2)

        if self.return_sequences:
            out = np.empty((timesteps, self.units, batch), dtype=self.dtype)
        else:
            out = np.empty((batch, self.units), dtype=self.dtype)
        n_tiles = max(batch // _TILE, 1)
        for k in range(n_tiles):
            start = k * _TILE
            stop = batch if k == n_tiles - 1 else start + _TILE
            tile_out = out[:, :, start:stop] if self.return_sequences else out[start:stop]
            self._infer_tile(inputs[start:stop], invariant, packed, bk, tile_out, cache)
        return out.transpose(2, 0, 1) if self.return_sequences else out

    def _infer_tile(
        self,
        inputs: np.ndarray,
        invariant: bool,
        packed: dict[str, np.ndarray],
        bk: object,
        out: np.ndarray,
        cache: dict[int, dict[str, np.ndarray]],
    ) -> None:
        """Run :meth:`infer`'s step loop over one column tile of the batch.

        ``out`` is the tile's slice of the call's result: ``(T, U, width)``
        for a sequence layer, which each step writes ``h_t`` into, or
        ``(width, U)`` for a final-state layer, written once at the end.
        ``cache`` holds the workspaces by width; tiles of equal width
        share one, so the state is zeroed per tile.
        """
        width, timesteps, _ = inputs.shape
        ws = self._infer_workspace(width, cache)
        recurrent = packed["recurrent"]
        z, h, c, tanh_c = ws["z"], ws["h"], ws["c"], ws["tanh_c"]
        h.fill(0.0)
        c.fill(0.0)
        if invariant:
            z_once = ws.get("z_once")
            if z_once is None:
                z_once = ws["z_once"] = np.empty_like(z)
            self._project(inputs[:, 0, :], packed, z_once)

        for t in range(timesteps):
            if invariant:
                np.copyto(z, z_once)
            else:
                self._project(inputs[:, t, :], packed, z)
            # Fused step: recurrent matmul + gate activations + state
            # update, one backend kernel.  A sequence layer writes h_t
            # into out[t] and reads h_{t-1} from out[t - 1].
            h_out = out[t] if self.return_sequences else h
            bk.lstm_step(z, h, c, c, h_out, tanh_c, recurrent, ws)
            h = h_out

        if not self.return_sequences:
            out[...] = h.T

    @staticmethod
    def _project(x: np.ndarray, packed: dict[str, np.ndarray], z: np.ndarray) -> None:
        """Write ``x @ kernel + bias`` gate-major into ``z`` (``(4U, batch)``).

        ``x`` is one step's ``(batch, features)`` input, any view BLAS
        takes.  With one feature the product is an outer product, which
        numpy's matmul computes outside BLAS with one rounding per
        element; ``np.multiply`` gives the same bits without the matmul
        dispatch.
        """
        if x.shape[1] == 1:
            np.multiply(packed["kernel_t"], x.T, out=z)
        else:
            np.matmul(x, packed["kernel"], out=z.T)
        z += packed["bias"][:, None]

    # -- computation ----------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        inputs = self._cast(inputs)
        if inputs.ndim != 3:
            raise ValueError(
                f"LSTM expects (batch, timesteps, features) input, got {inputs.shape}"
            )
        bk = backends.resolve_backend(self.backend)
        batch, timesteps, features = inputs.shape
        units = self.units
        packed = self._refresh_packed()
        ws = self._workspace(batch, timesteps)

        # Input contribution for every timestep in one matmul, written
        # gate-major: z.reshape(4U, T * B) is the transposed view of the
        # (T * B, 4U) product.
        x_tm = ws["x_tm"]
        x_tm[...] = inputs.transpose(1, 0, 2)
        z = ws["z"]
        np.matmul(
            x_tm.reshape(timesteps * batch, features),
            packed["kernel"],
            out=z.reshape(4 * units, timesteps * batch).T,
        )
        z += packed["bias"][:, None, None]

        hs, cs, tanh_cs = ws["hs"], ws["cs"], ws["tanh_cs"]
        recurrent = packed["recurrent"]
        h = ws["state0"]  # never written: stays all-zero for reuse
        c = ws["state0"]

        for t in range(timesteps):
            # Fused step (backend-dispatched, resolved once above): the
            # recurrent matmul, gate activations (written back into z for
            # the BPTT cache) and the state update into cs/hs/tanh_cs.
            # hs stays row-major; the step writes it through hs[t].T.
            h_out = hs[t].T
            bk.lstm_step(z[:, t], h, c, cs[t], h_out, tanh_cs[t], recurrent, ws)
            h = h_out
            c = cs[t]

        self._cache = {"inputs": inputs, "ws": ws, "shape": (batch, timesteps, features)}
        # Fresh output array: callers may hold results across calls while
        # the workspaces are recycled.
        if self.return_sequences:
            out = np.empty((batch, timesteps, units), dtype=self.dtype)
            out[...] = hs.transpose(1, 0, 2)
            return out
        return hs[timesteps - 1].copy()

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise RuntimeError("backward called before forward")
        inputs: np.ndarray = self._cache["inputs"]  # type: ignore[assignment]
        ws: dict[str, np.ndarray] = self._cache["ws"]  # type: ignore[assignment]
        batch, timesteps, features = self._cache["shape"]  # type: ignore[misc]
        units = self.units
        packed = self._refresh_packed()

        grad = self._cast(grad)
        if self.return_sequences:
            expected = (batch, timesteps, units)
            if grad.shape != expected:
                raise ValueError(f"gradient shape {grad.shape} != output shape {expected}")
            grad_tm = grad.transpose(1, 0, 2)  # view, read-only use
        else:
            expected = (batch, units)
            if grad.shape != expected:
                raise ValueError(f"gradient shape {grad.shape} != output shape {expected}")
            grad_tm = None

        z, hs, cs, tanh_cs = ws["z"], ws["hs"], ws["cs"], ws["tanh_cs"]
        dz_all, gi_tm = ws["dz"], ws["gi_tm"]
        dh, dh_next = ws["dh"], ws["dh_next"]
        dc, dc_next = ws["dc"], ws["dc_next"]
        do = ws["do"]
        tmp = ws["tmp_u"]
        zeros_state = ws["state0"]
        kernel_t = packed["kernel_t"]
        recurrent_t = packed["recurrent_t"]
        dh_next.fill(0.0)
        dc_next.fill(0.0)

        for t in range(timesteps - 1, -1, -1):
            z_t = z[:, t]
            i = z_t[:units]
            f = z_t[units : 2 * units]
            o = z_t[2 * units : 3 * units]
            g = z_t[3 * units :]
            tanh_c = tanh_cs[t]
            c_prev = cs[t - 1] if t > 0 else zeros_state

            if grad_tm is not None:
                np.add(grad_tm[t].T, dh_next.T, out=dh)
            elif t == timesteps - 1:
                np.add(grad.T, dh_next.T, out=dh)
            else:
                dh[...] = dh_next.T

            # do = dh * tanh_c
            np.multiply(dh, tanh_c, out=do)
            # dc = dh * o * (1 - tanh_c^2) + dc_next
            np.multiply(tanh_c, tanh_c, out=dc)
            np.subtract(1.0, dc, out=dc)
            dc *= o
            dc *= dh
            dc += dc_next

            # Gate gradients go straight into the row-major staging row
            # through its gate-major view: the BLAS calls below read it.
            dz_t = dz_all[t]
            dz_gm = dz_t.T
            dz_i = dz_gm[:units]
            dz_f = dz_gm[units : 2 * units]
            dz_o = dz_gm[2 * units : 3 * units]
            dz_g = dz_gm[3 * units :]
            # dz_i = (dc * g) * i * (1 - i)
            np.multiply(dc, g, out=tmp)
            np.subtract(1.0, i, out=dz_i)
            dz_i *= i
            dz_i *= tmp
            # dz_f = (dc * c_prev) * f * (1 - f)
            np.multiply(dc, c_prev, out=tmp)
            np.subtract(1.0, f, out=dz_f)
            dz_f *= f
            dz_f *= tmp
            # dz_o = do * o * (1 - o)
            np.subtract(1.0, o, out=dz_o)
            dz_o *= o
            dz_o *= do
            # dz_g = (dc * i) * (1 - g^2)
            np.multiply(g, g, out=dz_g)
            np.subtract(1.0, dz_g, out=dz_g)
            dz_g *= i
            dz_g *= dc
            # dc_next = dc * f (before dc is reused next iteration)
            np.multiply(dc, f, out=dc_next)

            np.matmul(dz_t, recurrent_t, out=dh_next)
            np.matmul(dz_t, kernel_t, out=gi_tm[t])

        # Parameter gradients in bulk matmuls over the flattened time axis,
        # staged in packed gate order then scattered to the public layout.
        perm = self._perm
        flat_dz = dz_all.reshape(timesteps * batch, 4 * units)
        np.matmul(flat_dz.T, ws["x_tm"].reshape(timesteps * batch, features),
                  out=self._pg_kernel)
        self._kernel.grad[:, perm] += self._pg_kernel.T
        np.sum(flat_dz, axis=0, out=self._pg_bias)
        self._bias.grad[perm] += self._pg_bias
        # Recurrent gradient pairs h_{t-1} with dz_t; h_{-1} is zero.
        if timesteps > 1:
            np.matmul(
                dz_all[1:].reshape((timesteps - 1) * batch, 4 * units).T,
                hs[:-1].reshape((timesteps - 1) * batch, units),
                out=self._pg_recurrent,
            )
            self._recurrent.grad[:, perm] += self._pg_recurrent.T

        grad_inputs = np.empty_like(inputs)
        grad_inputs[...] = gi_tm.transpose(1, 0, 2)
        return grad_inputs

    def get_config(self) -> dict:
        config = super().get_config()
        config.update(
            units=self.units,
            return_sequences=self.return_sequences,
            unit_forget_bias=self.unit_forget_bias,
            kernel_initializer=self.kernel_initializer,
            recurrent_initializer=self.recurrent_initializer,
        )
        return config
