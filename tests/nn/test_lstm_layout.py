"""Parity of the gate-major LSTM with a row-major reference step.

The layer keeps its gates gate-major — ``(4U, batch)`` per step — so
each gate is a contiguous row block.  The oracle below is the row-major
formulation it replaced: ``(batch, 4U)`` gates, the same packed
``(i, f, o, g)`` order, the same ufunc sequence and the same BLAS
operands.  The two agree on ``infer``, ``forward`` and every gradient
``backward`` produces.

They agree bit for bit exactly when BLAS returns the same bits for a
row-major product and the transposed-view form the layer writes
(``matmul(h.T, W, out=hz.T)``).  That is a property of the BLAS kernel,
not of the layer: OpenBLAS's AVX-512 (SkylakeX) kernels give it for
short contractions, its AVX2 (Haswell, Zen) kernels do not even at 8
units.  So each case first probes the products the layer makes; where
BLAS agrees, the layer must match the oracle bit for bit, elsewhere to
float rounding.

The layer is pinned to the numpy backend: the oracle is the numpy
reference, and the numba backend is only tolerance-equal to it.

``infer`` also takes its input in every memory layout a model hands it —
a contiguous batch, an upstream LSTM's gate-major view, RepeatVector's
stride-0 broadcast, sliced and reversed batches — and whole autoencoders
match the oracle chained layer by layer.

The oracle's sigmoid is a frozen copy of the masked expression the
layer used to run, independent of :mod:`repro.nn.activations`; property
tests hold the layer's ``sigmoid_inplace`` and ``sigmoid`` to it bit for
bit on every float edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.anomaly.autoencoder import AutoencoderConfig, build_autoencoder
from repro.nn import Sequential
from repro.nn.activations import sigmoid, sigmoid_inplace
from repro.nn.layers import LSTM, Dropout, RepeatVector, TimeDistributed

BATCHES = (1, 2, 3, 7, 64, 300)
UNITS = (1, 4, 8, 50)
FEATURES = (1, 3)
DTYPES = ("float32", "float64")
TIMESTEPS = 5


# ---------------------------------------------------------------------------
# Row-major oracle: gates are (batch, 4U), state is (batch, U).
# ---------------------------------------------------------------------------


def _packed(layer):
    perm = layer._perm
    return (
        np.take(layer.variables[0].value, perm, axis=1),
        np.take(layer.variables[1].value, perm, axis=1),
        np.take(layer.variables[2].value, perm, axis=0),
    )


def _masked_sigmoid_inplace(x):
    """Frozen stabilised sigmoid: a mask picks the numerator per sign."""
    work = np.empty(x.shape, dtype=x.dtype)
    numerator = np.empty(x.shape, dtype=x.dtype)
    negative = np.empty(x.shape, dtype=bool)
    np.less(x, 0.0, out=negative)
    np.abs(x, out=work)
    np.negative(work, out=work)
    np.exp(work, out=work)              # e^{-|x|}, in (0, 1]
    numerator.fill(1.0)
    np.copyto(numerator, work, where=negative)
    np.add(work, 1.0, out=x)            # denominator 1 + e^{-|x|}
    np.divide(numerator, x, out=x)


def _row_major_step(z, h_prev, c_prev, recurrent, units):
    """One step on a (batch, 4U) gate buffer; returns (c, h, tanh_c)."""
    hz = np.matmul(h_prev, recurrent)
    z += hz
    _masked_sigmoid_inplace(z[:, : 3 * units])
    g = z[:, 3 * units :]
    np.tanh(g, out=g)
    i, f, o = z[:, :units], z[:, units : 2 * units], z[:, 2 * units : 3 * units]
    c = np.multiply(f, c_prev)
    c += np.multiply(i, g)
    tanh_c = np.tanh(c)
    return c, np.multiply(o, tanh_c), tanh_c


def oracle_infer(layer, x):
    kernel, recurrent, bias = _packed(layer)
    batch, timesteps, _ = x.shape
    units = layer.units
    h = np.zeros((batch, units), dtype=layer.dtype)
    c = np.zeros((batch, units), dtype=layer.dtype)
    seq = []
    for t in range(timesteps):
        z = np.matmul(np.ascontiguousarray(x[:, t, :]), kernel)
        z += bias
        c, h, _ = _row_major_step(z, h, c, recurrent, units)
        seq.append(h)
    return np.stack(seq, axis=1) if layer.return_sequences else h


def oracle_forward(layer, x):
    """Row-major training forward; returns (output, BPTT cache)."""
    kernel, recurrent, bias = _packed(layer)
    batch, timesteps, features = x.shape
    units = layer.units
    x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
    z = np.matmul(x_tm.reshape(timesteps * batch, features), kernel)
    z = z.reshape(timesteps, batch, 4 * units)
    z += bias
    h = c = np.zeros((batch, units), dtype=layer.dtype)
    hs, cs, tanh_cs = [], [], []
    for t in range(timesteps):
        c, h, tanh_c = _row_major_step(z[t], h, c, recurrent, units)
        hs.append(h)
        cs.append(c)
        tanh_cs.append(tanh_c)
    hs, cs, tanh_cs = np.stack(hs), np.stack(cs), np.stack(tanh_cs)
    out = np.ascontiguousarray(hs.transpose(1, 0, 2)) if layer.return_sequences else hs[-1]
    return out, (x_tm, z, hs, cs, tanh_cs)


def oracle_backward(layer, cache, grad):
    """Row-major BPTT; returns (input grad, kernel, recurrent, bias grads)."""
    x_tm, z, hs, cs, tanh_cs = cache
    kernel, recurrent, _ = _packed(layer)
    kernel_t = np.ascontiguousarray(kernel.T)
    recurrent_t = np.ascontiguousarray(recurrent.T)
    timesteps, batch, features = x_tm.shape
    units = layer.units
    grad_tm = grad.transpose(1, 0, 2) if layer.return_sequences else None
    dz_all = np.empty((timesteps, batch, 4 * units), dtype=layer.dtype)
    gi_tm = np.empty((timesteps, batch, features), dtype=layer.dtype)
    dh_next = np.zeros((batch, units), dtype=layer.dtype)
    dc_next = np.zeros((batch, units), dtype=layer.dtype)
    for t in range(timesteps - 1, -1, -1):
        i, f = z[t][:, :units], z[t][:, units : 2 * units]
        o, g = z[t][:, 2 * units : 3 * units], z[t][:, 3 * units :]
        tanh_c = tanh_cs[t]
        c_prev = cs[t - 1] if t > 0 else np.zeros_like(dh_next)
        if grad_tm is not None:
            dh = np.add(grad_tm[t], dh_next)
        elif t == timesteps - 1:
            dh = np.add(grad, dh_next)
        else:
            dh = dh_next.copy()
        do = np.multiply(dh, tanh_c)
        dc = np.multiply(tanh_c, tanh_c)
        np.subtract(1.0, dc, out=dc)
        dc *= o
        dc *= dh
        dc += dc_next
        dz = dz_all[t]
        dz_i, dz_f = dz[:, :units], dz[:, units : 2 * units]
        dz_o, dz_g = dz[:, 2 * units : 3 * units], dz[:, 3 * units :]
        tmp = np.multiply(dc, g)
        np.subtract(1.0, i, out=dz_i)
        dz_i *= i
        dz_i *= tmp
        tmp = np.multiply(dc, c_prev)
        np.subtract(1.0, f, out=dz_f)
        dz_f *= f
        dz_f *= tmp
        np.subtract(1.0, o, out=dz_o)
        dz_o *= o
        dz_o *= do
        np.multiply(g, g, out=dz_g)
        np.subtract(1.0, dz_g, out=dz_g)
        dz_g *= i
        dz_g *= dc
        dc_next = np.multiply(dc, f)
        dh_next = np.matmul(dz, recurrent_t)
        np.matmul(dz, kernel_t, out=gi_tm[t])

    perm = layer._perm
    flat_dz = dz_all.reshape(timesteps * batch, 4 * units)
    d_kernel = np.zeros_like(layer.variables[0].value)
    d_recurrent = np.zeros_like(layer.variables[1].value)
    d_bias = np.zeros_like(layer.variables[2].value)
    d_kernel[:, perm] += np.matmul(flat_dz.T, x_tm.reshape(timesteps * batch, features)).T
    d_bias[perm] += np.sum(flat_dz, axis=0)
    if timesteps > 1:
        d_recurrent[:, perm] += np.matmul(
            dz_all[1:].reshape((timesteps - 1) * batch, 4 * units).T,
            hs[:-1].reshape((timesteps - 1) * batch, units),
        ).T
    return np.ascontiguousarray(gi_tm.transpose(1, 0, 2)), d_kernel, d_recurrent, d_bias


# ---------------------------------------------------------------------------


def _layer(units, features, dtype, return_sequences):
    rng = np.random.default_rng(units * 1000 + features)
    layer = LSTM(units, return_sequences=return_sequences)
    layer.dtype = np.dtype(dtype)
    layer.build((TIMESTEPS, features), rng)
    layer.backend = "numpy"
    for variable in layer.variables:  # non-trivial bias, larger gate range
        variable.assign(rng.normal(size=variable.value.shape, scale=0.6))
    return layer


def _blas_transposes_exactly(layer, batch):
    """Whether BLAS gives the row-major bits for the layer's transposed forms.

    Probes the three products the layer makes — the per-step and the
    all-timesteps input projections, and the recurrent term — with the
    output written through a transposed view, and the left operand
    C-ordered, F-ordered, and C-ordered with a row stride wider than a
    row (``forward`` and ``infer`` pass each: ``infer`` projects each
    step from a view of the whole input).
    """
    rng = np.random.default_rng(0)
    kernel, recurrent, _ = _packed(layer)
    for rows, weights in (
        (batch, kernel),
        (TIMESTEPS * batch, kernel),
        (batch, recurrent),
    ):
        a = rng.normal(size=(rows, weights.shape[0])).astype(layer.dtype)
        want = np.matmul(a, weights)
        padded = np.zeros((rows, 3 * a.shape[1]), dtype=layer.dtype)[:, : a.shape[1]]
        padded[...] = a
        for operand in (a, np.asfortranarray(a), padded):
            got = np.empty((weights.shape[1], rows), dtype=layer.dtype).T
            np.matmul(operand, weights, out=got)
            if not np.array_equal(got, want):
                return False
    return True


def _assert_same(got, want, exact):
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        tol = 1e-5 if got.dtype == np.float32 else 1e-12
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("features", FEATURES)
@pytest.mark.parametrize("units", UNITS)
@pytest.mark.parametrize("return_sequences", [False, True])
class TestGateMajorMatchesRowMajorOracle:
    def test_infer(self, return_sequences, units, features, dtype):
        layer = _layer(units, features, dtype, return_sequences)
        rng = np.random.default_rng(7)
        for batch in BATCHES:
            x = rng.normal(size=(batch, TIMESTEPS, features), scale=1.5).astype(dtype)
            exact = _blas_transposes_exactly(layer, batch)
            _assert_same(layer.infer(x), oracle_infer(layer, x), exact)

    def test_forward_and_backward(self, return_sequences, units, features, dtype):
        layer = _layer(units, features, dtype, return_sequences)
        rng = np.random.default_rng(11)
        for batch in BATCHES:
            x = rng.normal(size=(batch, TIMESTEPS, features), scale=1.5).astype(dtype)
            want_out, cache = oracle_forward(layer, x)
            exact = _blas_transposes_exactly(layer, batch)
            _assert_same(layer.forward(x), want_out, exact)

            grad = rng.normal(size=want_out.shape).astype(dtype)
            layer.zero_grads()
            got_input = layer.backward(grad)
            want = oracle_backward(layer, cache, grad)
            _assert_same(got_input, want[0], exact)
            for variable, want_grad in zip(layer.variables, want[1:], strict=True):
                _assert_same(variable.grad, want_grad, exact)


# ---------------------------------------------------------------------------
# Input forms: every memory layout a model hands an LSTM.
# ---------------------------------------------------------------------------

INPUT_FORMS = ("contiguous", "gate_major", "repeated", "batch_sliced", "batch_reversed")


def _input_form(form, batch, features, dtype, rng):
    """A ``(batch, TIMESTEPS, features)`` input in the layout ``form`` names."""
    if form == "gate_major":
        upstream = _layer(features, 2, dtype, return_sequences=True)
        x = upstream.infer(rng.normal(size=(batch, TIMESTEPS, 2), scale=1.5).astype(dtype))
        assert x.strides[0] == x.itemsize, "a (B, T, U) view of a (T, U, B) array"
        return x
    if form == "repeated":
        bridge = RepeatVector(TIMESTEPS)
        bridge.dtype = np.dtype(dtype)
        bridge.build((features,), rng)
        x = bridge.infer(rng.normal(size=(batch, features), scale=1.5).astype(dtype))
        assert x.strides[1] == 0
        return x
    x = rng.normal(size=(2 * batch, TIMESTEPS, features), scale=1.5).astype(dtype)
    if form == "contiguous":
        return x[:batch]
    if form == "batch_sliced":
        return x[::2]
    assert form == "batch_reversed"
    return x[:batch][::-1]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("features", FEATURES)
@pytest.mark.parametrize("units", (4, 50))
@pytest.mark.parametrize("form", INPUT_FORMS)
@pytest.mark.parametrize("return_sequences", [False, True])
def test_infer_matches_oracle_on_every_input_form(return_sequences, form, units, features, dtype):
    layer = _layer(units, features, dtype, return_sequences)
    rng = np.random.default_rng(13)
    for batch in BATCHES:
        x = _input_form(form, batch, features, dtype, rng)
        exact = _blas_transposes_exactly(layer, batch)
        _assert_same(layer.infer(x), oracle_infer(layer, x), exact)


def _workspace_buffers(layers):
    return [
        buffer
        for layer in layers
        if isinstance(layer, LSTM)
        for ws in layer._infer_workspaces.values()
        for buffer in ws.values()
    ]


@pytest.mark.parametrize("return_sequences", [False, True])
def test_infer_result_survives_the_next_call(return_sequences):
    layer = _layer(4, 3, "float32", return_sequences)
    rng = np.random.default_rng(17)
    first, second = (
        rng.normal(size=(7, TIMESTEPS, 3)).astype("float32") for _ in range(2)
    )
    held = layer.infer(first)
    kept = held.copy()
    layer.infer(second)
    np.testing.assert_array_equal(held, kept)
    assert held.flags.writeable
    held[...] = 0.0  # the caller owns it
    assert not any(np.shares_memory(held, b) for b in _workspace_buffers([layer]))


# ---------------------------------------------------------------------------
# Whole models against the oracle chained layer by layer.
# ---------------------------------------------------------------------------

PROFILES = {
    "perfbench-8-4-4-8": AutoencoderConfig(
        sequence_length=12, encoder_units=(8, 4), decoder_units=(4, 8)
    ),
    "paper-50-25": AutoencoderConfig(),
}


def oracle_chain(model, x):
    """Row-major LSTMs, materialised repeats and contiguous folds."""
    out = x
    for layer in model.layers:
        if isinstance(layer, LSTM):
            out = oracle_infer(layer, out)
        elif isinstance(layer, RepeatVector):
            out = np.repeat(out[:, None, :], layer.n, axis=1)
        elif isinstance(layer, TimeDistributed):
            batch, timesteps, features = out.shape
            folded = np.ascontiguousarray(out).reshape(batch * timesteps, features)
            out = layer.inner.forward(folded).reshape(batch, timesteps, -1)
        else:
            assert isinstance(layer, Dropout)
    return out


@pytest.mark.parametrize("profile", PROFILES)
def test_autoencoder_infer_and_predict_match_oracle_chain(profile):
    config = PROFILES[profile]
    model = build_autoencoder(config, seed=3)
    model.set_backend("numpy")
    rng = np.random.default_rng(19)
    for layer in model.layers:  # non-trivial biases, wider gate range
        for variable in layer.variables:
            variable.assign(variable.value + rng.normal(size=variable.value.shape, scale=0.3))
    lstms = [layer for layer in model.layers if isinstance(layer, LSTM)]
    for batch in (1, 7, 64, 300):
        x = rng.uniform(size=(batch, config.sequence_length, 1)).astype(model.dtype)
        want = oracle_chain(model, x)
        exact = all(_blas_transposes_exactly(layer, batch) for layer in lstms)
        _assert_same(model.infer(x), want, exact)
        _assert_same(model.predict(x, batch_size=batch), want, exact)


@pytest.mark.parametrize(
    "layers,input_shape",
    [
        (lambda: [LSTM(3), RepeatVector(4)], (5, 2)),
        (lambda: [RepeatVector(4)], (3,)),
        (lambda: [LSTM(3, return_sequences=True)], (5, 2)),
    ],
    ids=["lstm-repeat", "repeat-only", "sequence-lstm"],
)
def test_predict_and_infer_return_fresh_writable_arrays(layers, input_shape):
    model = Sequential(layers())
    model.build(input_shape, seed=0)
    rng = np.random.default_rng(23)
    first, second = (
        rng.normal(size=(6,) + input_shape).astype(model.dtype) for _ in range(2)
    )
    for run in (model.predict, model.infer):
        held = run(first)
        kept = held.copy()
        run(second)
        np.testing.assert_array_equal(held, kept)
        assert held.flags.writeable
        assert not np.shares_memory(held, first)
        assert not any(np.shares_memory(held, b) for b in _workspace_buffers(model.layers))


# ---------------------------------------------------------------------------
# Sigmoid: the layer's expression against the frozen masked one, bit for bit.
# ---------------------------------------------------------------------------


def _indexed_sigmoid(x):
    """Frozen allocating sigmoid: boolean indexing picks each sign's form."""
    x = np.asarray(x)
    dtype = x.dtype if x.dtype in (np.float32, np.float64) else np.float64
    out = np.empty_like(x, dtype=dtype)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def _edge_floats(dtype):
    """Any float of ``dtype``, weighted to ±0, ±inf, NaN, subnormals and
    the range where ``exp(-|x|)`` underflows through the subnormals."""
    info = np.finfo(dtype)
    width = info.bits
    lo, hi = (87.0, 104.0) if width == 32 else (708.0, 746.0)
    edges = [
        float(v)
        for m in (info.smallest_subnormal, info.tiny, info.max, 1.0)
        for v in (m, -m)
    ]
    return st.one_of(
        st.sampled_from(edges + [0.0, -0.0, np.inf, -np.inf, np.nan]),
        st.floats(width=width),
        st.floats(min_value=lo, max_value=hi, width=width).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        st.floats(min_value=-20.0, max_value=20.0, width=width),
    )


def _assert_same_bits(got, want):
    """Equal dtype, shape and bytes; NaN compared by position, not payload."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


FLOAT_DTYPES = st.sampled_from([np.float32, np.float64])
SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=40)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=FLOAT_DTYPES)
def test_sigmoid_inplace_matches_frozen_masked_expression(data, dtype):
    x = data.draw(hnp.arrays(dtype, SHAPES, elements=_edge_floats(dtype)))
    want = x.copy()
    _masked_sigmoid_inplace(want)
    got = x.copy()
    sigmoid_inplace(got, np.empty_like(got))
    _assert_same_bits(got, want)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    dtype=FLOAT_DTYPES,
    units=st.integers(1, 8),
    timesteps=st.integers(1, 4),
    batch=st.integers(1, 24),
)
def test_sigmoid_inplace_on_a_training_gate_row(data, dtype, units, timesteps, batch):
    """The training forward activates z[:3U, t] of a (4U, T, B) cache in
    place, with the recurrent product's rows as scratch; nothing outside
    that strided row block moves."""
    z = data.draw(hnp.arrays(dtype, (4 * units, timesteps, batch), elements=_edge_floats(dtype)))
    t = data.draw(st.integers(0, timesteps - 1))
    want = z.copy()
    _masked_sigmoid_inplace(want[: 3 * units, t])
    got = z.copy()
    hz = np.empty((4 * units, batch), dtype=dtype)
    sigmoid_inplace(got[: 3 * units, t], hz[: 3 * units])
    _assert_same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64, np.int32, np.int64]))
def test_sigmoid_matches_frozen_indexed_sigmoid(data, dtype):
    """Same bits and dtype (float64 for integer input), 0-d included; the
    input is left as it was."""
    elements = _edge_floats(dtype) if np.dtype(dtype).kind == "f" else None
    x = data.draw(hnp.arrays(dtype, SHAPES, elements=elements))
    kept = x.copy()
    got = sigmoid(x)
    _assert_same_bits(got, _indexed_sigmoid(x))
    np.testing.assert_array_equal(x, kept)
