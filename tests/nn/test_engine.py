"""Fused-engine regression tests: precision parity and allocation behaviour.

Two contracts of the compute engine:

* float32 and float64 policies compute the *same function* — forward
  passes agree to single-precision tolerance and the float32 backward
  pass survives a tolerance-scaled finite-difference gradcheck; and
* the fused LSTM hot loops are allocation-free — repeated calls reuse
  the per-layer workspaces instead of growing per-call allocations.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn import LSTM, Dense, Dropout, MeanSquaredError, Sequential, TimeDistributed
from repro.nn.gradcheck import check_model_gradients

RNG = np.random.default_rng(123)


def _twin_models(layers_factory, input_shape, seed=5):
    """The same architecture built under float32 and float64."""
    m32 = Sequential(layers_factory(), dtype="float32")
    m32.build(input_shape, seed=seed)
    m64 = Sequential(layers_factory(), dtype="float64")
    m64.build(input_shape, seed=seed)
    return m32, m64


class TestPrecisionParity:
    def test_weight_init_is_cast_identical(self):
        m32, m64 = _twin_models(lambda: [LSTM(6), Dense(2)], (8, 2))
        for w32, w64 in zip(m32.get_weights(), m64.get_weights(), strict=True):
            np.testing.assert_array_equal(w32, w64.astype(np.float32))

    def test_lstm_forward_parity(self):
        m32, m64 = _twin_models(lambda: [LSTM(8, return_sequences=True)], (10, 3))
        x = RNG.normal(size=(4, 10, 3))
        out32 = m32.forward(x)
        out64 = m64.forward(x)
        assert out32.dtype == np.float32 and out64.dtype == np.float64
        np.testing.assert_allclose(out32, out64, rtol=2e-5, atol=2e-6)

    def test_dense_forward_parity(self):
        m32, m64 = _twin_models(lambda: [Dense(16, activation="tanh"), Dense(3)], (7,))
        x = RNG.normal(size=(32, 7))
        np.testing.assert_allclose(m32.forward(x), m64.forward(x), rtol=2e-5, atol=2e-6)

    def test_dropout_mask_pattern_is_policy_independent(self):
        # Same build seed => identical drop pattern under both dtypes.
        m32, m64 = _twin_models(lambda: [Dropout(0.4)], (50,), seed=11)
        x = np.ones((6, 50))
        out32 = m32.forward(x, training=True)
        out64 = m64.forward(x, training=True)
        np.testing.assert_array_equal(out32 == 0.0, out64 == 0.0)

    def test_backward_parity(self):
        m32, m64 = _twin_models(lambda: [LSTM(6), Dense(1)], (9, 2))
        x = RNG.normal(size=(5, 9, 2))
        y = RNG.normal(size=(5, 1))
        loss = MeanSquaredError()
        grads = []
        for model in (m32, m64):
            predictions = model.forward(x)
            model.zero_grads()
            model.backward(loss.gradient(y, predictions))
            grads.append([v.grad.copy() for v in model.trainable_variables])
        for g32, g64 in zip(*grads, strict=True):
            np.testing.assert_allclose(g32, g64, rtol=5e-4, atol=1e-6)

    @pytest.mark.parametrize(
        "layers_factory,input_shape,batch",
        [
            (lambda: [LSTM(5), Dense(1)], (7, 2), (4, 7, 2)),
            (lambda: [Dense(6, activation="relu"), Dense(1)], (4,), (8, 4)),
            (lambda: [Dropout(0.0), Dense(4, activation="tanh"), Dense(1)], (3,), (6, 3)),
        ],
    )
    def test_float32_gradcheck_with_scaled_tolerance(self, layers_factory, input_shape, batch):
        """Central differences under float32: bigger epsilon, looser bar."""
        model = Sequential(layers_factory(), dtype="float32")
        model.build(input_shape, seed=3)
        rng = np.random.default_rng(9)
        x = rng.normal(size=batch) + 0.1
        y = rng.normal(size=(batch[0], 1))
        worst = check_model_gradients(
            model, x, y, MeanSquaredError(), epsilon=1e-2, max_entries_per_variable=8
        )
        assert worst < 5e-2


class TestAllocationFreeLSTM:
    def _warmed_layer(self, return_sequences=False):
        layer = LSTM(8, return_sequences=return_sequences)
        layer.build((12, 3), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(16, 12, 3)).astype(layer.dtype)
        for _ in range(3):
            layer.forward(x)
        return layer, x

    def test_forward_reuses_workspace_buffers(self):
        layer, x = self._warmed_layer()
        ws_before = {k: id(v) for k, v in next(iter(layer._workspaces.values())).items()}
        layer.forward(x)
        ws_after = {k: id(v) for k, v in next(iter(layer._workspaces.values())).items()}
        assert ws_before == ws_after, "workspace buffers must be reused across calls"

    def test_backward_reuses_workspace_and_fills_grads(self):
        layer, x = self._warmed_layer()
        layer.zero_grads()
        grad_in_1 = layer.backward(np.ones((16, 8), dtype=layer.dtype))
        ws_ids = {k: id(v) for k, v in next(iter(layer._workspaces.values())).items()}
        layer.forward(x)
        layer.backward(np.ones((16, 8), dtype=layer.dtype))
        ws_ids_after = {k: id(v) for k, v in next(iter(layer._workspaces.values())).items()}
        assert ws_ids == ws_ids_after
        assert grad_in_1.shape == x.shape
        assert all(np.any(v.grad != 0) for v in layer.variables)

    def test_forward_allocations_do_not_grow_per_call(self):
        layer, x = self._warmed_layer(return_sequences=True)
        out_bytes = 16 * 12 * 8 * np.dtype(layer.dtype).itemsize  # fresh output array
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        results = []
        for _ in range(10):
            results.append(layer.forward(x))
            results.pop()  # outputs are freed immediately; workspaces persist
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Steady state: no retained growth beyond (at most) one output's
        # worth of slack from the allocator.
        assert current - baseline < 2 * out_bytes

    def test_wide_infer_batches_cache_only_tile_width_workspaces(self):
        """A batch of 2 * _TILE windows or more runs in column tiles, so no
        cached workspace is as wide as the batch."""
        from repro.nn.layers.lstm import _TILE

        units = 2
        layer = LSTM(units, return_sequences=True)
        layer.build((4, 1), np.random.default_rng(0))
        for batch in (3 * _TILE + 5, 2 * _TILE + 1):
            layer.infer(np.zeros((batch, 4, 1), dtype=layer.dtype))
        assert layer._infer_workspaces
        for width, ws in layer._infer_workspaces.items():
            assert width < 2 * _TILE
            assert sum(a.size for a in ws.values()) == 12 * units * width

    @pytest.mark.parametrize("units,batch", [(1, 1), (4, 7), (8, 8000)])
    def test_infer_workspace_holds_twelve_floats_per_unit_and_row(self, units, batch):
        """z and hz hold 4U rows each; h, c, tanh_c and tmp_u one U each.
        The sigmoid borrows hz as scratch, so no mask or extra buffer."""
        layer = LSTM(units)
        layer.build((3, 1), np.random.default_rng(0))
        ws = layer._infer_workspace(batch, layer._infer_workspaces)
        assert sum(a.size for a in ws.values()) == 12 * units * batch
        assert all(a.dtype == layer.dtype for a in ws.values())

    def test_training_workspace_has_no_sigmoid_scratch(self):
        layer, _ = self._warmed_layer()
        ws = next(iter(layer._workspaces.values()))
        assert not [key for key in ws if key.startswith("sig_")]
        assert all(a.dtype != bool for a in ws.values())

    def test_workspace_count_is_bounded_with_lru_eviction(self):
        from repro.nn.layers.lstm import _MAX_WORKSPACES

        layer = LSTM(4)
        layer.build((6, 1), np.random.default_rng(0))
        hot = np.zeros((1, 6, 1), dtype=layer.dtype)
        layer.forward(hot)
        hot_buffers = {k: id(v) for k, v in layer._workspaces[(1, 6)].items()}
        for batch in range(2, 2 * _MAX_WORKSPACES + 2):
            layer.forward(np.zeros((batch, 6, 1), dtype=layer.dtype))
            layer.forward(hot)  # keep the steady-state shape hot
        assert len(layer._workspaces) <= _MAX_WORKSPACES
        # LRU: transient batch-size churn must not evict the hot shape.
        assert {k: id(v) for k, v in layer._workspaces[(1, 6)].items()} == hot_buffers

    def test_infer_workspace_count_is_bounded_with_lru_eviction(self):
        from repro.nn.layers.lstm import _MAX_WORKSPACES

        layer = LSTM(4)
        layer.build((6, 1), np.random.default_rng(0))
        hot = np.zeros((1, 6, 1), dtype=layer.dtype)
        layer.infer(hot)
        hot_buffers = {k: id(v) for k, v in layer._infer_workspaces[1].items()}
        for batch in range(2, 2 * _MAX_WORKSPACES + 2):
            layer.infer(np.zeros((batch, 6, 1), dtype=layer.dtype))
            layer.infer(hot)  # keep the steady-state width hot
        assert len(layer._infer_workspaces) <= _MAX_WORKSPACES
        # LRU: ragged widths must not evict the hot width.
        assert {k: id(v) for k, v in layer._infer_workspaces[1].items()} == hot_buffers

    def test_packed_kernels_refresh_on_weight_mutation(self):
        layer, x = self._warmed_layer()
        before = layer.forward(x).copy()
        # Mutate through assign (version bump) — output must change.
        kernel = layer.variables[0]
        kernel.assign(kernel.value * 2.0)
        after = layer.forward(x)
        assert not np.allclose(before, after)
        # Mutate through a raw view + touch(): same contract.
        raw = layer.forward(x).copy()
        kernel.value[...] = kernel.value / 2.0
        kernel.touch()
        np.testing.assert_allclose(layer.forward(x), before, rtol=1e-6)
        assert not np.allclose(raw, before)



class TestTransientWorkspaces:
    """``Sequential.transient_workspaces``: a one-off pass pins nothing."""

    @staticmethod
    def _model():
        model = Sequential([LSTM(4, return_sequences=True), Dense(3), LSTM(2)])
        model.build((6, 1), seed=0)
        return model

    def test_scope_reaches_an_lstm_inside_time_distributed(self):
        # Never built: TimeDistributed folds time into the batch, which
        # an LSTM cannot take, but the scope must still reach it.
        wrapped = TimeDistributed(LSTM(3))
        model = Sequential([LSTM(4, return_sequences=True), wrapped])
        with model.transient_workspaces():
            assert model.layers[0]._transient and wrapped.inner._transient
        assert not (model.layers[0]._transient or wrapped.inner._transient)

    def test_each_mode_is_restored_when_scoring_raises(self):
        model = self._model()
        lstms = [model.layers[0], model.layers[2]]
        with pytest.raises(ValueError, match="expects"):
            with model.transient_workspaces():
                assert all(layer._transient for layer in lstms)
                model.infer(np.zeros((5, 6, 1, 1), dtype=np.float32))  # 4-D: raises
        assert not any(layer._transient for layer in lstms)

    def test_nested_scope_restores_the_outer_mode(self):
        model = self._model()
        lstms = [model.layers[0], model.layers[2]]
        x = np.zeros((3, 6, 1), dtype=np.float32)
        with model.transient_workspaces():
            with pytest.raises(RuntimeError):
                with model.transient_workspaces():
                    raise RuntimeError("scoring failed")
            assert all(layer._transient for layer in lstms)
            model.infer(x)
            assert not any(layer._infer_workspaces for layer in lstms)
        assert not any(layer._transient for layer in lstms)
        model.infer(x)
        assert all(list(layer._infer_workspaces) == [3] for layer in lstms)
