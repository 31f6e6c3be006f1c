"""Tests for Dense, Dropout, RepeatVector, TimeDistributed, Activation."""

import numpy as np
import pytest

from repro.nn.layers import (
    Activation,
    Dense,
    Dropout,
    RepeatVector,
    TimeDistributed,
    Variable,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestVariable:
    def test_assign_preserves_identity(self):
        var = Variable("w", np.zeros((2, 2)))
        buffer = var.value
        var.assign(np.ones((2, 2)))
        assert var.value is buffer
        assert np.all(var.value == 1.0)

    def test_assign_shape_mismatch(self):
        var = Variable("w", np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            var.assign(np.zeros((3, 3)))

    def test_zero_grad(self):
        var = Variable("w", np.ones(3))
        var.grad += 5.0
        var.zero_grad()
        assert np.all(var.grad == 0.0)


class TestDense:
    def test_output_shape_2d(self, rng):
        layer = Dense(7)
        layer.build((3,), rng)
        out = layer.forward(np.zeros((5, 3)))
        assert out.shape == (5, 7)

    def test_output_shape_3d(self, rng):
        layer = Dense(4)
        layer.build((6, 3), rng)
        out = layer.forward(np.zeros((2, 6, 3)))
        assert out.shape == (2, 6, 4)

    def test_linear_computation(self, rng):
        layer = Dense(2, activation=None)
        layer.build((2,), rng)
        layer.variables[0].assign(np.array([[1.0, 0.0], [0.0, 2.0]]))
        layer.variables[1].assign(np.array([0.5, -0.5]))
        out = layer.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[1.5, 1.5]])

    def test_relu_activation_applied(self, rng):
        layer = Dense(3, activation="relu")
        layer.build((3,), rng)
        out = layer.forward(rng.normal(size=(10, 3)))
        assert np.all(out >= 0)

    def test_no_bias_option(self, rng):
        layer = Dense(3, use_bias=False)
        layer.build((2,), rng)
        assert len(layer.variables) == 1

    def test_param_count(self, rng):
        layer = Dense(10)
        layer.build((5,), rng)
        assert layer.count_params() == 5 * 10 + 10

    def test_backward_before_forward_raises(self, rng):
        layer = Dense(3)
        layer.build((2,), rng)
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.zeros((1, 3)))

    def test_invalid_units(self):
        with pytest.raises(ValueError, match="units"):
            Dense(0)

    def test_grad_accumulates_across_backwards(self, rng):
        layer = Dense(2)
        layer.build((2,), rng)
        x = rng.normal(size=(4, 2))
        layer.forward(x)
        layer.backward(np.ones((4, 2)))
        first = layer.variables[0].grad.copy()
        layer.forward(x)
        layer.backward(np.ones((4, 2)))
        np.testing.assert_allclose(layer.variables[0].grad, 2 * first)


class TestDropout:
    def test_identity_at_inference(self, rng):
        layer = Dropout(0.5)
        layer.build((4,), rng)
        x = rng.normal(size=(8, 4)).astype(layer.dtype)
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_drops_and_scales_in_training(self, rng):
        layer = Dropout(0.5)
        layer.build((1000,), rng)
        x = np.ones((1, 1000))
        out = layer.forward(x, training=True)
        dropped = np.sum(out == 0.0)
        assert 350 < dropped < 650  # ~50%
        kept_values = out[out != 0.0]
        np.testing.assert_allclose(kept_values, 2.0)  # inverted scaling

    def test_rate_zero_is_identity_in_training(self, rng):
        layer = Dropout(0.0)
        layer.build((4,), rng)
        x = rng.normal(size=(3, 4)).astype(layer.dtype)
        np.testing.assert_array_equal(layer.forward(x, training=True), x)

    def test_backward_applies_same_mask(self, rng):
        layer = Dropout(0.4)
        layer.build((50,), rng)
        x = np.ones((2, 50))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones((2, 50)))
        np.testing.assert_array_equal(grad == 0.0, out == 0.0)

    def test_deterministic_under_seed(self):
        outs = []
        for _ in range(2):
            layer = Dropout(0.5)
            layer.build((20,), np.random.default_rng(9))
            outs.append(layer.forward(np.ones((1, 20)), training=True))
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_invalid_rate(self, bad):
        with pytest.raises(ValueError):
            Dropout(bad)

    def test_no_params(self, rng):
        layer = Dropout(0.2)
        layer.build((4,), rng)
        assert layer.count_params() == 0


class TestRepeatVector:
    def test_shape(self, rng):
        layer = RepeatVector(5)
        layer.build((3,), rng)
        out = layer.forward(np.arange(6.0).reshape(2, 3))
        assert out.shape == (2, 5, 3)

    def test_repeats_content(self, rng):
        layer = RepeatVector(3)
        layer.build((2,), rng)
        out = layer.forward(np.array([[1.0, 2.0]]))
        for t in range(3):
            np.testing.assert_array_equal(out[0, t], [1.0, 2.0])

    def test_backward_sums_over_repeats(self, rng):
        layer = RepeatVector(4)
        layer.build((2,), rng)
        layer.forward(np.ones((1, 2)))
        grad = layer.backward(np.ones((1, 4, 2)))
        np.testing.assert_array_equal(grad, [[4.0, 4.0]])

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="n must be"):
            RepeatVector(0)

    def test_rejects_3d_input(self, rng):
        layer = RepeatVector(2)
        layer.build((3,), rng)
        with pytest.raises(ValueError, match="batch, features"):
            layer.forward(np.zeros((1, 2, 3)))
        with pytest.raises(ValueError, match="batch, features"):
            layer.infer(np.zeros((1, 2, 3)))

    def test_infer_is_a_read_only_broadcast_of_forward(self, rng):
        layer = RepeatVector(4)
        layer.build((3,), rng)
        x = rng.normal(size=(5, 3)).astype(layer.dtype)
        out = layer.infer(x)
        np.testing.assert_array_equal(out, layer.forward(x))
        assert out.strides[1] == 0, "time axis must be broadcast, not copied"
        assert np.shares_memory(out, x)
        assert not out.flags.writeable


class TestTimeDistributed:
    def test_applies_inner_per_timestep(self, rng):
        layer = TimeDistributed(Dense(2))
        layer.build((5, 3), rng)
        out = layer.forward(rng.normal(size=(4, 5, 3)))
        assert out.shape == (4, 5, 2)

    def test_adopts_inner_variables(self, rng):
        layer = TimeDistributed(Dense(2))
        layer.build((5, 3), rng)
        assert layer.count_params() == 3 * 2 + 2

    def test_timesteps_independent(self, rng):
        layer = TimeDistributed(Dense(2))
        layer.build((2, 3), rng)
        x = rng.normal(size=(1, 2, 3))
        layer.forward(x)
        # Same feature vector at both timesteps must map identically.
        x_same = np.repeat(x[:, :1, :], 2, axis=1)
        out_same = layer.forward(x_same)
        np.testing.assert_allclose(out_same[0, 0], out_same[0, 1])

    def test_compute_output_shape(self, rng):
        layer = TimeDistributed(Dense(7))
        assert layer.compute_output_shape((4, 3)) == (4, 7)

    def test_contiguous_fold_is_a_view(self, rng):
        layer = TimeDistributed(Dense(2))
        layer.build((5, 3), rng)
        x = rng.normal(size=(4, 5, 3)).astype(layer.dtype)
        folded = layer._fold(x)
        assert np.shares_memory(folded, x), "contiguous fold must not copy"

    def test_strided_fold_gathers_a_fresh_array(self, rng):
        layer = TimeDistributed(Dense(2))
        layer.build((5, 3), rng)
        x = rng.normal(size=(5, 4, 3)).astype(layer.dtype).transpose(1, 0, 2)
        assert not x.flags["C_CONTIGUOUS"]
        first = layer._fold(x)
        second = layer._fold(x)
        assert first.flags["C_CONTIGUOUS"]
        assert not np.shares_memory(first, second), "a fold must not reuse a buffer"
        np.testing.assert_array_equal(second, x.reshape(20, 3))
        out = layer.forward(x)
        assert out.shape == (4, 5, 2)

    @pytest.mark.parametrize(
        "inner",
        [lambda: Dropout(0.2), lambda: Activation("linear")],
        ids=["dropout", "linear"],
    )
    @pytest.mark.parametrize("method", ["forward", "infer"])
    def test_pass_through_result_survives_the_next_call(self, rng, inner, method):
        # A pass-through inner layer returns its (folded) input: a result
        # the caller holds must not be overwritten by the next call.
        layer = TimeDistributed(inner())
        layer.build((5, 3), rng)
        call = getattr(layer, method)
        strided = [
            rng.normal(size=(5, 4, 3)).astype(layer.dtype).transpose(1, 0, 2) for _ in range(2)
        ]
        held = call(strided[0])
        kept = held.copy()
        call(strided[1])
        np.testing.assert_array_equal(held, kept)
        np.testing.assert_array_equal(held, strided[0])

    def test_strided_forward_matches_contiguous(self, rng):
        layer = TimeDistributed(Dense(2))
        layer.build((5, 3), rng)
        x = rng.normal(size=(4, 5, 3)).astype(layer.dtype)
        strided = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not strided.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(layer.forward(strided), layer.forward(x))


class TestActivationLayer:
    def test_forward_backward(self, rng):
        layer = Activation("tanh")
        layer.build((3,), rng)
        x = rng.normal(size=(2, 3))
        y = layer.forward(x)
        np.testing.assert_allclose(y, np.tanh(x))
        grad = layer.backward(np.ones_like(y))
        np.testing.assert_allclose(grad, 1 - np.tanh(x) ** 2)

    def test_no_params(self, rng):
        layer = Activation("relu")
        layer.build((3,), rng)
        assert layer.count_params() == 0
