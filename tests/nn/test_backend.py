"""Backend registry, dispatch-resolution edge cases, and kernel parity.

The numpy backend must be bit-identical to the historical inline path
(it runs the same ops in the same order into the same buffers); the
numba backend — exercised only where the package is installed — must
match within an explicit float tolerance.  Resolution-order tests cover
the documented chain: argument > process default > ``REPRO_BACKEND`` >
numpy, with known-but-unavailable backends warning and falling back.
"""

import numpy as np
import pytest

from repro.nn import LSTM, Dense, RepeatVector, Sequential, TimeDistributed, backend
from repro.nn.activations import get as get_activation
from repro.nn.backend import (
    BackendUnavailableError,
    NumpyBackend,
    available_backends,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
    set_default_backend,
)
from repro.nn.layers.lstm import _TILE
from repro.nn.policy import dtype_policy
from repro.nn.serialization import model_to_config

HAVE_NUMBA = "numba" in available_backends()


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture(autouse=True)
def clean_backend_state(monkeypatch):
    """Neutral dispatch state: no env override, no process default."""
    monkeypatch.delenv(backend.ENV_VAR, raising=False)
    set_default_backend(None)
    yield
    set_default_backend(None)


class SpyBackend(NumpyBackend):
    """Counts kernel dispatches so tests can see who computed."""

    name = "spy"

    def __init__(self):
        self.lstm_steps = 0
        self.dense_calls = 0
        self.error_calls = 0

    def lstm_step(self, *args, **kwargs):
        self.lstm_steps += 1
        return super().lstm_step(*args, **kwargs)

    def dense_forward(self, *args, **kwargs):
        self.dense_calls += 1
        return super().dense_forward(*args, **kwargs)

    def window_errors(self, *args, **kwargs):
        self.error_calls += 1
        return super().window_errors(*args, **kwargs)


@pytest.fixture
def spy():
    instance = SpyBackend()
    register_backend("spy", lambda: instance)
    yield instance
    backend._FACTORIES.pop("spy", None)
    backend._INSTANCES.pop("spy", None)


def small_model(**kwargs):
    model = Sequential([LSTM(5, return_sequences=True), Dense(3, activation="relu")], **kwargs)
    model.build((6, 2), seed=0)
    return model


class TestRegistry:
    def test_both_backends_registered(self):
        names = list_backends()
        assert "numpy" in names
        assert "numba" in names

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert get_backend("numpy").name == "numpy"

    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(ValueError, match="unknown backend 'wat'.*numba.*numpy"):
            get_backend("wat")

    def test_get_backend_passes_instances_through(self):
        instance = NumpyBackend()
        assert get_backend(instance) is instance

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_set_default_backend_round_trip(self):
        set_default_backend("numpy")
        assert backend.get_default_backend() == "numpy"
        set_default_backend(None)
        assert backend.get_default_backend() is None

    def test_set_default_backend_validates_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_default_backend("wat")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed")
    def test_set_default_unavailable_backend_raises(self):
        with pytest.raises(BackendUnavailableError, match="numba"):
            set_default_backend("numba")


class TestResolutionOrder:
    def test_default_is_numpy(self):
        assert resolve_backend(None).name == "numpy"

    def test_explicit_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("wat")

    def test_process_default_beats_env(self, monkeypatch, spy):
        monkeypatch.setenv(backend.ENV_VAR, "numpy")
        set_default_backend("spy")
        assert resolve_backend(None) is spy

    def test_env_override_selects_backend(self, monkeypatch, spy):
        monkeypatch.setenv(backend.ENV_VAR, "spy")
        assert resolve_backend(None) is spy

    def test_env_unknown_name_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_VAR, "wat")
        with pytest.warns(RuntimeWarning, match="unknown backend 'wat'"):
            assert resolve_backend(None).name == "numpy"

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed")
    def test_env_numba_without_numba_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_VAR, "numba")
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            assert resolve_backend(None).name == "numpy"

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_env_numba_with_numba_resolves_numba(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_VAR, "numba")
        assert resolve_backend(None).name == "numba"

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed")
    def test_model_numba_request_falls_back_and_still_computes(self, rng):
        model = small_model(backend="numba")
        x = rng.normal(size=(4, 6, 2))
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            out = model.predict(x)
        reference = small_model().predict(x)
        np.testing.assert_array_equal(out, reference)


class TestModelDispatch:
    def test_per_model_override_beats_global_default(self, rng, spy):
        set_default_backend("numpy")
        model = small_model(backend="spy")
        model.predict(rng.normal(size=(4, 6, 2)))
        assert spy.lstm_steps > 0
        assert spy.dense_calls > 0

    def test_global_default_reaches_unpinned_models(self, rng, spy):
        model = small_model()
        set_default_backend("spy")
        model.predict(rng.normal(size=(4, 6, 2)))
        assert spy.lstm_steps > 0

    def test_set_backend_repins_every_layer(self, spy):
        model = small_model()
        model.set_backend("spy")
        assert model.backend == "spy"
        assert all(layer.backend == "spy" for layer in model.layers)
        model.set_backend(None)
        assert all(layer.backend is None for layer in model.layers)

    def test_backend_accepts_instances(self, rng):
        spy = SpyBackend()
        model = small_model(backend=spy)
        model.predict(rng.normal(size=(4, 6, 2)))
        assert spy.lstm_steps > 0

    def test_predict_resolves_once_not_per_chunk(self, rng, spy, monkeypatch):
        model = small_model(backend="spy")
        calls = []
        original = backend.resolve_backend
        monkeypatch.setattr(
            backend, "resolve_backend", lambda req=None: calls.append(req) or original(req)
        )
        model.predict(rng.normal(size=(40, 6, 2)), batch_size=8)
        assert len(calls) == 1

    def test_training_path_dispatches_through_backend(self, rng, spy):
        model = Sequential([LSTM(4), Dense(1)], backend="spy")
        model.compile("adam", "mse")
        x = rng.normal(size=(8, 5, 1))
        y = rng.normal(size=(8, 1))
        model.fit(x, y, epochs=1, batch_size=4, seed=0)
        assert spy.lstm_steps > 0

    def test_backend_is_never_serialized(self):
        model = small_model(backend="numpy")
        config = model_to_config(model)
        assert "backend" not in config
        assert all("backend" not in entry["config"] for entry in config["layers"])


class TestNumpyKernelParity:
    def test_dense_infer_matches_forward_bit_exactly(self, rng):
        for activation in (None, "relu", "tanh", "sigmoid", "softplus"):
            layer = Dense(4, activation=activation)
            layer.build((3,), np.random.default_rng(1))
            x = np.asarray(rng.normal(size=(6, 3)), dtype=layer.dtype)
            np.testing.assert_array_equal(layer.infer(x), layer.forward(x))

    def test_dense_infer_without_bias(self, rng):
        layer = Dense(4, activation="relu", use_bias=False)
        layer.build((3,), np.random.default_rng(1))
        x = np.asarray(rng.normal(size=(6, 3)), dtype=layer.dtype)
        np.testing.assert_array_equal(layer.infer(x), layer.forward(x))

    def test_lstm_infer_matches_forward_bit_exactly(self, rng):
        layer = LSTM(5, return_sequences=True)
        layer.build((6, 2), np.random.default_rng(2))
        x = np.asarray(rng.normal(size=(4, 6, 2)), dtype=layer.dtype)
        np.testing.assert_array_equal(layer.infer(x), layer.forward(x))

    @pytest.mark.parametrize("units", [4, 8])
    @pytest.mark.parametrize("return_sequences", [True, False])
    @pytest.mark.parametrize(
        "form", ["one_feature", "repeat_vector", "gate_major", "batch_reversed"]
    )
    def test_lstm_infer_matches_forward_across_tile_boundaries(
        self, rng, form, return_sequences, units
    ):
        """``infer`` runs wide batches in column tiles of ``_TILE`` windows;
        every input layout must keep float32 ``infer ≡ forward`` across a
        tile edge.  That holds only where a row's bits do not depend on
        the batch around it, which OpenBLAS's AVX2 kernels break at 8
        units: there the test skips."""
        timesteps = 5
        widest = 3 * _TILE + 37
        with dtype_policy("float32"):
            if form == "one_feature":
                x = rng.normal(size=(widest, timesteps, 1)).astype(np.float32)
                features, view = 1, lambda b: x[:b]
            elif form == "repeat_vector":
                v = rng.normal(size=(widest, 3)).astype(np.float32)
                repeat = RepeatVector(timesteps)
                features, view = 3, lambda b: repeat.infer(v[:b])
            elif form == "gate_major":
                x = rng.normal(size=(widest, timesteps, 2)).astype(np.float32)
                previous = LSTM(3, return_sequences=True)
                previous.build((timesteps, 2), np.random.default_rng(4))
                features, view = 3, lambda b: previous.infer(x[:b])
            else:
                x = rng.normal(size=(widest, timesteps, 3)).astype(np.float32)
                features, view = 3, lambda b: x[:b][::-1]
            layer = LSTM(units, return_sequences=return_sequences)
            layer.build((timesteps, features), np.random.default_rng(2))

        # The kernel keeps a row's bits: infer ≡ forward within one tile,
        # and a forward over two tiles' rows equals those of its halves.
        below = view(37)
        split = rng.normal(size=(2 * _TILE, timesteps, features)).astype(np.float32)
        halves = np.concatenate([layer.forward(split[:_TILE]), layer.forward(split[_TILE:])])
        if not (
            np.array_equal(layer.infer(below), layer.forward(below))
            and np.array_equal(layer.forward(split), halves)
        ):
            pytest.skip(
                "row bits depend on the batch on this BLAS kernel (ROADMAP item 14)"
            )
        for batch in (
            _TILE - 1, _TILE, _TILE + 1, 2 * _TILE - 1, 2 * _TILE, 2 * _TILE + 1, widest
        ):
            inputs = view(batch)
            np.testing.assert_array_equal(
                layer.infer(inputs), layer.forward(inputs), err_msg=f"batch {batch}"
            )

    @pytest.mark.parametrize("batch", [_TILE - 1, 2 * _TILE + 1, 3 * _TILE + 37])
    @pytest.mark.parametrize("return_sequences", [True, False])
    @pytest.mark.parametrize("repeat", [False, True])
    def test_transient_workspaces_keep_the_cached_path_bytes(
        self, rng, batch, return_sequences, repeat
    ):
        """Inside ``Sequential.transient_workspaces`` each ``infer`` call
        takes its workspaces from a dict of its own (tiles of one width
        still share one) and runs the cached path's arithmetic, so its
        output is the same bytes on any BLAS kernel."""
        head = [RepeatVector(5)] if repeat else []
        model = Sequential(head + [LSTM(8, return_sequences=return_sequences)], dtype="float32")
        model.build((3,) if repeat else (5, 3), seed=2)
        shape = (batch, 3) if repeat else (batch, 5, 3)
        x = rng.normal(size=shape).astype(np.float32)
        lstm = model.layers[-1]
        with model.transient_workspaces():
            transient = model.infer(x)
        assert not lstm._infer_workspaces
        cached = model.infer(x)
        assert lstm._infer_workspaces
        assert transient.dtype == cached.dtype == np.float32
        assert transient.shape == cached.shape
        assert np.ascontiguousarray(transient).tobytes() == np.ascontiguousarray(cached).tobytes()

    def test_window_errors_match_plain_expression(self, rng):
        windows = rng.normal(size=(7, 6, 2))
        recon = rng.normal(size=(7, 6, 2))
        bk = get_backend("numpy")
        np.testing.assert_array_equal(
            bk.window_errors(windows, recon), np.mean((windows - recon) ** 2, axis=(1, 2))
        )
        np.testing.assert_array_equal(
            bk.pointwise_errors(windows, recon), np.mean((windows - recon) ** 2, axis=2)
        )


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestNumbaKernelParity:
    """Numba vs numpy parity within the documented float tolerances.

    float64 kernels track numpy to ~1 ulp (same stabilised expressions,
    same libm); float32 differs slightly more because the scalar chain
    rounds once through float64 instead of per float32 ufunc.
    """

    TOLS = {"float32": dict(rtol=2e-4, atol=1e-6), "float64": dict(rtol=1e-12, atol=1e-14)}

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_model_infer_parity(self, rng, dtype):
        x = rng.normal(size=(150, 6, 2))
        reference = small_model(dtype=dtype, backend="numpy")
        jitted = small_model(dtype=dtype, backend="numba")
        jitted.set_weights(reference.get_weights())
        np.testing.assert_allclose(jitted.infer(x), reference.infer(x), **self.TOLS[dtype])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_forward_training_path_parity(self, rng, dtype):
        x = rng.normal(size=(9, 6, 2))
        reference = small_model(dtype=dtype, backend="numpy")
        jitted = small_model(dtype=dtype, backend="numba")
        jitted.set_weights(reference.get_weights())
        np.testing.assert_allclose(jitted.forward(x), reference.forward(x), **self.TOLS[dtype])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("batch", [3, 300])
    def test_sequence_and_repeat_stack_parity(self, rng, dtype, batch):
        # A sequence layer's step writes h_out into a fresh row of its
        # gate-major output, apart from h_prev (the previous row); the
        # decoder reads RepeatVector's stride-0 view.  Batch 300 runs the
        # parallel gate kernel.
        def stack(name):
            model = Sequential(
                [
                    LSTM(6, return_sequences=True),
                    LSTM(3),
                    RepeatVector(6),
                    LSTM(3, return_sequences=True),
                    LSTM(6, return_sequences=True),
                    TimeDistributed(Dense(2)),
                ],
                dtype=dtype,
                backend=name,
            )
            model.build((6, 2), seed=0)
            return model

        reference, jitted = stack("numpy"), stack("numba")
        jitted.set_weights(reference.get_weights())
        x = rng.normal(size=(batch, 6, 2))
        want = reference.infer(x)
        np.testing.assert_allclose(jitted.infer(x), want, **self.TOLS[dtype])
        np.testing.assert_allclose(jitted.predict(x, batch_size=batch), want, **self.TOLS[dtype])

    @pytest.mark.parametrize("batch", [3, 300])
    def test_dense_parity_serial_and_parallel(self, rng, batch):
        for activation in ("relu", "sigmoid", "tanh", None):
            layer = Dense(8, activation=activation)
            layer.build((5,), np.random.default_rng(3))
            x = np.asarray(rng.normal(size=(batch, 5)), dtype=layer.dtype)
            bk_np = get_backend("numpy")
            bk_nb = get_backend("numba")
            act = get_activation(activation)
            bias = layer._bias.value
            kernel = layer._kernel.value
            np.testing.assert_allclose(
                bk_nb.dense_forward(x, kernel, bias, act),
                bk_np.dense_forward(x, kernel, bias, act),
                rtol=2e-4,
                atol=1e-6,
            )

    @pytest.mark.parametrize("n", [5, 400])
    def test_error_reduction_parity(self, rng, n):
        windows = np.asarray(rng.normal(size=(n, 6, 2)), dtype=np.float32)
        recon = np.asarray(rng.normal(size=(n, 6, 2)), dtype=np.float32)
        bk_np = get_backend("numpy")
        bk_nb = get_backend("numba")
        np.testing.assert_allclose(
            bk_nb.window_errors(windows, recon),
            bk_np.window_errors(windows, recon),
            rtol=1e-5,
        )
        np.testing.assert_allclose(
            bk_nb.pointwise_errors(windows, recon),
            bk_np.pointwise_errors(windows, recon),
            rtol=1e-5,
        )

    def test_streaming_dtype_mix_fuses_via_alignment(self, rng):
        # The streaming hot path: float64 buffer windows, float32 recon.
        # The fused kernels align windows to the model dtype; results
        # must match the numpy float64-promoted expression within the
        # float32 backend tolerance.
        windows = rng.normal(size=(4, 6, 2))
        recon = np.asarray(rng.normal(size=(4, 6, 2)), dtype=np.float32)
        bk_nb = get_backend("numba")
        got = bk_nb.window_errors(windows, recon)
        assert got.dtype == np.float32
        np.testing.assert_allclose(
            got, np.mean((windows - recon) ** 2, axis=(1, 2)), rtol=2e-4, atol=1e-6
        )

    def test_non_float_reduction_falls_back(self, rng):
        windows = rng.integers(0, 5, size=(4, 6, 2))
        recon = rng.integers(0, 5, size=(4, 6, 2))
        bk_nb = get_backend("numba")
        np.testing.assert_array_equal(
            bk_nb.window_errors(windows, recon), np.mean((windows - recon) ** 2, axis=(1, 2))
        )


@pytest.mark.skipif(HAVE_NUMBA, reason="real numba installed; kernels tested live above")
class TestNumbaKernelLogicViaStub:
    """Execute the numba kernel bodies as plain Python on numpy-only boxes.

    A stub ``numba`` module turns ``@njit`` into a no-op and ``prange``
    into ``range``, so the numpy-only CI leg still verifies the kernel
    *math* (gate fusion, bias+activation, error reductions) against the
    numpy backend — only the compilation itself needs real numba.
    """

    @pytest.fixture
    def stub_backend(self, monkeypatch):
        import importlib
        import sys
        import types

        stub = types.ModuleType("numba")

        def njit(*args, **kwargs):
            if args and callable(args[0]):
                return args[0]

            def decorate(fn):
                return fn

            return decorate

        stub.njit = njit
        stub.prange = range
        monkeypatch.setitem(sys.modules, "numba", stub)
        sys.modules.pop("repro.nn._numba_kernels", None)
        kernels = importlib.import_module("repro.nn._numba_kernels")
        yield backend.NumbaBackend(kernels)
        sys.modules.pop("repro.nn._numba_kernels", None)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_lstm_step_matches_numpy_kernel(self, rng, dtype, stub_backend):
        batch, units, tol = 4, 3, self_tolerance(dtype)
        shapes = {
            "hz": (4 * units, batch),
            "tmp_u": (units, batch),
        }
        recurrent = np.asarray(rng.normal(size=(units, 4 * units)), dtype=dtype)
        z0 = np.asarray(rng.normal(size=(4 * units, batch), scale=2.0), dtype=dtype)
        h0 = np.asarray(rng.normal(size=(units, batch)), dtype=dtype)
        c0 = np.asarray(rng.normal(size=(units, batch)), dtype=dtype)
        results = []
        for bk in (get_backend("numpy"), stub_backend):
            ws = {name: np.empty(shape, dtype=dtype) for name, shape in shapes.items()}
            z, h, c = z0.copy(), h0.copy(), c0.copy()
            tanh_c = np.empty((units, batch), dtype=dtype)
            bk.lstm_step(z, h, c, c, h, tanh_c, recurrent, ws)
            results.append((z, h, c, tanh_c))
        for got, want in zip(results[1], results[0], strict=True):
            np.testing.assert_allclose(got, want, **tol)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dense_and_reductions_match_numpy_kernels(self, rng, dtype, stub_backend):
        tol = self_tolerance(dtype)
        bk_np = get_backend("numpy")
        x = np.asarray(rng.normal(size=(5, 4)), dtype=dtype)
        kernel = np.asarray(rng.normal(size=(4, 3)), dtype=dtype)
        bias = np.asarray(rng.normal(size=(3,)), dtype=dtype)
        for name in ("relu", "sigmoid", "tanh", None):
            act = get_activation(name)
            np.testing.assert_allclose(
                stub_backend.dense_forward(x, kernel, bias, act),
                bk_np.dense_forward(x, kernel, bias, act),
                **tol,
            )
            np.testing.assert_allclose(
                stub_backend.dense_forward(x, kernel, None, act),
                bk_np.dense_forward(x, kernel, None, act),
                **tol,
            )
        windows = np.asarray(rng.normal(size=(6, 5, 2)), dtype=dtype)
        recon = np.asarray(rng.normal(size=(6, 5, 2)), dtype=dtype)
        np.testing.assert_allclose(
            stub_backend.window_errors(windows, recon),
            bk_np.window_errors(windows, recon),
            **tol,
        )
        np.testing.assert_allclose(
            stub_backend.pointwise_errors(windows, recon),
            bk_np.pointwise_errors(windows, recon),
            **tol,
        )

    def test_streaming_dtype_mix_aligns_and_matches(self, rng, stub_backend):
        windows = rng.normal(size=(5, 4, 2))
        recon = np.asarray(rng.normal(size=(5, 4, 2)), dtype=np.float32)
        got = stub_backend.window_errors(windows, recon)
        assert got.dtype == np.float32
        np.testing.assert_allclose(
            got, np.mean((windows - recon) ** 2, axis=(1, 2)), rtol=2e-4, atol=1e-6
        )

    def test_parallel_kernels_match_serial_exactly(self, rng, stub_backend):
        kernels = stub_backend._kernels
        windows = np.asarray(rng.normal(size=(9, 4, 2)), dtype=np.float32)
        recon = np.asarray(rng.normal(size=(9, 4, 2)), dtype=np.float32)
        out_s = np.empty(9, dtype=np.float32)
        out_p = np.empty(9, dtype=np.float32)
        kernels.window_mse_serial(windows, recon, out_s)
        kernels.window_mse_parallel(windows, recon, out_p)
        np.testing.assert_array_equal(out_s, out_p)


def self_tolerance(dtype):
    if dtype == "float32":
        return dict(rtol=2e-4, atol=1e-6)
    return dict(rtol=1e-12, atol=1e-14)
