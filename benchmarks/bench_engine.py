"""Compute-engine benchmark: fused mixed-precision engine vs the seed path.

Four fixed, seeded workloads quantify the substrate the whole
reproduction runs on:

* ``forecaster_fit``   — the paper's LSTM(50)→Dense(10,relu)→Dense(1)
  trained with Adam/MSE.  Timed three ways: a *frozen copy of the seed
  implementation* (float64, unfused, allocating per timestep), the fused
  engine under float64, and the fused engine under the float32 default
  policy.  The float32-vs-seed ratio is the headline speedup.
* ``autoencoder_fit``  — the paper's LSTM autoencoder, engine f64 vs f32.
* ``batch_predict``    — forecaster inference throughput, f64 vs f32.
* ``streaming_ticks``  — PR-1 streaming detector tick loop, f64 vs f32.
* ``forward_kernels``  — per-compute-backend forward throughput at the
  1000-station block shape (the streaming hot path: one ``infer`` over
  ``block × stations`` windows of the compact fleet autoencoder).  Runs
  every backend in :func:`repro.nn.backend.available_backends`; when the
  numba backend is installed its speedup over numpy is gated against the
  committed floor (the ISSUE-5 2x acceptance bar, -30% slack in CI).

Results are written as JSON (``--output``, default ``BENCH_engine.json``)
with a ``legs`` record of what ran (backends, numba version, BLAS, cores)
and printed as a table.  ``--check BASELINE.json`` exits non-zero when
any speedup regresses more than ``--check-slack`` (default 30%) below the
committed baseline — machine-independent because speedups are ratios of
times measured on the same box.

Run::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _gate import check_regression  # noqa: E402
from _legs import legs  # noqa: E402

from repro.anomaly.autoencoder import (  # noqa: E402
    AutoencoderConfig,
    LSTMAutoencoder,
    build_autoencoder,
)
from repro.nn import LSTM, Adam, Dense, Sequential, policy  # noqa: E402
from repro.nn import backend as backend_registry  # noqa: E402
from repro.nn import initializers  # noqa: E402
from repro.nn.activations import sigmoid  # noqa: E402
from repro.stream.detector import StreamingDetector  # noqa: E402
from repro.utils.rng import as_generator  # noqa: E402


# ---------------------------------------------------------------------------
# Frozen seed implementation (float64, unfused) — the "old" side of the
# old-vs-new speedup.  This is a faithful copy of the pre-engine LSTM /
# Dense / Adam / fit loop; do not "optimise" it, its slowness is the point.
# ---------------------------------------------------------------------------


class _SeedLSTM:
    def __init__(self, units: int) -> None:
        self.units = units
        self.kernel = None
        self.recurrent = None
        self.bias = None
        self.grads: list[np.ndarray] = []
        self._cache: dict[str, np.ndarray] = {}

    def build(self, features: int, rng: np.random.Generator) -> None:
        u = self.units
        self.kernel = np.asarray(
            initializers.glorot_uniform((features, 4 * u), rng, dtype=np.float64)
        )
        self.recurrent = np.asarray(
            initializers.orthogonal((u, 4 * u), rng, dtype=np.float64)
        )
        self.bias = np.zeros(4 * u, dtype=np.float64)
        self.bias[u : 2 * u] = 1.0
        self.grads = [np.zeros_like(self.kernel), np.zeros_like(self.recurrent),
                      np.zeros_like(self.bias)]

    @property
    def params(self) -> list[np.ndarray]:
        return [self.kernel, self.recurrent, self.bias]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        batch, timesteps, _ = inputs.shape
        units = self.units
        z_input = inputs @ self.kernel + self.bias
        h = np.zeros((batch, units))
        c = np.zeros((batch, units))
        hs = np.empty((batch, timesteps, units))
        cs = np.empty((batch, timesteps, units))
        gates = np.empty((batch, timesteps, 4 * units))
        tanh_cs = np.empty((batch, timesteps, units))
        for t in range(timesteps):
            z = z_input[:, t, :] + h @ self.recurrent
            i = sigmoid(z[:, :units])
            f = sigmoid(z[:, units : 2 * units])
            g = np.tanh(z[:, 2 * units : 3 * units])
            o = sigmoid(z[:, 3 * units :])
            c = f * c + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            gates[:, t, :units] = i
            gates[:, t, units : 2 * units] = f
            gates[:, t, 2 * units : 3 * units] = g
            gates[:, t, 3 * units :] = o
            cs[:, t, :] = c
            hs[:, t, :] = h
            tanh_cs[:, t, :] = tanh_c
        self._cache = {"inputs": inputs, "hs": hs, "cs": cs, "gates": gates,
                       "tanh_cs": tanh_cs}
        return hs[:, -1, :]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        inputs = self._cache["inputs"]
        hs = self._cache["hs"]
        cs = self._cache["cs"]
        gates = self._cache["gates"]
        tanh_cs = self._cache["tanh_cs"]
        batch, timesteps, _ = inputs.shape
        units = self.units
        grad_hs = np.zeros_like(hs)
        grad_hs[:, -1, :] = grad
        grad_inputs = np.empty_like(inputs)
        grad_z_all = np.empty((batch, timesteps, 4 * units))
        dh_next = np.zeros((batch, units))
        dc_next = np.zeros((batch, units))
        recurrent_t = self.recurrent.T
        for t in range(timesteps - 1, -1, -1):
            i = gates[:, t, :units]
            f = gates[:, t, units : 2 * units]
            g = gates[:, t, 2 * units : 3 * units]
            o = gates[:, t, 3 * units :]
            tanh_c = tanh_cs[:, t, :]
            c_prev = cs[:, t - 1, :] if t > 0 else np.zeros((batch, units))
            dh = grad_hs[:, t, :] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_next = dc * f
            dz = np.empty((batch, 4 * units))
            dz[:, :units] = di * i * (1.0 - i)
            dz[:, units : 2 * units] = df * f * (1.0 - f)
            dz[:, 2 * units : 3 * units] = dg * (1.0 - g * g)
            dz[:, 3 * units :] = do * o * (1.0 - o)
            grad_z_all[:, t, :] = dz
            dh_next = dz @ recurrent_t
            grad_inputs[:, t, :] = dz @ self.kernel.T
        flat_inputs = inputs.reshape(batch * timesteps, -1)
        flat_dz = grad_z_all.reshape(batch * timesteps, 4 * units)
        self.grads[0] += flat_inputs.T @ flat_dz
        self.grads[2] += flat_dz.sum(axis=0)
        if timesteps > 1:
            h_prev = hs[:, :-1, :].reshape(batch * (timesteps - 1), units)
            dz_next = grad_z_all[:, 1:, :].reshape(batch * (timesteps - 1), 4 * units)
            self.grads[1] += h_prev.T @ dz_next
        return grad_inputs


class _SeedDense:
    def __init__(self, units: int, relu: bool = False) -> None:
        self.units = units
        self.relu = relu
        self.kernel = None
        self.bias = None
        self.grads: list[np.ndarray] = []
        self._cache: dict[str, np.ndarray] = {}

    def build(self, in_features: int, rng: np.random.Generator) -> None:
        self.kernel = np.asarray(
            initializers.glorot_uniform((in_features, self.units), rng, dtype=np.float64)
        )
        self.bias = np.zeros(self.units, dtype=np.float64)
        self.grads = [np.zeros_like(self.kernel), np.zeros_like(self.bias)]

    @property
    def params(self) -> list[np.ndarray]:
        return [self.kernel, self.bias]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        pre = inputs @ self.kernel + self.bias
        outputs = np.maximum(pre, 0.0) if self.relu else pre
        self._cache = {"inputs": inputs, "pre": pre}
        return outputs

    def backward(self, grad: np.ndarray) -> np.ndarray:
        inputs = self._cache["inputs"]
        if self.relu:
            grad = grad * (self._cache["pre"] > 0)
        self.grads[0] += inputs.T @ grad
        self.grads[1] += grad.sum(axis=0)
        return grad @ self.kernel.T


class _SeedForecaster:
    """LSTM(50)→Dense(10,relu)→Dense(1) on the seed substrate, Adam/MSE."""

    def __init__(self, units: int = 50, seed: int = 0) -> None:
        rng = as_generator(seed)
        self.lstm = _SeedLSTM(units)
        self.hidden = _SeedDense(10, relu=True)
        self.head = _SeedDense(1)
        self.lstm.build(1, rng)
        self.hidden.build(units, rng)
        self.head.build(10, rng)
        self.layers = [self.lstm, self.hidden, self.head]
        # Seed-era Adam state, id-keyed as it was.
        self.m = [np.zeros_like(p) for layer in self.layers for p in layer.params]
        self.v = [np.zeros_like(p) for layer in self.layers for p in layer.params]
        self.t = 0

    def _adam_step(self, lr=0.001, b1=0.9, b2=0.999, eps=1e-7) -> None:
        self.t += 1
        index = 0
        for layer in self.layers:
            for p, g in zip(layer.params, layer.grads, strict=True):
                m = self.m[index]
                v = self.v[index]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                m_hat = m / (1.0 - b1**self.t)
                v_hat = v / (1.0 - b2**self.t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
                index += 1

    def fit(self, x: np.ndarray, y: np.ndarray, epochs: int, batch_size: int,
            seed: int) -> float:
        rng = as_generator(seed)
        n = len(x)
        last_epoch_loss = 0.0
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb, yb = x[idx], y[idx]
                out = self.head.forward(self.hidden.forward(self.lstm.forward(xb)))
                diff = out - yb
                loss = float(np.mean(diff * diff))
                for layer in self.layers:
                    for g in layer.grads:
                        g.fill(0.0)
                grad = 2.0 * diff / yb.size
                self.lstm.backward(self.hidden.backward(self.head.backward(grad)))
                self._adam_step()
                epoch_loss += loss * len(idx)
            last_epoch_loss = epoch_loss / n
        return last_epoch_loss


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _forecaster_data(n: int, timesteps: int = 24):
    rng = np.random.default_rng(11)
    t = np.arange(n + timesteps)
    series = 0.5 + 0.4 * np.sin(2 * np.pi * t / 24.0) + rng.normal(0.0, 0.02, t.size)
    x = np.stack([series[i : i + timesteps] for i in range(n)])[..., None]
    y = series[timesteps : timesteps + n, None]
    return x, y


def _build_forecaster(dtype: str) -> Sequential:
    model = Sequential(
        [LSTM(50), Dense(10, activation="relu"), Dense(1)], dtype=dtype
    )
    model.compile(Adam(0.001), "mse")
    model.build((24, 1), seed=0)
    return model


def _time(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def bench_forecaster_fit(smoke: bool) -> dict:
    n, epochs, batch_size = (256, 2, 32) if smoke else (512, 3, 32)
    x, y = _forecaster_data(n)

    seed_model = _SeedForecaster(seed=0)
    seed_seconds, seed_loss = _time(lambda: seed_model.fit(x, y, epochs, batch_size, seed=1))

    def run(dtype: str):
        model = _build_forecaster(dtype)
        history = model.fit(x, y, epochs=epochs, batch_size=batch_size, seed=1)
        return history.history["loss"][-1]

    engine64_seconds, engine64_loss = _time(lambda: run("float64"))
    engine32_seconds, engine32_loss = _time(lambda: run("float32"))

    loss_parity = abs(engine64_loss - seed_loss) / max(abs(seed_loss), 1e-12)
    samples = n * epochs
    return {
        "config": {"n_windows": n, "timesteps": 24, "epochs": epochs,
                   "batch_size": batch_size, "architecture": "LSTM(50)-Dense(10,relu)-Dense(1)"},
        "seed_float64_seconds": seed_seconds,
        "engine_float64_seconds": engine64_seconds,
        "engine_float32_seconds": engine32_seconds,
        "speedup_float64_vs_seed": seed_seconds / engine64_seconds,
        "speedup_float32_vs_seed": seed_seconds / engine32_seconds,
        "samples_per_second_float32": samples / engine32_seconds,
        "samples_per_second_seed": samples / seed_seconds,
        "loss_seed": seed_loss,
        "loss_engine_float64": engine64_loss,
        "loss_engine_float32": engine32_loss,
        "loss_parity_rel_err_float64_vs_seed": loss_parity,
    }


def bench_autoencoder_fit(smoke: bool) -> dict:
    n, epochs = (96, 1) if smoke else (192, 2)
    config = AutoencoderConfig(sequence_length=24, epochs=epochs, patience=epochs)
    rng = np.random.default_rng(5)
    windows = rng.random((n, 24, 1))

    def run(dtype: str):
        with policy.dtype_policy(dtype):
            autoencoder = LSTMAutoencoder(config, seed=2)
            autoencoder.fit(windows)
        return autoencoder.history.history["loss"][-1]

    seconds64, _ = _time(lambda: run("float64"))
    seconds32, _ = _time(lambda: run("float32"))
    return {
        "config": {"n_windows": n, "epochs": epochs,
                   "architecture": "LSTM-AE 50-25/25-50 dropout 0.2"},
        "engine_float64_seconds": seconds64,
        "engine_float32_seconds": seconds32,
        "speedup_float32_vs_float64": seconds64 / seconds32,
        "windows_per_second_float32": n * epochs / seconds32,
    }


def bench_batch_predict(smoke: bool) -> dict:
    n = 1024 if smoke else 4096
    x, _ = _forecaster_data(n)

    def run(dtype: str):
        model = _build_forecaster(dtype)
        model.predict(x[:256])  # warm workspaces out of the timing
        seconds, _ = _time(lambda: model.predict(x, batch_size=256))
        return seconds

    seconds64 = run("float64")
    seconds32 = run("float32")
    return {
        "config": {"n_windows": n, "batch_size": 256},
        "engine_float64_seconds": seconds64,
        "engine_float32_seconds": seconds32,
        "speedup_float32_vs_float64": seconds64 / seconds32,
        "windows_per_second_float32": n / seconds32,
    }


def bench_streaming_ticks(smoke: bool) -> dict:
    stations, ticks = (128, 64) if smoke else (256, 96)
    config = AutoencoderConfig(
        sequence_length=12, encoder_units=(8, 4), decoder_units=(4, 8),
        dropout=0.1, epochs=1, patience=1,
    )
    rng = np.random.default_rng(9)
    fleet = rng.random((stations, ticks))

    def run(dtype: str):
        with policy.dtype_policy(dtype):
            autoencoder = LSTMAutoencoder(config, seed=4)
            autoencoder.fit(rng.random((32, 12, 1)))
            detector = StreamingDetector(autoencoder, n_stations=stations, threshold=0.5)
            seconds, _ = _time(lambda: [detector.process_tick(fleet[:, t])
                                        for t in range(ticks)])
        return seconds

    seconds64 = run("float64")
    seconds32 = run("float32")
    total = stations * ticks
    return {
        "config": {"stations": stations, "ticks": ticks},
        "engine_float64_seconds": seconds64,
        "engine_float32_seconds": seconds32,
        "speedup_float32_vs_float64": seconds64 / seconds32,
        "station_ticks_per_second_float32": total / seconds32,
    }


def bench_forward_kernels(smoke: bool) -> dict:
    """Per-backend forward throughput at the streaming block shape.

    One ``Sequential.infer`` pass scores ``block × stations`` windows of
    the compact fleet-scale autoencoder — exactly the call block-mode
    streaming makes per block, and the thing PR 3 measured as ~97% of
    tick time.  Timed per registered-and-available backend with the same
    model and weights; the first two passes per backend are untimed
    (workspace allocation, numba JIT/compile-cache load).
    """
    stations, block = (128, 8) if smoke else (1000, 32)
    repeats = 3 if smoke else 5
    config = AutoencoderConfig(
        sequence_length=12, encoder_units=(8, 4), decoder_units=(4, 8),
        dropout=0.1, epochs=1, patience=1,
    )
    batch = stations * block
    rng = np.random.default_rng(21)
    windows = rng.random((batch, config.sequence_length, 1), dtype=np.float32)
    model = build_autoencoder(config, seed=6)

    payload: dict = {
        "config": {
            "stations": stations, "block": block, "windows_per_pass": batch,
            "sequence_length": config.sequence_length,
            "architecture": "LSTM-AE 8-4/4-8 (compact fleet model)",
            "dtype": str(model.dtype),
        },
        "backends": {},
    }
    seconds_by_backend: dict[str, float] = {}
    for name in backend_registry.available_backends():
        model.set_backend(name)
        model.infer(windows)  # warm: workspaces + (numba) JIT specialisation
        model.infer(windows)
        best = min(_time(lambda: model.infer(windows))[0] for _ in range(repeats))
        seconds_by_backend[name] = best
        payload["backends"][name] = {
            "seconds_per_pass": best,
            "windows_per_second": batch / best,
        }
    model.set_backend(None)
    if "numpy" in seconds_by_backend and "numba" in seconds_by_backend:
        payload["speedup_numba_vs_numpy"] = (
            seconds_by_backend["numpy"] / seconds_by_backend["numba"]
        )
    return payload


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

WORKLOADS = {
    "forecaster_fit": bench_forecaster_fit,
    "autoencoder_fit": bench_autoencoder_fit,
    "batch_predict": bench_batch_predict,
    "streaming_ticks": bench_streaming_ticks,
    "forward_kernels": bench_forward_kernels,
}


#: Workloads whose speedup ratio is python-overhead-bound and sits near
#: 1x — run-to-run jitter exceeds any plausible regression signal, so
#: they are reported but not gated by --check.
UNGATED_WORKLOADS = frozenset({"streaming_ticks"})

#: ISSUE-5 acceptance bar for the numba forward backend, enforced in
#: code (not via the committed baseline JSON, which is regenerated on
#: numpy-only boxes and would silently drop a hand-added entry).  Gated
#: with the same --check-slack as everything else: 2.0 with 30% slack
#: fails below 1.4x.  Only applies when the numba backend actually ran.
NUMBA_FORWARD_SPEEDUP_FLOOR = 2.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workloads for CI (seconds, not minutes)")
    parser.add_argument("--output", type=Path, default=Path("BENCH_engine.json"))
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline JSON to gate speedups against")
    parser.add_argument("--check-slack", type=float, default=0.30,
                        help="allowed fractional regression vs baseline")
    args = parser.parse_args(argv)

    results = {
        "benchmark": "bench_engine",
        "profile": "smoke" if args.smoke else "full",
        "numpy": np.__version__,
        "unix_time": time.time(),
        "workloads": {},
    }
    for name, fn in WORKLOADS.items():
        print(f"[bench_engine] running {name} ({results['profile']}) ...", flush=True)
        results["workloads"][name] = fn(args.smoke)

    # Every workload but forward_kernels runs on the resolved default.
    results["legs"] = legs(
        [backend_registry.resolve_backend(None).name,
         *results["workloads"]["forward_kernels"]["backends"]]
    )
    fc = results["workloads"]["forecaster_fit"]
    results["headline"] = {
        "workload": "forecaster_fit",
        "speedup_float32_vs_seed": fc["speedup_float32_vs_seed"],
    }

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\n[bench_engine] wrote {args.output}")
    print(f"{'workload':<18} {'old/f64 (s)':>12} {'new f32 (s)':>12} {'speedup':>9}")
    for name, payload in results["workloads"].items():
        if "engine_float32_seconds" not in payload:
            continue
        old = payload.get("seed_float64_seconds", payload.get("engine_float64_seconds"))
        new = payload["engine_float32_seconds"]
        speedup = payload.get("speedup_float32_vs_seed",
                              payload.get("speedup_float32_vs_float64"))
        print(f"{name:<18} {old:>12.3f} {new:>12.3f} {speedup:>8.2f}x")
    kernels = results["workloads"]["forward_kernels"]
    for backend_name, stats in kernels["backends"].items():
        print(f"forward[{backend_name:<7}]   {stats['seconds_per_pass']:>12.3f} "
              f"{stats['windows_per_second']:>12.0f} windows/s")
    if "speedup_numba_vs_numpy" in kernels:
        print(f"forward speedup (numba vs numpy): "
              f"{kernels['speedup_numba_vs_numpy']:.2f}x")
    else:
        print("forward speedup (numba vs numpy): n/a (numba backend unavailable)")
    parity = fc["loss_parity_rel_err_float64_vs_seed"]
    print(f"\nforecaster loss parity (engine f64 vs seed): rel err {parity:.2e}")
    if parity > 1e-3:
        print("[bench_engine] FAIL: engine float64 loss diverged from the seed path")
        return 1

    if args.check is not None:
        failures = check_regression(
            results, args.check, args.check_slack, ungated_workloads=UNGATED_WORKLOADS
        )
        measured = results["workloads"]["forward_kernels"].get("speedup_numba_vs_numpy")
        if measured is not None:
            floor = (1.0 - args.check_slack) * NUMBA_FORWARD_SPEEDUP_FLOOR
            if measured < floor:
                failures.append(
                    f"forward_kernels.speedup_numba_vs_numpy: {measured:.2f}x < floor "
                    f"{floor:.2f}x (acceptance bar {NUMBA_FORWARD_SPEEDUP_FLOOR:.2f}x, "
                    f"slack {args.check_slack:.0%})"
                )
        if failures:
            print("[bench_engine] REGRESSION vs baseline:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"[bench_engine] no regression vs {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
