"""Centralized forecasting baseline (paper Fig. 1a).

"The centralized architecture employed a Sequential model ... Input data
consisted of reshaped combined sequences from all clients, processed
jointly."  In the paper's Fig. 1a the clients *transmit raw data* to the
central server, which learns one model over the pooled stream.

Two scaling regimes are supported:

* ``"global"`` (default, the truly centralized reading) — the server
  fits **one** MinMaxScaler on the pooled raw training data.  Zones with
  different demand levels land in different sub-ranges of [0, 1] and the
  single model must cover every zone's dynamics at its own level — the
  compromise effect behind the paper's per-client centralized gaps.
* ``"per_client"`` — reuse each client's own scaler (an ablation that
  isolates how much of the gap is explained by scaling alone).

Training runs for the same total epoch budget as the federated run
(rounds × epochs-per-round), and evaluation is per client in kWh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import ClientDataset, PreparedData
from repro.data.scaling import MinMaxScaler
from repro.data.splits import temporal_split
from repro.data.windowing import make_supervised
from repro.forecasting.evaluation import RegressionMetrics, evaluate_regression
from repro.forecasting.models import ForecasterBuilder, forecaster_builder
from repro.nn.model import Sequential
from repro.utils.rng import SeedLike, as_generator, spawn
from repro.utils.timing import Timer

_SCALING_MODES = ("global", "per_client")


@dataclass
class CentralizedClientForecast:
    """One client's test forecast under the pooled model (kWh units)."""

    client_name: str
    predictions_kwh: np.ndarray
    targets_kwh: np.ndarray
    metrics: RegressionMetrics


@dataclass
class CentralizedForecastResult:
    """Trained pooled model plus per-client evaluation."""

    model: Sequential
    forecasts: dict[str, CentralizedClientForecast]
    train_seconds: float
    final_loss: float
    #: Pooled training windows and epochs fit actually ran: the counted
    #: work behind ``train_seconds``.
    n_samples: int
    epochs_run: int

    def metrics_of(self, client_name: str) -> RegressionMetrics:
        return self.forecasts[client_name].metrics


class CentralizedForecaster:
    """Train one pooled LSTM over all clients' charging series."""

    def __init__(
        self,
        epochs: int = 50,
        batch_size: int = 32,
        sequence_length: int = 24,
        train_fraction: float = 0.8,
        scaling: str = "global",
        builder: ForecasterBuilder | None = None,
        seed: SeedLike = None,
    ) -> None:
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if scaling not in _SCALING_MODES:
            raise ValueError(f"scaling must be one of {_SCALING_MODES}, got {scaling!r}")
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.sequence_length = int(sequence_length)
        self.train_fraction = float(train_fraction)
        self.scaling = scaling
        self.builder = builder or forecaster_builder()
        self._rng = as_generator(seed)

    def train_evaluate(
        self,
        clients: dict[str, ClientDataset],
        targets_kwh: dict[str, np.ndarray] | None = None,
    ) -> CentralizedForecastResult:
        """Pool every client's series, train jointly, evaluate per client.

        ``targets_kwh`` overrides the evaluation ground truth per client
        (used by the trustworthy-evaluation ablation; by default each
        client is scored against its own test segment).
        """
        if not clients:
            raise ValueError("need at least one client")
        splits = {
            name: temporal_split(client.series, self.train_fraction)
            for name, client in clients.items()
        }

        if self.scaling == "global":
            pooled_train = np.concatenate([train for train, _ in splits.values()])
            scaler = MinMaxScaler().fit(pooled_train)
            scalers = {name: scaler for name in clients}
        else:
            scalers = {
                name: MinMaxScaler().fit(train) for name, (train, _) in splits.items()
            }

        x_parts, y_parts = [], []
        test_sets: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, (train, test) in splits.items():
            scaler = scalers[name]
            scaled_train = scaler.transform(train)
            scaled_test = scaler.transform(test)
            x_train, y_train = make_supervised(scaled_train, self.sequence_length)
            x_parts.append(x_train)
            y_parts.append(y_train)
            stitched = np.concatenate([scaled_train[-self.sequence_length :], scaled_test])
            test_sets[name] = make_supervised(stitched, self.sequence_length)

        x_pool = np.concatenate(x_parts, axis=0)
        y_pool = np.concatenate(y_parts, axis=0)

        model = self.builder()
        if model.optimizer is None:
            raise ValueError("builder must return a compiled model")
        model.build(x_pool.shape[1:], seed=spawn(self._rng, "init"))

        with Timer() as timer:
            history = model.fit(
                x_pool,
                y_pool,
                epochs=self.epochs,
                batch_size=self.batch_size,
                seed=spawn(self._rng, "fit"),
            )

        forecasts: dict[str, CentralizedClientForecast] = {}
        for name, (x_test, y_test) in test_sets.items():
            scaler = scalers[name]
            predictions_kwh = scaler.inverse_transform(model.predict(x_test).ravel())
            if targets_kwh is not None:
                target = np.asarray(targets_kwh[name], dtype=np.float64).ravel()
                if len(target) != len(predictions_kwh):
                    raise ValueError(
                        f"override targets for {name!r} have length {len(target)}, "
                        f"expected {len(predictions_kwh)}"
                    )
            else:
                target = scaler.inverse_transform(y_test.ravel())
            forecasts[name] = CentralizedClientForecast(
                client_name=name,
                predictions_kwh=predictions_kwh,
                targets_kwh=target,
                metrics=evaluate_regression(target, predictions_kwh),
            )
        return CentralizedForecastResult(
            model=model,
            forecasts=forecasts,
            train_seconds=timer.elapsed,
            final_loss=history.history["loss"][-1],
            n_samples=len(x_pool),
            epochs_run=len(history.history["loss"]),
        )

    def train_evaluate_prepared(
        self,
        prepared: dict[str, PreparedData],
        targets_kwh: dict[str, np.ndarray] | None = None,
    ) -> CentralizedForecastResult:
        """Ablation path: pool already per-client-scaled windows.

        Equivalent to ``scaling="per_client"`` but reuses
        :class:`PreparedData` tensors produced elsewhere in a pipeline.
        """
        if not prepared:
            raise ValueError("need at least one prepared client dataset")
        x_pool = np.concatenate([data.x_train for data in prepared.values()], axis=0)
        y_pool = np.concatenate([data.y_train for data in prepared.values()], axis=0)

        model = self.builder()
        if model.optimizer is None:
            raise ValueError("builder must return a compiled model")
        model.build(x_pool.shape[1:], seed=spawn(self._rng, "init"))

        with Timer() as timer:
            history = model.fit(
                x_pool,
                y_pool,
                epochs=self.epochs,
                batch_size=self.batch_size,
                seed=spawn(self._rng, "fit"),
            )

        forecasts: dict[str, CentralizedClientForecast] = {}
        for name, data in prepared.items():
            predictions_kwh = data.inverse_predictions(model.predict(data.x_test))
            if targets_kwh is not None:
                target = np.asarray(targets_kwh[name], dtype=np.float64).ravel()
            else:
                target = data.test_targets_kwh
            forecasts[name] = CentralizedClientForecast(
                client_name=name,
                predictions_kwh=predictions_kwh,
                targets_kwh=target,
                metrics=evaluate_regression(target, predictions_kwh),
            )
        return CentralizedForecastResult(
            model=model,
            forecasts=forecasts,
            train_seconds=timer.elapsed,
            final_loss=history.history["loss"][-1],
            n_samples=len(x_pool),
            epochs_run=len(history.history["loss"]),
        )
