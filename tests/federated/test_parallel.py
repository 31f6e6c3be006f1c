"""Thread-pooled federated rounds: bit-identical to the sequential path.

Every client owns its model/optimizer/RNG streams and collection order is
fixed by the client list, so running local training in a thread pool must
change wall-clock only — never a single bit of the aggregated weights.
"""

import numpy as np
import pytest

from repro.federated.simulation import FederatedSimulation
from repro.nn import LSTM, Adam, Dense, Sequential


def _builder():
    model = Sequential([LSTM(4), Dense(1)])
    model.compile(Adam(0.01), "mse")
    return model


def _client_data(n_clients=3, n_samples=24):
    rng = np.random.default_rng(42)
    return {
        f"client-{i}": (
            rng.normal(size=(n_samples, 6, 1)),
            rng.normal(size=(n_samples, 1)),
        )
        for i in range(n_clients)
    }


def _run(max_workers):
    sim = FederatedSimulation(
        model_builder=_builder,
        rounds=2,
        epochs_per_round=1,
        batch_size=8,
        max_workers=max_workers,
        seed=7,
    )
    return sim.run(_client_data())


class TestParallelRounds:
    def test_threaded_weights_bit_identical_to_sequential(self):
        sequential = _run(max_workers=None)
        threaded = _run(max_workers=4)
        for a, b in zip(
            sequential.global_model.get_weights(), threaded.global_model.get_weights(), strict=True
        ):
            np.testing.assert_array_equal(a, b)
        for client_seq, client_thr in zip(sequential.clients, threaded.clients, strict=True):
            for a, b in zip(client_seq.get_weights(), client_thr.get_weights(), strict=True):
                np.testing.assert_array_equal(a, b)

    def test_losses_and_participants_identical(self):
        sequential = _run(max_workers=None)
        threaded = _run(max_workers=2)
        assert sequential.final_losses == threaded.final_losses
        for r_seq, r_thr in zip(sequential.rounds, threaded.rounds, strict=True):
            assert r_seq.participants == r_thr.participants
            assert r_seq.client_losses == r_thr.client_losses

    def test_measured_wall_seconds_recorded(self):
        result = _run(max_workers=2)
        assert result.measured_wall_seconds > 0.0
        assert all(record.wall_seconds > 0.0 for record in result.rounds)
        # The modelled views are still present and consistent; this holds by
        # construction: per round, max <= sum of the same client samples.
        assert result.parallel_seconds <= result.sequential_seconds

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            FederatedSimulation(model_builder=_builder, max_workers=0)

    def test_default_resolves_to_pool_sized_by_clients_and_cpus(self):
        import os

        sim = FederatedSimulation(model_builder=_builder)
        cpus = os.cpu_count() or 1
        assert sim.resolve_workers(3) == min(3, cpus)
        assert sim.resolve_workers(10_000) == cpus
        # Explicit opt-out stays strictly sequential.
        sequential = FederatedSimulation(model_builder=_builder, max_workers=1)
        assert sequential.resolve_workers(8) == 1
        # Explicit cap is honoured but never exceeds the participants.
        capped = FederatedSimulation(model_builder=_builder, max_workers=4)
        assert capped.resolve_workers(2) == 2

    def test_default_pool_bit_identical_to_sequential_opt_out(self):
        pooled = _run(max_workers=None)
        sequential = _run(max_workers=1)
        for a, b in zip(
            pooled.global_model.get_weights(), sequential.global_model.get_weights(), strict=True
        ):
            np.testing.assert_array_equal(a, b)
        assert pooled.final_losses == sequential.final_losses
