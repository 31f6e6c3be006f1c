"""Tests for client, server, simulation and communication accounting."""

import numpy as np
import pytest

from repro.federated.client import FederatedClient
from repro.federated.communication import CommunicationLog, payload_bytes
from repro.federated.server import FederatedServer
from repro.federated.simulation import FederatedSimulation
from repro.nn import Adam, Dense, LSTM, Sequential


def builder():
    model = Sequential([LSTM(4), Dense(1)])
    model.compile(Adam(0.01), "mse")
    return model


def uncompiled_builder():
    return Sequential([LSTM(4), Dense(1)])


@pytest.fixture
def client_data(rng):
    return {
        f"Client {i}": (rng.normal(size=(40, 6, 1)), rng.normal(size=(40, 1)))
        for i in (1, 2, 3)
    }


class TestCommunication:
    def test_payload_bytes(self):
        weights = [np.zeros((2, 2)), np.zeros(3)]
        assert payload_bytes(weights) == 4 * 8 + 3 * 8

    def test_log_totals_and_directions(self):
        log = CommunicationLog()
        weights = [np.zeros(10)]
        log.record(0, "a", "download", weights)
        log.record(0, "a", "upload", weights)
        log.record(1, "b", "upload", weights)
        assert log.total_bytes() == 240
        assert log.total_bytes("upload") == 160
        assert log.bytes_by_client() == {"a": 160, "b": 80}
        assert log.rounds() == 2

    def test_direction_validation(self):
        log = CommunicationLog()
        with pytest.raises(ValueError, match="direction"):
            log.record(0, "a", "sideways", [np.zeros(1)])


class TestFederatedClient:
    def test_requires_compiled_model(self, rng):
        with pytest.raises(ValueError, match="compiled"):
            FederatedClient("c", uncompiled_builder, rng.normal(size=(10, 6, 1)),
                            rng.normal(size=(10, 1)), seed=0)

    def test_data_validation(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            FederatedClient("c", builder, rng.normal(size=(10, 6, 1)),
                            rng.normal(size=(9, 1)), seed=0)
        with pytest.raises(ValueError, match="no training data"):
            FederatedClient("c", builder, np.zeros((0, 6, 1)), np.zeros((0, 1)), seed=0)

    def test_train_round_returns_loss_and_time(self, rng):
        client = FederatedClient("c", builder, rng.normal(size=(20, 6, 1)),
                                 rng.normal(size=(20, 1)), seed=0)
        loss, seconds = client.train_round(epochs=2, batch_size=8)
        assert loss >= 0.0
        assert seconds > 0.0
        assert client.round_losses == [loss]

    def test_weight_round_trip(self, rng):
        client = FederatedClient("c", builder, rng.normal(size=(10, 6, 1)),
                                 rng.normal(size=(10, 1)), seed=0)
        weights = client.get_weights()
        client.train_round(1, 8)
        client.set_weights(weights)
        for got, expected in zip(client.get_weights(), weights, strict=True):
            np.testing.assert_array_equal(got, expected)


class TestFederatedServer:
    def test_round_aggregates_and_installs(self, rng, client_data):
        server = FederatedServer(builder, (6, 1), aggregator="fedavg", seed=0)
        clients = [
            FederatedClient(name, builder, x, y, seed=i)
            for i, (name, (x, y)) in enumerate(client_data.items())
        ]
        before = server.global_weights()
        stats = server.run_round(clients, epochs=1, batch_size=16)
        after = server.global_weights()
        assert set(stats) == set(client_data)
        assert any(
            not np.array_equal(b, a) for b, a in zip(before, after, strict=True)
        )
        assert server.round_index == 1

    def test_communication_recorded_both_directions(self, rng, client_data):
        server = FederatedServer(builder, (6, 1), seed=0)
        clients = [
            FederatedClient(name, builder, x, y, seed=i)
            for i, (name, (x, y)) in enumerate(client_data.items())
        ]
        server.run_round(clients, 1, 16)
        downloads = [r for r in server.communication.records if r.direction == "download"]
        uploads = [r for r in server.communication.records if r.direction == "upload"]
        assert len(downloads) == len(uploads) == 3

    def test_empty_round_rejected(self):
        server = FederatedServer(builder, (6, 1), seed=0)
        with pytest.raises(ValueError, match="zero clients"):
            server.run_round([], 1, 16)


class TestFederatedSimulation:
    def test_full_run_structure(self, client_data):
        simulation = FederatedSimulation(builder, rounds=2, epochs_per_round=1, seed=0)
        result = simulation.run(client_data)
        assert len(result.rounds) == 2
        assert result.aggregator_name == "fedavg"
        assert set(result.final_losses) == set(client_data)
        # Holds by construction: per round, max <= sum of the same client samples.
        assert result.parallel_seconds <= result.sequential_seconds

    def test_clients_share_global_at_round_start(self, client_data):
        # After a run with sync_final=True every client equals the server.
        simulation = FederatedSimulation(
            builder, rounds=1, epochs_per_round=1, sync_final=True, seed=0
        )
        result = simulation.run(client_data)
        global_weights = result.global_model.get_weights()
        for client in result.clients:
            for got, expected in zip(client.get_weights(), global_weights, strict=True):
                np.testing.assert_array_equal(got, expected)

    def test_local_models_differ_without_final_sync(self, client_data):
        simulation = FederatedSimulation(
            builder, rounds=1, epochs_per_round=1, sync_final=False, seed=0
        )
        result = simulation.run(client_data)
        global_weights = result.global_model.get_weights()
        differs = [
            any(
                not np.array_equal(w, g)
                for w, g in zip(client.get_weights(), global_weights, strict=True)
            )
            for client in result.clients
        ]
        assert all(differs)

    def test_deterministic_under_seed(self, client_data):
        results = []
        for _ in range(2):
            simulation = FederatedSimulation(builder, rounds=1, epochs_per_round=1, seed=5)
            result = simulation.run(client_data)
            results.append(result.global_model.get_weights())
        for a, b in zip(*results, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_client_dropout_failure_injection(self, client_data):
        # One client drops out of every round; the run must still finish
        # and aggregate over the participants only.
        def sampler(round_index, clients, rng):
            return [c for c in clients if c.name != "Client 3"]

        simulation = FederatedSimulation(
            builder, rounds=2, epochs_per_round=1, client_sampler=sampler, seed=0
        )
        result = simulation.run(client_data)
        for record in result.rounds:
            assert record.participants == ["Client 1", "Client 2"]

    def test_sampler_returning_empty_rejected(self, client_data):
        simulation = FederatedSimulation(
            builder, rounds=1, epochs_per_round=1,
            client_sampler=lambda r, c, g: [], seed=0,
        )
        with pytest.raises(ValueError, match="no clients"):
            simulation.run(client_data)

    def test_no_clients_rejected(self):
        simulation = FederatedSimulation(builder, rounds=1, epochs_per_round=1)
        with pytest.raises(ValueError, match="at least one"):
            simulation.run({})

    def test_validation_of_round_params(self):
        with pytest.raises(ValueError, match="rounds"):
            FederatedSimulation(builder, rounds=0)
        with pytest.raises(ValueError, match="epochs_per_round"):
            FederatedSimulation(builder, epochs_per_round=0)

    def test_communication_volume_scales_with_rounds(self, client_data):
        one = FederatedSimulation(builder, rounds=1, epochs_per_round=1, seed=0)
        two = FederatedSimulation(builder, rounds=2, epochs_per_round=1, seed=0)
        bytes_one = one.run(client_data).communication.total_bytes()
        bytes_two = two.run(client_data).communication.total_bytes()
        assert bytes_two == 2 * bytes_one
