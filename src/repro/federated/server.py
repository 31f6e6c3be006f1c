"""Federated server: global model state and round orchestration.

The server holds the global weight list, broadcasts it at the start of
each round, collects trained client weights, and aggregates them (FedAvg
in the paper).  It never sees client data — the communication log proves
only weight payloads move.
"""

from __future__ import annotations

import numpy as np

from repro.federated import aggregation
from repro.federated.client import FederatedClient, ModelBuilder
from repro.federated.communication import CommunicationLog
from repro.utils.rng import SeedLike


class FederatedServer:
    """Coordinates one federation of clients."""

    def __init__(
        self,
        model_builder: ModelBuilder,
        input_shape: tuple[int, ...],
        aggregator: str | aggregation.Aggregator = "fedavg",
        seed: SeedLike = None,
    ) -> None:
        self.model = model_builder()
        if self.model.optimizer is None:
            raise ValueError("model_builder must return a compiled model")
        self.model.build(input_shape, seed=seed)
        self.aggregator = aggregation.get(aggregator)
        self.communication = CommunicationLog()
        self.round_index = 0

    def global_weights(self) -> list[np.ndarray]:
        return self.model.get_weights()

    def run_round(
        self,
        clients: list[FederatedClient],
        epochs: int,
        batch_size: int,
    ) -> dict[str, tuple[float, float]]:
        """One synchronous federated round over ``clients``.

        Broadcast → local training → collect → aggregate → install.
        Returns per-client ``(final_loss, wall_seconds)``.
        """
        if not clients:
            raise ValueError("cannot run a round with zero clients")
        broadcast = self.global_weights()
        for client in clients:
            self.communication.record(self.round_index, client.name, "download", broadcast)

        stats: dict[str, tuple[float, float]] = {}
        collected: list[list[np.ndarray]] = []
        sample_counts: list[int] = []
        for client in clients:
            client.set_weights(broadcast)
            stats[client.name] = client.train_round(epochs, batch_size)
            weights = client.get_weights()
            self.communication.record(self.round_index, client.name, "upload", weights)
            collected.append(weights)
            sample_counts.append(client.n_samples)
        aggregated = self.aggregator.aggregate(collected, sample_counts)
        self.model.set_weights(aggregated)
        self.round_index += 1
        return stats
