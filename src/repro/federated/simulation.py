"""End-to-end federated training simulation.

Runs the paper's protocol — ``FEDERATED_ROUNDS`` rounds of
``EPOCHS_PER_ROUND`` local epochs with FedAvg synchronisation — over any
set of clients, recording per-round losses, communication payloads and
two wall-clock views:

* ``sequential_seconds`` — total compute (the sum of every client's
  training time), and
* ``parallel_seconds`` — the modelled deployment wall-clock where all
  clients train concurrently: per round, the *maximum* client duration
  (the round barrier), summed over rounds.

Clients train one after another, so each client's seconds are measured
without contention from the others.

The paper's Table I "Time (s)" for the federated rows corresponds to the
parallel view (stations train simultaneously in the field).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.federated.aggregation import Aggregator
from repro.federated.client import FederatedClient, ModelBuilder
from repro.federated.communication import CommunicationLog
from repro.federated.server import FederatedServer
from repro.nn.model import Sequential
from repro.utils.rng import SeedLike, spawn
from repro.utils.timing import Timer

#: Selects which clients participate each round; default = everyone.
ClientSampler = Callable[[int, list[FederatedClient], np.random.Generator], list[FederatedClient]]


@dataclass
class RoundRecord:
    """Losses and durations of one federated round."""

    round_index: int
    client_losses: dict[str, float]
    client_seconds: dict[str, float]
    participants: list[str]
    #: Real elapsed time of the round: every client's training plus
    #: broadcast, collection and aggregation.
    wall_seconds: float = 0.0

    @property
    def barrier_seconds(self) -> float:
        """Modelled wall-clock of the round under concurrent execution."""
        return max(self.client_seconds.values()) if self.client_seconds else 0.0


@dataclass
class FederatedRunResult:
    """Everything a federated training run produced."""

    global_model: Sequential
    clients: list[FederatedClient]
    rounds: list[RoundRecord]
    communication: CommunicationLog
    aggregator_name: str

    @property
    def sequential_seconds(self) -> float:
        return sum(sum(r.client_seconds.values()) for r in self.rounds)

    @property
    def parallel_seconds(self) -> float:
        return sum(r.barrier_seconds for r in self.rounds)

    @property
    def final_losses(self) -> dict[str, float]:
        """Last recorded local loss per client."""
        losses: dict[str, float] = {}
        for record in self.rounds:
            losses.update(record.client_losses)
        return losses


@dataclass
class FederatedSimulation:
    """Configurable federated-training driver.

    Parameters mirror the paper's hyperparameters; ``client_sampler``
    enables failure-injection experiments (clients dropping out of
    rounds), defaulting to full participation.
    """

    model_builder: ModelBuilder
    rounds: int = 5
    epochs_per_round: int = 10
    batch_size: int = 32
    aggregator: str | Aggregator = "fedavg"
    client_sampler: ClientSampler | None = None
    sync_final: bool = False
    seed: SeedLike = None
    _sampler_rng: np.random.Generator = field(init=False, repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.epochs_per_round < 1:
            raise ValueError(f"epochs_per_round must be >= 1, got {self.epochs_per_round}")
        self._sampler_rng = spawn(self.seed, "sampler")

    def run(self, client_data: dict[str, tuple[np.ndarray, np.ndarray]]) -> FederatedRunResult:
        """Train a federation over ``client name -> (x_train, y_train)``.

        Every client (and the server) instantiates the same architecture;
        all stochastic pieces derive from ``self.seed``.
        """
        if not client_data:
            raise ValueError("need at least one client")
        clients = [
            FederatedClient(
                name,
                self.model_builder,
                x_train,
                y_train,
                seed=spawn(self.seed, f"client/{name}"),
            )
            for name, (x_train, y_train) in client_data.items()
        ]
        input_shape = clients[0].x_train.shape[1:]
        server = FederatedServer(
            self.model_builder,
            input_shape,
            aggregator=self.aggregator,
            seed=spawn(self.seed, "server"),
        )

        records: list[RoundRecord] = []
        for round_index in range(self.rounds):
            participants = self._select(round_index, clients)
            with Timer() as round_timer:
                stats = server.run_round(participants, self.epochs_per_round, self.batch_size)
            record = RoundRecord(
                round_index=round_index,
                client_losses={name: loss for name, (loss, _) in stats.items()},
                client_seconds={name: secs for name, (_, secs) in stats.items()},
                participants=[client.name for client in participants],
                wall_seconds=round_timer.elapsed,
            )
            records.append(record)
            self._record_obs(record)

        # By default clients end on their *locally trained* weights of the
        # final round (the paper's "local results": each local model
        # specialises on zone-specific patterns after the last global
        # broadcast).  With ``sync_final=True`` every client instead ends
        # on the aggregated global model.
        if self.sync_final:
            final_weights = server.global_weights()
            for client in clients:
                client.set_weights(final_weights)

        return FederatedRunResult(
            global_model=server.model,
            clients=clients,
            rounds=records,
            communication=server.communication,
            aggregator_name=server.aggregator.name,
        )

    @staticmethod
    def _record_obs(record: RoundRecord) -> None:
        """Export one round's timings to the active metrics registry."""
        reg = obs.registry()
        if not reg.enabled:
            return
        reg.counter(
            "repro_federated_rounds_total", help="Federated rounds completed."
        ).inc()
        reg.gauge(
            "repro_federated_participants",
            help="Clients that trained in the most recent round.",
        ).set(float(len(record.participants)))
        client_hist = reg.histogram(
            "repro_federated_client_seconds",
            help="Local-training duration per client per round.",
        )
        for seconds in record.client_seconds.values():
            client_hist.observe(seconds)
        reg.histogram(
            "repro_federated_round_barrier_seconds",
            help="Modelled concurrent wall-clock per round (max client).",
        ).observe(record.barrier_seconds)
        reg.histogram(
            "repro_federated_round_seconds",
            help="Measured elapsed time per round (training + aggregation).",
        ).observe(record.wall_seconds)
        reg.histogram(
            "repro_federated_aggregate_seconds",
            help="Round time not spent training clients "
            "(broadcast, collection, aggregation).",
        ).observe(max(record.wall_seconds - sum(record.client_seconds.values()), 0.0))

    def _select(self, round_index: int, clients: list[FederatedClient]) -> list[FederatedClient]:
        if self.client_sampler is None:
            return clients
        selected = self.client_sampler(round_index, clients, self._sampler_rng)
        if not selected:
            raise ValueError(f"client sampler selected no clients in round {round_index}")
        return selected
