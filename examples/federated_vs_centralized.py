"""Federated vs. centralized head-to-head (the paper's Table III / Fig. 3).

Trains both architectures on identical clean data and prints per-client
metrics plus the communication/privacy ledger: the federated run moves
only model weights, the centralized run ships every client's raw series.

Run:  python examples/federated_vs_centralized.py
Takes a couple of minutes.
Set REPRO_EXAMPLES_SMOKE=1 for the seconds-scale CI profile.
"""

import os

from repro.data import build_paper_clients, generate_paper_dataset
from repro.federated import payload_bytes
from repro.forecasting import (
    CentralizedForecaster,
    FederatedForecaster,
    forecaster_builder,
)

SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE") == "1"
SEED = 11
SEQUENCE_LENGTH = 24
N_TIMESTAMPS = 400 if SMOKE else 2000
ROUNDS = 1 if SMOKE else 3
EPOCHS_PER_ROUND = 1 if SMOKE else 5
CENTRAL_EPOCHS = 2 if SMOKE else 15

clients = build_paper_clients(generate_paper_dataset(seed=SEED, n_timestamps=N_TIMESTAMPS))
prepared = {c.name: c.prepare(SEQUENCE_LENGTH, 0.8) for c in clients}
builder = forecaster_builder(lstm_units=32, dense_units=8)

print(f"training federated LSTM ({ROUNDS} rounds x {EPOCHS_PER_ROUND} epochs/client) ...")
federated = FederatedForecaster(
    rounds=ROUNDS, epochs_per_round=EPOCHS_PER_ROUND, builder=builder, seed=SEED
).train_evaluate(prepared)

print(f"training centralized LSTM ({CENTRAL_EPOCHS} epochs on pooled raw data) ...")
centralized = CentralizedForecaster(
    epochs=CENTRAL_EPOCHS, sequence_length=SEQUENCE_LENGTH, scaling="global",
    builder=builder, seed=SEED,
).train_evaluate({c.name: c for c in clients})

print(f"\n{'client':<10} {'federated R2':>13} {'centralized R2':>15} {'fed gain':>9}")
for client in clients:
    fed_r2 = federated.metrics_of(client.name).r2
    cent_r2 = centralized.metrics_of(client.name).r2
    gain = 100.0 * (fed_r2 - cent_r2) / abs(cent_r2)
    print(f"{client.name:<10} {fed_r2:>13.4f} {cent_r2:>15.4f} {gain:>+8.1f}%")

print(
    f"\ntraining time: federated {federated.parallel_seconds:.1f}s "
    f"(modelled round barrier: slowest client per round) "
    f"vs centralized {centralized.train_seconds:.1f}s"
)

# Privacy ledger: what actually crossed the network.
weight_traffic = federated.run.communication.total_bytes()
raw_traffic = sum(c.series.nbytes for c in clients)
model_size = payload_bytes(federated.run.global_model.get_weights())
print(f"\nfederated traffic : {weight_traffic / 1e6:6.2f} MB of model weights "
      f"({federated.run.communication.rounds()} rounds, "
      f"model is {model_size / 1e3:.0f} kB)")
print(f"centralized traffic: {raw_traffic / 1e6:6.2f} MB of RAW charging data "
      "(every client's series leaves its premises)")
print("\nFederated learning wins on accuracy per client AND keeps data local —")
print("the paper's 'paradigm shift' argument for distributed industrial IoT.")
