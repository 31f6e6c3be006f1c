"""Quickstart: the full paper pipeline in ~40 lines.

Generates the three-zone Shenzhen-like dataset, injects DDoS-style
spikes, detects and repairs them with the EVChargingAnomalyFilter, and
trains the federated LSTM on the repaired data.

Run:  python examples/quickstart.py
Takes a couple of minutes (reduced-scale models).
Set REPRO_EXAMPLES_SMOKE=1 for the seconds-scale CI profile.
"""

import os

from repro.anomaly import AutoencoderConfig, EVChargingAnomalyFilter
from repro.attacks import AttackScenario, DDoSVolumeAttack
from repro.data import build_paper_clients, generate_paper_dataset, temporal_split
from repro.forecasting import FederatedForecaster, forecaster_builder

SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE") == "1"
SEED = 7
SEQUENCE_LENGTH = 24
N_TIMESTAMPS = 400 if SMOKE else 1500
AE_EPOCHS = 2 if SMOKE else 15
ROUNDS = 1 if SMOKE else 3
EPOCHS_PER_ROUND = 1 if SMOKE else 5

# 1. Data: three traffic zones (102/105/108) of hourly charging volume.
clients = build_paper_clients(generate_paper_dataset(seed=SEED, n_timestamps=N_TIMESTAMPS))
print("clients:", ", ".join(f"{c.name} (zone {c.zone_id}, {len(c)} h)" for c in clients))

# 2. Attack: DDoS volume spikes derived from the documented 10.6x
#    packet-rate multiplier, independently scheduled per client.
outcomes = AttackScenario([DDoSVolumeAttack()], name="demo").apply(clients, seed=SEED)
for client in clients:
    outcome = outcomes[client.name]
    print(f"{client.name}: {outcome.result.n_anomalous} attacked hours "
          f"({100 * outcome.result.contamination:.1f}% contamination)")

# 3. Detect + repair per client (LSTM autoencoder, 98th-percentile
#    threshold, <=2-gap merging, linear interpolation).
ae_config = AutoencoderConfig(
    sequence_length=SEQUENCE_LENGTH,
    encoder_units=(32, 16), decoder_units=(16, 32),
    epochs=AE_EPOCHS, patience=5,
)
filtered_clients = []
for client in clients:
    normal_train, _ = temporal_split(client.series, 0.8)
    anomaly_filter = EVChargingAnomalyFilter(
        sequence_length=SEQUENCE_LENGTH, config=ae_config, seed=SEED
    )
    outcome = anomaly_filter.fit_filter(normal_train, outcomes[client.name].client.series)
    print(f"{client.name}: flagged {outcome.n_flagged} hours "
          f"(threshold {outcome.threshold:.5f})")
    filtered_clients.append(client.with_series(outcome.filtered))

# 4. Federated LSTM on the repaired data: 3 rounds x 5 local epochs,
#    FedAvg weight synchronisation, only parameters ever leave a client.
prepared = {c.name: c.prepare(SEQUENCE_LENGTH, 0.8) for c in filtered_clients}
forecaster = FederatedForecaster(
    rounds=ROUNDS, epochs_per_round=EPOCHS_PER_ROUND,
    builder=forecaster_builder(lstm_units=32, dense_units=8),
    seed=SEED,
)
result = forecaster.train_evaluate(prepared)

print()
for name, forecast in result.forecasts.items():
    print(f"{name}: {forecast.metrics}")
print(f"modelled round barrier (slowest client per round): "
      f"{result.parallel_seconds:.1f}s (all clients' compute {result.sequential_seconds:.1f}s)")
payload = result.run.communication.total_bytes() / 1e6
print(f"total weight traffic: {payload:.2f} MB — raw data never left a client")
