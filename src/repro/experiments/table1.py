"""Table I — complete performance comparison for Client 1.

Paper rows (MAE / RMSE / R² / Time s):

=============  ============  ======  ======  ======  ========
Scenario       Architecture  MAE     RMSE    R²      Time (s)
=============  ============  ======  ======  ======  ========
Clean Data     Federated     3.3859  5.3162  0.9075  80.85
Attacked Data  Federated     4.4134  6.2835  0.8707  80.33
Filtered Data  Federated     3.9801  5.7921  0.8883  85.95
Filtered Data  Centralized   6.1644  8.6040  0.7536  101.46
=============  ============  ======  ======  ======  ========

Federated times are the modelled round barrier: the slowest client's
training seconds per round, summed over rounds (stations train
concurrently in deployment).  The centralized time is its actual
training wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import render_table
from repro.experiments.scenarios import ExperimentResult

#: The paper's reported Table I (scenario, architecture) -> (MAE, RMSE, R2, time).
PAPER_TABLE1: dict[tuple[str, str], tuple[float, float, float, float]] = {
    ("Clean Data", "Federated"): (3.3859, 5.3162, 0.9075, 80.85),
    ("Attacked Data", "Federated"): (4.4134, 6.2835, 0.8707, 80.33),
    ("Filtered Data", "Federated"): (3.9801, 5.7921, 0.8883, 85.95),
    ("Filtered Data", "Centralized"): (6.1644, 8.6040, 0.7536, 101.46),
}


@dataclass(frozen=True)
class Table1Row:
    """One measured row of Table I."""

    scenario: str
    architecture: str
    mae: float
    rmse: float
    r2: float
    time_seconds: float


def table1_rows(result: ExperimentResult, client_name: str = "Client 1") -> list[Table1Row]:
    """Measured Table I rows in the paper's order."""
    rows = []
    for variant, scenario_label in (
        ("clean", "Clean Data"),
        ("attacked", "Attacked Data"),
        ("filtered", "Filtered Data"),
    ):
        federated = result.federated_result(variant)
        metrics = federated.metrics_of(client_name)
        rows.append(
            Table1Row(
                scenario=scenario_label,
                architecture="Federated",
                mae=metrics.mae,
                rmse=metrics.rmse,
                r2=metrics.r2,
                time_seconds=federated.parallel_seconds,
            )
        )
    centralized_metrics = result.centralized_filtered.metrics_of(client_name)
    rows.append(
        Table1Row(
            scenario="Filtered Data",
            architecture="Centralized",
            mae=centralized_metrics.mae,
            rmse=centralized_metrics.rmse,
            r2=centralized_metrics.r2,
            time_seconds=result.centralized_filtered.train_seconds,
        )
    )
    return rows


def render_table1(result: ExperimentResult, client_name: str = "Client 1") -> str:
    """Printable Table I with measured and paper values side by side."""
    body = []
    for row in table1_rows(result, client_name):
        paper = PAPER_TABLE1[(row.scenario, row.architecture)]
        body.append(
            [
                row.scenario,
                row.architecture,
                row.mae,
                row.rmse,
                row.r2,
                row.time_seconds,
                f"{paper[0]:.4f}/{paper[1]:.4f}/{paper[2]:.4f}",
            ]
        )
    return render_table(
        ["Scenario", "Architecture", "MAE", "RMSE", "R2", "Time (s)", "paper MAE/RMSE/R2"],
        body,
        title=f"Table I — complete performance comparison for {client_name}",
    )
