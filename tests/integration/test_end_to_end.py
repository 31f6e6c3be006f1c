"""End-to-end integration: a miniature full experiment.

Runs the complete four-scenario protocol at micro scale and asserts the
paper's qualitative findings — the same shape checks EXPERIMENTS.md
records at full scale.  Marked ``slow`` (about a minute of compute).
"""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig2 import fig2_series, render_fig2
from repro.experiments.fig3 import fig3_series, render_fig3
from repro.experiments.runner import full_report, render_headlines
from repro.experiments.scenarios import clear_memo, get_or_run, run_experiment
from repro.experiments.table1 import render_table1, table1_rows
from repro.experiments.table2 import render_table2, table2_rows
from repro.experiments.table3 import render_table3, table3_rows

pytestmark = pytest.mark.slow

MICRO = ExperimentConfig(
    n_timestamps=700,
    lstm_units=12,
    dense_units=6,
    epochs_per_round=3,
    federated_rounds=2,
    ae_encoder_units=(16, 8),
    ae_decoder_units=(8, 16),
    ae_epochs=10,
    ae_patience=4,
    seed=42,
)


@pytest.fixture(scope="module")
def result():
    return run_experiment(MICRO)


class TestScenarioShapes:
    # At micro scale the error-metric orderings are the statistically
    # robust invariants (R² denominators vary wildly with spiky targets
    # on 140-point test sets); the full-scale R² orderings are asserted
    # by the benches (bench_table1) at fast/paper profiles.

    def test_clean_beats_attacked(self, result):
        clean = result.federated_clean.metrics_of("Client 1")
        attacked = result.federated_attacked.metrics_of("Client 1")
        assert attacked.rmse > clean.rmse
        assert attacked.mae > clean.mae

    def test_filtering_recovers_some_loss(self, result):
        attacked = result.federated_attacked.metrics_of("Client 1")
        filtered = result.federated_filtered.metrics_of("Client 1")
        assert filtered.rmse < attacked.rmse
        assert filtered.mae < attacked.mae

    def test_error_ordering_for_fig2(self, result):
        series = fig2_series(result)
        assert series.rmse["Attacked"] > series.rmse["Clean"]
        assert series.mae["Attacked"] > series.mae["Clean"]
        assert series.rmse["Filtered"] < series.rmse["Attacked"]

    def test_detection_is_precision_focused(self, result):
        overall = result.data_stage.overall_detection_metrics()
        assert overall.precision > 0.5
        assert overall.false_positive_rate < 0.1

    def test_federated_work_below_centralized(self, result):
        """The time-reduction claim as counted work, not wall-clock.

        Deployed clients train concurrently, so a round costs its largest
        client's samples x epochs; summed over rounds, that must stay below the
        pooled model's samples x epochs.  (FederatedClient.train_round
        fits with no callbacks, so it runs exactly epochs_per_round.)
        """
        run = result.federated_filtered.run
        samples = {client.name: client.n_samples for client in run.clients}
        epochs = result.config.epochs_per_round
        federated = sum(
            max(samples[name] * epochs for name in record.participants)
            for record in run.rounds
        )
        pooled = result.centralized_filtered
        assert pooled.epochs_run == result.config.centralized_epochs
        assert federated < pooled.n_samples * pooled.epochs_run


class TestArtefactGenerators:
    def test_table1_rows_complete(self, result):
        rows = table1_rows(result)
        assert [(r.scenario, r.architecture) for r in rows] == [
            ("Clean Data", "Federated"),
            ("Attacked Data", "Federated"),
            ("Filtered Data", "Federated"),
            ("Filtered Data", "Centralized"),
        ]
        assert all(np.isfinite(r.r2) for r in rows)

    def test_table2_rows_per_client(self, result):
        rows = table2_rows(result)
        assert [r.client_name for r in rows] == ["Client 1", "Client 2", "Client 3"]
        assert [r.zone_id for r in rows] == ["102", "105", "108"]

    def test_table3_rows_paired(self, result):
        rows = table3_rows(result)
        assert len(rows) == 6
        architectures = {r.architecture for r in rows}
        assert architectures == {"Federated", "Centralized"}

    def test_fig3_series_complete(self, result):
        series = fig3_series(result)
        assert set(series.federated) == {"Client 1", "Client 2", "Client 3"}
        assert set(series.centralized) == set(series.federated)

    def test_renderers_produce_text(self, result):
        for text in (
            render_table1(result),
            render_table2(result),
            render_table3(result),
            render_fig2(result),
            render_fig3(result),
            render_headlines(result),
        ):
            assert isinstance(text, str) and len(text) > 50

    def test_full_report_contains_all_sections(self, result):
        report = full_report(result)
        assert "Table I" in report
        assert "Table II" in report
        assert "Table III" in report
        assert "Fig. 2" in report
        assert "Fig. 3" in report
        assert "Headline" in report

    def test_headline_metrics_finite(self, result):
        for value in result.headline_metrics().values():
            assert np.isfinite(value)


class TestMemoisation:
    def test_get_or_run_caches(self, result):
        clear_memo()
        first = get_or_run(MICRO)
        second = get_or_run(MICRO)
        assert first is second
        clear_memo()


class TestDeterminism:
    def test_same_seed_reproduces_metrics(self, result):
        rerun = run_experiment(MICRO)
        assert (
            rerun.federated_clean.metrics_of("Client 1").r2
            == result.federated_clean.metrics_of("Client 1").r2
        )
        assert (
            rerun.centralized_filtered.metrics_of("Client 2").mae
            == result.centralized_filtered.metrics_of("Client 2").mae
        )
