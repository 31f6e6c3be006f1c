"""Tests of the benchmark's own code: span arithmetic, latency, guards, smoke runs.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import run as bench_run  # noqa: E402
import hostspeed  # noqa: E402
from hostspeed import NOMINAL_WINDOWS_PER_S, Yardstick, bracketed  # noqa: E402
from serving import flag_latencies  # noqa: E402
from tracing import Trace, Tracer, instrument, percentile  # noqa: E402

WORKLOADS = ["replay_block", "replay_tick", "serve_paced", "serve_flood"]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self) -> float:
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.on = True
    outer = tracer.begin("outer")
    a = tracer.begin("a")
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(a)
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(outer)
    trace = Trace(tracer.arrays())
    assert trace.total == {"outer": 10, "a": 3, "b": 1, "c": 4}
    assert trace.self_total == {"outer": 3, "a": 2, "b": 1, "c": 4}


def test_nested_same_name_counts_once_in_total():
    tracer = Tracer(clock=FakeClock([0, 1, 3, 6]))
    outer = tracer.begin("layer")
    inner = tracer.begin("layer")
    tracer.end(inner)
    tracer.end(outer)
    trace = Trace(tracer.arrays())
    assert trace.total["layer"] == 6
    assert trace.calls["layer"] == 1
    assert trace.self_total["layer"] == 6


def test_spans_and_counters_filter_by_tick():
    tracer = Tracer(clock=FakeClock([0, 1, 10, 12]))
    for tick in (3, 7):
        tracer.tick = tick
        tracer.end(tracer.begin("step"))
        tracer.count("windows", 5)
    trace = Trace(tracer.arrays(), lambda ticks: ticks >= 5)
    assert trace.total["step"] == 2
    assert trace.counts["windows"] == 5


def test_instrument_records_only_while_on():
    class Box:
        def work(self, x):
            return x + 1

    box = Box()
    tracer = Tracer()
    instrument(tracer, box, "work", "box.work", lambda t, args, kwargs, r: t.count("items", r))
    assert box.work(1) == 2
    tracer.on = True
    assert box.work(2) == 3
    trace = Trace(tracer.arrays())
    assert trace.calls["box.work"] == 1
    assert trace.counts["items"] == 3


def test_paced_latency_runs_from_the_releasing_tick_due_time():
    rate = 25.0
    due = np.arange(10) / rate  # an injected schedule, in seconds
    # Tick t is released by tick t + 1 and decided 20 ms after it is due.
    decided = np.append(due[1:] + 0.020, np.nan)
    latency = flag_latencies(decided, due, lateness=1, first=2, flushed_from=9)
    assert np.allclose(latency, 0.020)
    assert latency.size == 9 - 2


def test_paced_latency_charges_a_stall_to_every_delayed_tick():
    due = np.arange(10) * 0.04
    decided = np.append(due[1:] + 0.010, np.nan)
    decided[4:7] = 0.5  # the server stalls; three ticks come out late together
    latency = flag_latencies(decided, due, lateness=1, first=0, flushed_from=9)
    assert np.allclose(latency[4:7], 0.5 - due[5:8])
    assert np.allclose(np.delete(latency, [4, 5, 6]), 0.010)


def test_flood_latency_leaves_out_the_benchmarks_own_pauses():
    due = np.arange(6) * 0.1
    decided = due + 0.1 + 0.05  # 50 ms after the releasing tick was due
    # A 30 ms yardstick pause inside tick 2's latency, [0.30, 0.35].
    pauses = np.array([[0.32, 0.35]])
    latency = flag_latencies(decided, due, lateness=1, first=0, flushed_from=5, pauses=pauses)
    assert np.allclose(latency, [0.05, 0.05, 0.02, 0.05, 0.05])


def test_p95_is_refused_below_200_samples():
    with pytest.raises(ValueError, match="200 samples"):
        percentile(np.arange(199.0), 95)
    assert percentile(np.arange(200.0), 95) == pytest.approx(np.percentile(np.arange(200.0), 95))


def test_yardstick_speed_is_the_median_rate_over_nominal(monkeypatch):
    # Two forward passes of 0.5 s and 1.0 s fill a 1 s sample.
    clock = FakeClock([0.0, 0.0, 0.5, 0.5, 1.5])
    monkeypatch.setattr(hostspeed.time, "perf_counter", clock)
    yardstick = Yardstick(128)
    rates = [128 / 0.5, 128 / 1.0]
    assert yardstick.sample(1.0) == pytest.approx(np.median(rates) / NOMINAL_WINDOWS_PER_S[128])


def test_a_pass_takes_the_geometric_mean_of_the_samples_around_it():
    assert np.allclose(bracketed([1.0, 4.0, 1.0, 1.0]), [2.0, 2.0, 1.0])


def test_passes_rate_counts_only_pass_time_and_scales_by_host_speed():
    # Gaps between passes (yardstick samples) are not counted; pass 0 is
    # warm-up.  Pass 1 ran 10 readings/s on a host at half nominal speed,
    # pass 2 ran 5 readings/s at nominal speed.
    passes = harness.Passes(
        ticks=10, starts=[0.0, 2.0, 5.0], ends=[1.0, 3.0, 7.0], speeds=[1.0, 0.5, 1.0]
    )
    assert np.allclose(passes.durations(), [1.0, 1.0, 2.0])
    assert passes.readings_per_s(n_stations=1) == (20.0 + 5.0) / 2


def test_benchmark_json_matches_the_metrics_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_checks_and_reports_every_metric(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "3", "--tiny")
    traced = _run(*args, "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    result = json.loads(traced.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] > 0
    # With lateness 1, a server stall longer than a tick period (10 ms at
    # this size) lets the next tick overtake: those readings are refused.
    if workload != "serve_paced":
        assert result["failed"] == 0
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    if workload == "serve_paced":
        plain = _run(*args, "--trace", "0")
        assert plain.returncode == 0, plain.stderr
        metrics = json.loads(plain.stdout.strip().splitlines()[-1])["metrics"]
        assert set(metrics) == set(bench_run.END_TO_END)
        assert 0.5 < metrics["decided_share"]["value"] <= 1.0


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "replay_block", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
