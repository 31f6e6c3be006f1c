"""Benchmark of the streaming detector, in process and served over TCP.

Run from the repository root::

    python3 perfbench/run.py --workload replay_block --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` readings, and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1`` (a
readable table of it is printed first, and the spans are written to
``.perfbench/``).  Exit code 0 only when every correctness check passed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported: the
# box has two cores and the served workloads run two processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_OBS", "REPRO_BACKEND"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run that has not finished by then is killed and fails.
RUN_TIMEOUT_S = 170

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "readings_per_s": ("1/s", "higher"),
    "flag_latency_p50_ms": ("ms", "lower"),
    "flag_latency_p95_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "decided_share": ("fraction", "higher"),
    "detect_f1": ("fraction", "higher"),
    "recovered_pct": ("%", "higher"),
}

#: Paced tick rate: about half of what this configuration sustained on a
#: 2-vCPU box (~40 ticks/s).  A constant, never re-measured per run.
PACED_TICKS_PER_S = 20.0


def shapes(workload: str, seconds: float, tiny: bool):
    """The workload's sizes; ``tiny`` is for the self-tests only."""
    from replay import ReplayShape
    from serving import ServeShape

    def ticks(per_s: float, pass_ticks: int, quality: int) -> int:
        # Headroom for a faster program: it ends early rather than run dry.
        passes = max(math.ceil(2 * per_s * seconds), quality) / pass_ticks
        return pass_ticks * (math.ceil(passes) + 1)

    n = 16 if tiny else None
    if workload == "replay_block":
        quality = 128 if tiny else 384
        return ReplayShape(
            n or 1000, 8, 32, ticks(1000 if tiny else 100, 32, quality), quality, 8000
        )
    if workload == "replay_tick":
        quality = 512 if tiny else 2048
        return ReplayShape(n or 128, 1, 4, ticks(1500 if tiny else 400, 4, quality), quality, 128)
    if workload == "serve_paced":
        rate = 100.0 if tiny else PACED_TICKS_PER_S
        sent = int(rate * seconds)
        return ServeShape(n or 500, 1, 1, 1024, 20, sent, sent, rate, 0.002, 500)
    if workload == "serve_flood":
        ticks_ = ticks(600 if tiny else 80, 32, 256)
        return ServeShape(n or 1000, 8, 8, 3000, 32, ticks_, 256, None, 0.02, 8000)
    raise ValueError(f"unknown workload {workload!r}")


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    import harness
    import layers
    import replay
    import serving
    from tracing import save_spans

    shape = shapes(workload, seconds, tiny)
    module = replay if workload.startswith("replay") else serving
    try:
        result = module.run(shape, seed, seconds, trace)
    except harness.CheckFailed as failure:
        print(f"correctness check failed: {failure}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if trace:
        save_spans(ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.npz", result["spans"])
        metrics = layers.complete(result["per_layer"])
        layers.print_table(workload, metrics, set(result["per_layer"]))
    else:
        values = result["end_to_end"]
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _better) in END_TO_END.items()
        }
    return {
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def _timed_out(signum, frame) -> None:
    raise TimeoutError(f"the run did not finish within {RUN_TIMEOUT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay_block", "replay_tick", "serve_paced", "serve_flood"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="small fleets, for the self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(RUN_TIMEOUT_S)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
