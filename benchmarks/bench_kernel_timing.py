"""Kernel-timing bench: scalar reference vs the batched plan pipeline.

Times genuinely *cold* whole-epoch simulation — lowering, autotune
charging, kernel timing, evaluation pass, measurement noise — on GNMT
and DS2, twice per trial:

* **scalar**: a ``TrainingRunSimulator`` switched onto the scalar
  oracles of ``tests/oracles`` (``scalar_pipeline``), i.e. the
  per-invocation measurement loop and scalar autotune candidate timing
  the pipeline had before the columnar ``SchedulePlan`` refactor;
* **batched**: the default pipeline — one compiled plan per unique
  shape, a single vectorized device call per plan, vectorized autotune
  candidate racing.

Every lowering/measurement/plan cache is cleared before each timed run
(cold means cold), and the two paths' trace frames are asserted
bit-identical on every trial.  Times are min-of-``--repeats`` to shed
scheduler noise; the headline is the combined (GNMT+DS2) speedup.

The >=2x CI gate is skipped with a note on constrained runners —
single-core hosts (as in ``bench_parallel_sweep.py``) or runs too fast
to time reliably.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernel_timing.py [--smoke]
        [--json BENCH_kernel_timing.json]

or through pytest (``pytest benchmarks/bench_kernel_timing.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.api.registry import (
    DATASETS,
    MODELS,
    build_batching,
    default_batching,
    default_dataset,
)
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice, clear_measure_caches
from repro.kernels import clear_lowering_caches
from repro.models.plan import PLAN_CACHE
from repro.train.runner import TrainingRunSimulator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import scalar_pipeline  # noqa: E402

NETWORKS = ("gnmt", "ds2")
#: Scalar epoch time below which a runner is too fast/noisy to gate on.
MIN_RELIABLE_SCALAR_S = 0.15


def build_simulator(network: str, scale: float, batched: bool) -> TrainingRunSimulator:
    dataset_name = default_dataset(network)
    corpus = DATASETS.create(dataset_name, scale=scale)
    train, evaluation = corpus.split(0.02, seed=7)
    simulator = TrainingRunSimulator(
        model=MODELS.create(network),
        dataset=train,
        batching=build_batching(default_batching(network), 64, dataset=dataset_name),
        device=GpuDevice(paper_config(1)),
        eval_dataset=evaluation,
        noise_sigma=0.02,
    )
    return simulator if batched else scalar_pipeline(simulator)


def clear_all_caches() -> None:
    """Reset every memo the pipeline shares, so the next run is cold."""
    PLAN_CACHE.clear()
    clear_measure_caches()
    clear_lowering_caches()


def cold_epoch(network: str, scale: float, batched: bool):
    """One cold whole-epoch simulation; returns (seconds, frame)."""
    clear_all_caches()
    simulator = build_simulator(network, scale, batched)
    start = time.perf_counter()
    frame = simulator.run_epoch_frame(0)
    return time.perf_counter() - start, frame


def run_comparison(scale: float, repeats: int):
    """Min-of-``repeats`` cold epochs per path per network.

    Asserts scalar/batched frame bit-identity on every trial.
    """
    measurements = {}
    for network in NETWORKS:
        scalar_times, batched_times = [], []
        for _ in range(repeats):
            scalar_s, scalar_frame = cold_epoch(network, scale, batched=False)
            batched_s, batched_frame = cold_epoch(network, scale, batched=True)
            assert batched_frame.to_payload() == scalar_frame.to_payload(), (
                f"{network}: batched pipeline diverged from the scalar reference"
            )
            scalar_times.append(scalar_s)
            batched_times.append(batched_s)
        measurements[network] = (min(scalar_times), min(batched_times))
    return measurements


def report(measurements) -> float:
    total_scalar = sum(scalar for scalar, _ in measurements.values())
    total_batched = sum(batched for _, batched in measurements.values())
    for network, (scalar_s, batched_s) in measurements.items():
        print(
            f"{network:12s} scalar {scalar_s * 1e3:8.1f} ms   "
            f"batched {batched_s * 1e3:8.1f} ms   "
            f"({scalar_s / batched_s:.2f}x)"
        )
    combined = total_scalar / total_batched
    print(
        f"{'combined':12s} scalar {total_scalar * 1e3:8.1f} ms   "
        f"batched {total_batched * 1e3:8.1f} ms   ({combined:.2f}x)"
    )
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller corpora and fewer repeats (CI)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="corpus scale (default 0.1)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="trials per path; min is reported (default 5)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write machine-readable results (BENCH_*.json schema)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.repeats = 0.05, 2

    measurements = run_comparison(args.scale, args.repeats)
    combined = report(measurements)
    total_scalar = sum(scalar for scalar, _ in measurements.values())

    if args.json is not None:
        results = [
            {"name": "scalar", "seconds": total_scalar, "speedup": 1.0},
            {
                "name": "batched",
                "seconds": sum(b for _, b in measurements.values()),
                "speedup": combined,
            },
        ]
        for network, (scalar_s, batched_s) in measurements.items():
            results.append(
                {
                    "name": f"batched[{network}]",
                    "seconds": batched_s,
                    "speedup": scalar_s / batched_s,
                }
            )
        payload = {
            "bench": "kernel_timing",
            "scale": args.scale,
            "results": results,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    cores = os.cpu_count() or 1
    if cores < 2:
        print(f"NOTE: only {cores} CPU; speedup gate skipped")
    elif total_scalar < MIN_RELIABLE_SCALAR_S:
        print(
            f"NOTE: scalar epochs took {total_scalar * 1e3:.0f} ms "
            f"(< {MIN_RELIABLE_SCALAR_S * 1e3:.0f} ms); too fast to gate"
        )
    elif combined < 2.0:
        print(f"WARNING: batched speedup {combined:.2f}x below the 2x gate")
        return 1
    return 0


def test_kernel_timing_bit_identity(scale):
    """Pytest entry: batched frames must equal the scalar reference."""
    run_comparison(scale=min(scale, 0.05), repeats=1)


if __name__ == "__main__":
    raise SystemExit(main())
