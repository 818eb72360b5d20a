"""Columnar trace core bench: old per-record path vs shape-memoized path.

Compares end-to-end *analysis* time — simulate an epoch, group it per
unique SL, histogram it, and run the full selector sweep (seqpoint,
frequent, median, prior) — between:

* **legacy**: the pre-columnar pipeline — per-iteration epoch loop
  (``epoch_records_reference`` from ``tests/oracles``) plus the
  interpreted per-record analysis scans this file preserves verbatim;
  each selector re-groups the trace, as the pre-refactor selectors did.
* **columnar**: ``run_epoch_frame`` (one kernel walk per unique shape,
  vectorized planning and broadcasting) plus the vectorized,
  frame-memoised analysis the library now ships.

Two timings are reported per run:

* *cold*: epoch 0 on untouched simulators, including the one-off
  kernel lowering/measurement cost.  That cost is O(unique shapes),
  identical on both paths by construction (the same executor substrate
  serves both), and dominates a first epoch — so this ratio mostly
  shows the shared floor;
* *steady-state*: the full multi-epoch analysis after the kernel
  substrate has seen every shape once (the regime of sweeps, cached
  engines, and long training runs).  Here the trace data path — epoch
  planning, per-iteration bookkeeping, trace construction, grouping,
  selection — is what's measured, and that is what the columnar
  refactor targets.  The headline speedup (the ≥3x claim in the
  README) is this one.

Both paths must agree bit-for-bit; the bench asserts it on every epoch.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_trace_columnar.py [--smoke]
        [--json BENCH_trace_columnar.json]

or through pytest (``pytest benchmarks/bench_trace_columnar.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.api.registry import DATASETS, MODELS, build_batching
from repro.train.frame import TraceFrame
from repro.core.baselines import FrequentSelector, MedianSelector, PriorSelector
from repro.core.seqpoint import SeqPointSelector
from repro.core.sl_stats import SlStatistics
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.train.runner import TrainingRunSimulator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import epoch_records_reference  # noqa: E402

_DATASET = {"gnmt": "iwslt", "ds2": "librispeech"}
_BATCHING = {"gnmt": "pooled", "ds2": "sortagrad"}


def build_simulator(
    network: str, scale: float, noise_sigma: float
) -> TrainingRunSimulator:
    dataset = DATASETS.create(_DATASET[network], scale=scale)
    return TrainingRunSimulator(
        model=MODELS.create(network),
        dataset=dataset,
        batching=build_batching(_BATCHING[network], 64, dataset=_DATASET[network]),
        device=GpuDevice(paper_config(1)),
        noise_sigma=noise_sigma,
    )


# -- the pre-columnar analysis loops, preserved verbatim ---------------


def legacy_sl_statistics(records):
    """Interpreted per-record grouping (pre-refactor SlStatistics)."""
    by_sl = {}
    for record in records:
        by_sl.setdefault(record.seq_len, []).append(record)
    stats = []
    for seq_len in sorted(by_sl):
        group = by_sl[seq_len]
        total = sum(r.time_s for r in group)
        mean = total / len(group)
        representative = min(group, key=lambda r: abs(r.time_s - mean))
        stats.append((seq_len, len(group), mean, total, representative))
    return stats


def legacy_histogram(records):
    histogram = {}
    for record in records:
        histogram[record.seq_len] = histogram.get(record.seq_len, 0) + 1
    return histogram


def legacy_seqpoint(records, max_unique=10, initial_bins=5, threshold=1.0):
    """Pre-refactor SeqPoint loop: re-group, bin, project in Python."""
    stats = legacy_sl_statistics(records)
    actual = sum(total for _, _, _, total, _ in stats)

    def project(points):
        return sum(weight * rep.time_s for weight, rep in points)

    if len(stats) <= max_unique:
        points = [(float(count), rep) for _, count, _, _, rep in stats]
        projected = project(points)
        return points, abs(projected - actual) / actual * 100.0

    lo, hi = stats[0][0], stats[-1][0]
    k = min(initial_bins, len(stats))
    while True:
        width = (hi - lo) / k
        buckets = [[] for _ in range(k)]
        for stat in stats:
            buckets[min(int((stat[0] - lo) / width), k - 1)].append(stat)
        points = []
        for bucket in buckets:
            if not bucket:
                continue
            iterations = sum(count for _, count, _, _, _ in bucket)
            total = sum(total for _, _, _, total, _ in bucket)
            mean = total / iterations
            best = min(bucket, key=lambda stat: abs(stat[2] - mean))
            points.append((float(iterations), best[4]))
        projected = project(points)
        error = abs(projected - actual) / actual * 100.0
        if error < threshold or k >= len(stats):
            return points, error
        k += 1


def legacy_analysis(records):
    """The full interpreted sweep: every selector re-scans the records."""
    total_time = sum(record.time_s for record in records)
    histogram = legacy_histogram(records)
    points, error = legacy_seqpoint(records)
    # frequent: per-selector re-grouping, as the old selectors did.
    frequent = max(legacy_sl_statistics(records), key=lambda stat: stat[1])
    ordered = sorted(record.seq_len for record in records)
    median_stats = legacy_sl_statistics(records)
    median_sl = ordered[len(ordered) // 2]
    start = min(200, max(0, len(records) - 50))
    prior = records[start:start + 50]
    return {
        "total_time_s": total_time,
        "unique_sls": len(histogram),
        "seqpoint_sls": sorted(rep.seq_len for _, rep in points),
        "seqpoint_error_pct": error,
        "frequent_sl": frequent[0],
        "median_sl": median_sl,
        "prior_window": len(prior),
        "_median_groups": len(median_stats),
    }


def columnar_analysis(frame):
    """The vectorized sweep over the columnar frame."""
    SlStatistics.from_trace(frame)
    result = SeqPointSelector().select(frame)
    frequent = FrequentSelector().select(frame)
    median = MedianSelector().select(frame)
    prior = PriorSelector().select(frame)
    return {
        "total_time_s": frame.total_time_s,
        "unique_sls": len(frame.iteration_histogram()),
        "seqpoint_sls": sorted(result.selection.seq_lens),
        "seqpoint_error_pct": result.identification_error_pct,
        "frequent_sl": frequent.points[0].seq_len,
        "median_sl": median.points[0].seq_len,
        "prior_window": len(prior.points),
    }


def run_comparison(network: str, scale: float, epochs: int, sigma: float):
    legacy_sim = build_simulator(network, scale, sigma)
    columnar_sim = build_simulator(network, scale, sigma)

    # Cold first epochs on untouched simulators (one-off kernel walks
    # included; that cost is shared by both paths).
    start = time.perf_counter()
    cold_records, _ = epoch_records_reference(legacy_sim, epoch=0)
    legacy_analysis(cold_records)
    cold_legacy = time.perf_counter() - start
    start = time.perf_counter()
    cold_frame = columnar_sim.run_epoch_frame(epoch=0, include_eval=False)
    columnar_analysis(cold_frame)
    cold_columnar = time.perf_counter() - start

    # Warm the shared kernel substrate over every epoch's shapes, so
    # the timed loop below measures the trace data path, not the
    # one-off measurement cost (identical on both paths anyway).
    for sim in (legacy_sim, columnar_sim):
        for epoch in range(epochs):
            sim.run_epoch_frame(epoch=epoch, include_eval=False)

    legacy_times, columnar_times = [], []
    iterations = unique = 0
    for epoch in range(epochs):
        start = time.perf_counter()
        records, _ = epoch_records_reference(legacy_sim, epoch=epoch)
        legacy_result = legacy_analysis(records)
        legacy_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        frame = columnar_sim.run_epoch_frame(epoch=epoch, include_eval=False)
        columnar_result = columnar_analysis(frame)
        columnar_times.append(time.perf_counter() - start)

        iterations = len(frame)
        unique = len(frame.unique_seq_lens())
        assert frame.time_s.tolist() == [r.time_s for r in records]
        legacy_result.pop("_median_groups")
        for key, value in columnar_result.items():
            expected = legacy_result[key]
            if isinstance(value, float):
                # Summation order differs (np pairwise vs sequential),
                # so totals agree to within float rounding only.
                assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))
            else:
                assert expected == value, (key, expected, value)

    return (cold_legacy, cold_columnar), legacy_times, columnar_times, iterations, unique


def run_cold_load(network: str, scale: float, sigma: float, repeats: int = 5):
    """Cold artefact loads: v2 JSON parse vs v3 binary mmap + views.

    Saves one simulated epoch in both formats, times ``repeats`` cold
    :meth:`TraceFrame.load` calls of each (best-of, to shave scheduler
    noise), and asserts the loaded frames are payload-bit-identical.
    """
    sim = build_simulator(network, scale, sigma)
    frame = sim.run_epoch_frame(epoch=0, include_eval=False)
    expected = json.dumps(frame.to_payload(), sort_keys=True)
    with tempfile.TemporaryDirectory() as tmp:
        artefacts = (
            ("json", Path(tmp) / "epoch.json", 2),
            ("binary", Path(tmp) / "epoch.npt", 3),
        )
        for _, path, version in artefacts:
            frame.save(path, version=version)
        times: dict[str, float] = {}
        for fmt, path, _ in artefacts:
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                loaded = TraceFrame.load(path)
                samples.append(time.perf_counter() - start)
            assert json.dumps(loaded.to_payload(), sort_keys=True) == expected
            times[fmt] = min(samples)
    return len(frame), times["json"], times["binary"]


def report_cold_load(network, iterations, json_s, binary_s):
    speedup = json_s / binary_s
    print(
        f"  cold artefact load ({iterations} iterations):      "
        f"json v2  {json_s * 1e3:8.1f} ms   "
        f"binary v3 {binary_s * 1e3:8.1f} ms   "
        f"({speedup:.2f}x)"
    )
    return speedup


def report(network, cold, legacy_times, columnar_times, iterations, unique):
    cold_legacy, cold_columnar = cold
    steady_legacy = sum(legacy_times)
    steady_columnar = sum(columnar_times)
    speedup = steady_legacy / steady_columnar
    print(
        f"{network}: {iterations} iterations/epoch, {unique} unique SLs, "
        f"{len(legacy_times)} epochs"
    )
    print(
        f"  cold epoch (incl. shared one-off kernel walks): "
        f"legacy {cold_legacy * 1e3:8.1f} ms   "
        f"columnar {cold_columnar * 1e3:8.1f} ms   "
        f"({cold_legacy / cold_columnar:.2f}x)"
    )
    print(
        f"  multi-epoch analysis (warm kernel substrate):   "
        f"legacy {steady_legacy * 1e3:8.1f} ms   "
        f"columnar {steady_columnar * 1e3:8.1f} ms   "
        f"({speedup:.2f}x)"
    )
    return speedup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, 2 epochs, no speedup assertion")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="corpus scale (default 0.5)")
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--sigma", type=float, default=0.0,
                        help="measurement-noise sigma (default 0: exact)")
    parser.add_argument("--networks", default="gnmt",
                        help="comma-separated: gnmt,ds2")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write machine-readable results (BENCH_*.json schema)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.epochs = 0.05, 2

    worst = float("inf")
    worst_load = float("inf")
    entries = []
    for network in args.networks.split(","):
        outcome = run_comparison(network, args.scale, args.epochs, args.sigma)
        worst = min(worst, report(network, *outcome))
        _, legacy_times, columnar_times, _, _ = outcome
        steady_legacy, steady_columnar = sum(legacy_times), sum(columnar_times)
        entries.append(
            {"name": f"{network}_steady_legacy", "seconds": steady_legacy,
             "speedup": 1.0}
        )
        entries.append(
            {"name": f"{network}_steady_columnar", "seconds": steady_columnar,
             "speedup": steady_legacy / steady_columnar}
        )
        iterations, json_s, binary_s = run_cold_load(
            network, args.scale, args.sigma
        )
        worst_load = min(
            worst_load, report_cold_load(network, iterations, json_s, binary_s)
        )
        entries.append(
            {"name": f"{network}_cold_load_json", "seconds": json_s,
             "speedup": 1.0}
        )
        entries.append(
            {"name": f"{network}_cold_load_binary", "seconds": binary_s,
             "speedup": json_s / binary_s}
        )
    if args.json is not None:
        payload = {"bench": "trace_columnar", "scale": args.scale, "results": entries}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if not args.smoke and worst < 3.0:
        print(f"WARNING: steady-state speedup {worst:.2f}x below the 3x target")
        return 1
    if not args.smoke and worst_load < 5.0:
        print(f"WARNING: cold-load speedup {worst_load:.2f}x below the 5x target")
        return 1
    return 0


def test_cold_load_binary_beats_json(scale):
    """Pytest entry: v3 binary cold loads must beat v2 JSON parsing."""
    _, json_s, binary_s = run_cold_load("gnmt", max(scale, 0.2), sigma=0.0)
    assert binary_s < json_s, f"binary {binary_s:.4f}s vs json {json_s:.4f}s"


def test_columnar_steady_state_speedup(scale):
    """Pytest entry: the columnar path must beat legacy by >=2x."""
    _, legacy_times, columnar_times, _, _ = run_comparison(
        "gnmt", max(scale, 0.2), epochs=3, sigma=0.0
    )
    steady_legacy = sum(legacy_times)
    steady_columnar = sum(columnar_times)
    assert steady_columnar < steady_legacy / 2.0, (
        f"columnar {steady_columnar:.4f}s vs legacy {steady_legacy:.4f}s"
    )


if __name__ == "__main__":
    raise SystemExit(main())
