"""Plan compile bench: per-schedule reference vs one streamed batch compile.

Lowers :data:`SHAPES` fresh forward shapes of GNMT and of DS2 without a
hardware config (the structural lowering a traffic op compiles for its
new ragged batches) and compiles them twice:

* **reference**: ``compile_plan_reference`` from ``tests/oracles`` on
  each schedule, one plan at a time — the compile the executor ran
  before the batch compile;
* **batched**: one :func:`repro.models.plan.compile_plans` call over
  all of them.

Both get the same schedule objects; their plans are asserted
bit-identical (work columns compared as int64 bits).  Times are
min-of-:data:`REPEATS`; ``--smoke`` runs 64 shapes twice.  Each network's batched row also reports
``tracked_per_shape``: the garbage-collector-tracked objects the
process keeps per new shape when lowering is streamed into
``compile_plans`` from cold lowering caches, as the executor does.
Every one of them is walked by each full collection.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_plan_compile.py [--smoke]
        [--json BENCH_plan_compile.json]

or through pytest (``pytest benchmarks/bench_plan_compile.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.kernels import clear_lowering_caches
from repro.models.ds2 import build_ds2
from repro.models.gnmt import build_gnmt
from repro.models.plan import compile_plans
from repro.models.spec import IterationInputs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import compile_plan_reference  # noqa: E402

NETWORKS = {"gnmt": build_gnmt, "ds2": build_ds2}
SHAPES = 1000
REPEATS = 5
SEED = 0


def fresh_shapes(count: int, seed: int) -> list[IterationInputs]:
    """``count`` distinct ragged-batch shapes (batch 1-64, SL 1-120)."""
    rng = np.random.default_rng(seed)
    shapes: dict[tuple, None] = {}
    while len(shapes) < count:
        batch, seq_len, tgt_len = rng.integers(1, (65, 121, 121)).tolist()
        shapes.setdefault((batch, seq_len, tgt_len))
    return [IterationInputs(*shape) for shape in shapes]


def assert_identical(got, expected) -> None:
    assert type(got) is type(expected)
    for field in dataclasses.fields(expected):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if field.name == "work":
            for column in dataclasses.fields(b):
                x, y = getattr(a, column.name), getattr(b, column.name)
                assert np.array_equal(x.view(np.int64), y.view(np.int64)), column.name
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def tracked_per_shape(network: str, shapes: list[IterationInputs]) -> float:
    """Tracked objects kept per shape by a streamed cold compile."""
    model = NETWORKS[network]()
    clear_lowering_caches()
    gc.collect()
    before = len(gc.get_objects())
    plans = compile_plans(model.lower_forward(inputs, None) for inputs in shapes)
    gc.collect()
    kept = len(gc.get_objects()) - before
    del plans
    return kept / len(shapes)


def run(network: str, count: int, repeats: int, seed: int) -> dict:
    model = NETWORKS[network]()
    shapes = fresh_shapes(count, seed)
    schedules = [model.lower_forward(inputs, None) for inputs in shapes]
    reference_s, batched_s = [], []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        expected = [compile_plan_reference(schedule) for schedule in schedules]
        reference_s.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        plans = compile_plans(schedules)
        batched_s.append(time.perf_counter() - start)
        for got, wanted in zip(plans, expected):
            assert_identical(got, wanted)
    del schedules
    return {
        "reference_s": min(reference_s),
        "batched_s": min(batched_s),
        "tracked_per_shape": tracked_per_shape(network, fresh_shapes(count, seed + 1)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="64 shapes per network, 2 repeats (CI)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write machine-readable results (BENCH_*.json schema)")
    args = parser.parse_args(argv)
    shapes, repeats = (64, 2) if args.smoke else (SHAPES, REPEATS)

    results = []
    for network in NETWORKS:
        measured = run(network, shapes, repeats, SEED)
        speedup = measured["reference_s"] / measured["batched_s"]
        print(
            f"{network:5s} {shapes} shapes  "
            f"reference {measured['reference_s'] * 1e3:8.1f} ms   "
            f"batched {measured['batched_s'] * 1e3:8.1f} ms   ({speedup:.2f}x)   "
            f"tracked objects/shape {measured['tracked_per_shape']:.1f}"
        )
        results += [
            {"name": f"reference[{network}]", "seconds": measured["reference_s"],
             "speedup": 1.0},
            {"name": f"batched[{network}]", "seconds": measured["batched_s"],
             "speedup": speedup, "tracked_per_shape": measured["tracked_per_shape"]},
        ]

    if args.json is not None:
        payload = {"bench": "plan_compile", "scale": shapes, "results": results}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def test_plan_compile_bit_identity():
    """Pytest entry: the batch compile equals the per-schedule oracle."""
    for network in NETWORKS:
        measured = run(network, 32, 1, seed=3)
        assert measured["tracked_per_shape"] > 0


if __name__ == "__main__":
    sys.exit(main())
