"""End-to-end benchmark of the SeqPoint reproduction, run from a checkout root.

    python3 perfbench/run.py --workload analyze-cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``analyze-cold`` — ``AnalysisEngine().run`` at paper scale with
  projection onto all five Table II configs, one fresh interpreter per
  op, alternating gnmt and ds2.
* ``serve-warm`` — an in-process ``ReproServer`` warmed by one seed-0
  analyze job per network, then two closed-loop HTTP clients submitting
  fresh (network, seed) analyze jobs with rotating selectors.
* ``traffic-warm`` — one engine warmed by a seed-0 run of each scenario,
  then ``run_traffic`` at fresh seeds, projected onto config 3.

The inputs are a function of ``--seed`` and ``--seconds`` alone: a run
performs a fixed list of ops, sized from ``--seconds`` by each
workload's op rate on the recorded host.  The warm workloads
change state as they go (plan cache, retained jobs), so a fixed op list
keeps every metric a function of the program, not of how many ops one
run happened to fit in.

Each op runs in a child interpreter (``perfbench/work.py``) with
``PYTHONPATH=src``; this process only generates inputs, starts the
children one at a time, and turns their replies into metrics.  Every
timing is normalized to a nominal host speed (``perfbench/calibrate.py``);
the report prints raw seconds beside it.

``--trace 1`` instead runs the same ops twice, untraced and then with
the layer wrappers of ``perfbench/tracing.py``, and reports the
per-layer metrics, the tracing overhead and the share of op time no
layer accounts for.  Spans are written to ``.perfbench/``.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2 means
the benchmark could not run at all (for example, no ``src/repro``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
from tracing import LAYER_SPANS  # noqa: E402

WORKLOADS = ("analyze-cold", "serve-warm", "traffic-warm")
#: Ops per ``--seconds``: the recorded host's raw rate in its slow
#: phases, so a run's ops take about ``--seconds`` there; and the floor
#: on a run's op count (100 serve jobs put ten beyond the p90).
OP_RATE = {"analyze-cold": 0.3, "serve-warm": 5.0, "traffic-warm": 0.9}
MIN_OPS = {"analyze-cold": 4, "serve-warm": 100, "traffic-warm": 4}
#: Set-ups per run of the warm workloads (the median is reported).
SETUP_REPEATS = 3
#: Closed-loop HTTP client threads driving the serve-warm daemon.
SERVE_CLIENTS = 2
SERVE_POLL_S = 0.01
#: Serve jobs per round; the host-speed reference is timed between rounds.
ROUND_JOBS = 10
CHILD_TIMEOUT_S = 170.0
SELECTORS = ("seqpoint", "frequent", "median", "segmented")
NETWORKS = ("gnmt", "ds2")
OUT_DIR = ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "gnmt_op_s": "s",
    "ds2_op_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "data.resolve_s": "s/op",
    "data.plan_epoch_s": "s/op",
    "models.lower_s": "s/op",
    "models.lower_calls": "count/op",
    "plan.compile_s": "s/op",
    "plan.lookup_s": "s/op",
    "plan.hit_ratio": "ratio",
    "plan.entries": "count",
    "kernels.autotune_s": "s/op",
    "kernels.autotune_shapes": "count/op",
    "kernels.gemm_hit_ratio": "ratio",
    "hw.run_batch_s": "s/op",
    "hw.rows": "count/op",
    "train.epoch_s": "s/op",
    "train.iterations": "count/op",
    "train.unique_shapes": "count/op",
    "cache.lookup_s": "s/op",
    "cache.hit_ratio": "ratio",
    "cache.bytes": "bytes",
    "core.select_s": "s/op",
    "core.project_s": "s/op",
    "stream.identify_s": "s/op",
    "stream.checks": "count/op",
    "traffic.sample_s": "s/op",
    "traffic.form_s": "s/op",
    "traffic.serve_s": "s/op",
    "traffic.shape_reuse": "ratio",
    "serve.queue_wait_s": "s/op",
    "serve.run_s": "s/op",
    "serve.transport_s": "s/op",
    "serve.jobs_retained": "count",
    "projection_error_pct": "%",
    "stream_error_pct": "%",
    "trace_overhead_pct": "%",
    "unattributed_pct": "%",
    "failed_ratio": "ratio",
}

#: Per-op counters the tracer keeps, reported divided by the op count.
PER_OP_COUNTERS = (
    "models.lower_calls", "kernels.autotune_shapes", "hw.rows",
    "train.iterations", "train.unique_shapes", "stream.checks",
)


class BenchError(Exception):
    """The benchmark cannot run at all (exit code 2, no result line)."""


# -- inputs -------------------------------------------------------------


def op_count(workload: str, seconds: float) -> int:
    """Ops in a run: even, so both networks get the same share."""
    wanted = 2 * math.ceil(seconds * OP_RATE[workload] / 2)
    return max(MIN_OPS[workload], wanted)


def fresh_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Distinct positive spec seeds; 0 is reserved for warm-up."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    return rng.sample(range(1, 2**31 - 1), count)


def traffic_spec(network: str, seed: int) -> dict:
    base = {
        "analysis": {"network": network, "scale": 1.0, "seed": seed},
        "targets": [3],
    }
    if network == "gnmt":
        return {
            **base,
            "arrival": "poisson",
            "rate": 64.0,
            "requests": 65536,
            "phases": [
                {"fraction": 0.5, "quantile_lo": 0.0, "quantile_hi": 0.6},
                {"fraction": 0.5, "quantile_lo": 0.4, "quantile_hi": 1.0},
            ],
        }
    return {**base, "arrival": "bursty", "requests": 262144}


def analyze_job(index: int, seed: int) -> dict:
    """Job ``index``: networks alternate, selectors rotate every two, so
    every (network, selector) pair recurs every eight jobs."""
    return {
        "kind": "analyze",
        "spec": {
            "network": NETWORKS[index % 2],
            "scale": 1.0,
            "seed": seed,
            "selector": SELECTORS[(index // 2) % len(SELECTORS)],
        },
    }


def make_inputs(workload: str, seed: int, count: int) -> dict:
    seeds = fresh_seeds(workload, seed, count)
    if workload == "analyze-cold":
        return {"ops": [
            {
                "spec": {"network": NETWORKS[i % 2], "scale": 1.0, "seed": s},
                "projection": {"targets": [1, 2, 3, 4, 5]},
            }
            for i, s in enumerate(seeds)
        ]}
    if workload == "serve-warm":
        return {
            "kind": "serve",
            "warmup": [
                {"kind": "analyze",
                 "spec": {"network": n, "scale": 1.0, "seed": 0}}
                for n in NETWORKS
            ],
            "jobs": [analyze_job(i, s) for i, s in enumerate(seeds)],
            "clients": SERVE_CLIENTS,
            "poll_s": SERVE_POLL_S,
            "round_jobs": ROUND_JOBS,
        }
    return {
        "kind": "traffic",
        "warmup": [traffic_spec(n, 0) for n in NETWORKS],
        "ops": [traffic_spec(NETWORKS[i % 2], s) for i, s in enumerate(seeds)],
    }


# -- child processes ----------------------------------------------------


def spawn(request: dict) -> tuple[dict | None, float]:
    """Run one child to completion; ``(reply or None, set-up seconds)``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    work = os.path.join(os.path.dirname(os.path.abspath(__file__)), "work.py")
    spawned = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, work],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        out, _ = child.communicate(json.dumps(request), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"perfbench: {request['kind']} child timed out", file=sys.stderr)
        return None, 0.0
    if child.returncode != 0:
        print(
            f"perfbench: {request['kind']} child exited {child.returncode}",
            file=sys.stderr,
        )
        return None, 0.0
    reply = json.loads(out.strip().splitlines()[-1])
    return reply, reply["ready"] - spawned


def run_cold(ops: list[dict], extra: dict | None = None) -> dict:
    """One cold child per op, one after another."""
    records, setups, rss, replies = [], [], [], []
    wall_s = norm_wall_s = 0.0
    for i, op in enumerate(ops):
        request = {"kind": "analyze", **op}
        if extra:
            request.update(extra, trace_out=f"{extra['trace_out']}-op{i}.json")
        reply, setup = spawn(request)
        if reply is None:
            records.append(lost_op(op["spec"]["network"]))
            continue
        record = reply["ops"][0]
        # What a user pays per analysis: interpreter start, import,
        # engine build and the run itself.
        wall_s += setup + record["run_s"]
        norm_wall_s += (setup + record["run_s"]) * record["factor"]
        records.append(record)
        setups.append(setup * setup_factor(reply))
        rss.append(reply["rss_mb"])
        replies.append(reply)
    return {
        "ops": records,
        "wall_s": wall_s,
        "norm_wall_s": norm_wall_s,
        "setups": setups,
        "rss_mb": max(rss, default=0.0),
        "replies": replies,
    }


def setup_factor(reply: dict) -> float:
    """Set-up is scaled by the reference the child took right after it."""
    return calibrate.factor(reply["setup_ref_s"], reply["setup_ref_s"])


def run_warm(request: dict, setup_repeats: int) -> dict:
    """``setup_repeats - 1`` set-up-only children, then the timed one."""
    setups = []
    for repeat in range(setup_repeats):
        last = repeat == setup_repeats - 1
        reply, setup = spawn(request if last else {**request, "setup_only": True})
        if reply is None:
            raise BenchError(f"{request['kind']} child failed")
        setups.append(setup * setup_factor(reply))
    return {**reply, "setups": setups, "replies": [reply]}


def lost_op(network: str) -> dict:
    return {"network": network, "run_s": None, "factor": None,
            "problems": ["child failed"], "digest": None, "errors": []}


def run_workload(workload: str, inputs: dict, extra: dict | None = None,
                 setup_repeats: int = 1) -> dict:
    if workload == "analyze-cold":
        return run_cold(inputs["ops"], extra)
    if extra:
        extra = {**extra, "trace_out": f"{extra['trace_out']}.json"}
    return run_warm({**inputs, **(extra or {})}, setup_repeats)


# -- metrics ------------------------------------------------------------


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Normalized metrics, and the raw seconds behind the timings."""
    ok = [op for op in run["ops"] if op["run_s"] is not None]

    def timings(scaled: bool) -> dict[str, float]:
        seconds = [op["run_s"] * (op["factor"] if scaled else 1.0) for op in ok]
        by_net = {
            net: [s for s, op in zip(seconds, ok) if op["network"] == net]
            for net in NETWORKS
        }
        # Means, not medians: a warm traffic op's cost depends on how many
        # shapes its seed adds to the plan cache, and the median of nine
        # DS2 traffic runs moved between 0.43 s and 0.69 s run to run.
        return {
            "gnmt_op_s": statistics.fmean(by_net["gnmt"]),
            "ds2_op_s": statistics.fmean(by_net["ds2"]),
            "op_p90_s": p90(seconds),
            "ops_per_s": len(ok) / run["norm_wall_s" if scaled else "wall_s"],
        }

    metrics = {
        "setup_s": statistics.median(run["setups"]),
        **timings(scaled=True),
        "peak_rss_mb": run["rss_mb"],
    }
    return metrics, timings(scaled=False)


def result_digest(ops: list[dict]) -> str:
    joined = ",".join(str(op["digest"]) for op in ops)
    return hashlib.sha256(joined.encode()).hexdigest()


def failures(ops: list[dict]) -> int:
    failed = 0
    for op in ops:
        if op["problems"]:
            failed += 1
            for problem in op["problems"]:
                print(f"  FAILED {op['network']}: {problem}", file=sys.stderr)
    return failed


def check_complete(workload: str, run: dict) -> None:
    for network in NETWORKS:
        if not any(op["run_s"] is not None and op["network"] == network
                   for op in run["ops"]):
            raise BenchError(f"{workload}: no {network} op completed")


def timed(workload: str, seed: int, seconds: float) -> dict:
    inputs = make_inputs(workload, seed, op_count(workload, seconds))
    run = run_workload(workload, inputs, setup_repeats=SETUP_REPEATS)
    check_complete(workload, run)
    failed = failures(run["ops"])
    metrics, raw = end_to_end(run)
    factors = [op["factor"] for op in run["ops"] if op["factor"] is not None]
    print(f"perfbench {workload} seed={seed}: {len(run['ops'])} ops, "
          f"{failed} failed, raw wall {run['wall_s']:.2f} s, host speed "
          f"factor median {statistics.median(factors):.3f} "
          f"[{min(factors):.3f}, {max(factors):.3f}]")
    print(f"digest {workload} seed={seed}: {result_digest(run['ops'])}")
    print(f"  {'metric':<14} {'normalized':>14} {'raw':>14} unit")
    for name, value in metrics.items():
        raw_value = f"{raw[name]:>14.6f}" if name in raw else f"{'':>14}"
        print(f"  {name:<14} {value:>14.6f} {raw_value} "
              f"{END_TO_END_UNITS[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(run["ops"]),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }


# -- traced run ---------------------------------------------------------


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def cache_ratios(first: dict, snap: dict) -> dict[str, float]:
    return {
        layer: ratio(snap[f"{key}_hits"] - first[f"{key}_hits"],
                     snap[f"{key}_misses"] - first[f"{key}_misses"])
        for layer, key in (("plan.hit_ratio", "plan"),
                           ("kernels.gemm_hit_ratio", "gemm"),
                           ("cache.hit_ratio", "cache"))
    }


def cache_metrics(series: list[list[dict]]) -> dict[str, float]:
    """Hit ratios over the timed ops and final sizes; ``series`` holds
    one cumulative snapshot list per process."""
    totals = {
        key: sum(s[-1][key] - s[0][key] for s in series)
        for key in ("plan_hits", "plan_misses", "gemm_hits", "gemm_misses",
                    "cache_hits", "cache_misses")
    }
    return {
        **cache_ratios(dict.fromkeys(totals, 0), totals),
        "plan.entries": max(s[-1]["plan_entries"] for s in series),
        "cache.bytes": max(s[-1]["cache_bytes"] for s in series),
    }


def print_cache_table(series: list[list[dict]]) -> None:
    print("  cache ratios after each op (cumulative over the process's "
          "timed ops)")
    print(f"  {'op':>4} {'plan.hit':>9} {'plan.entries':>12} "
          f"{'gemm.hit':>9} {'cache.hit':>9} {'cache.bytes':>12}")
    op = 0
    for snapshots in series:
        for snap in snapshots[1:]:
            op += 1
            ratios = cache_ratios(snapshots[0], snap)
            print(f"  {op:>4} {ratios['plan.hit_ratio']:>9.4f} "
                  f"{snap['plan_entries']:>12} "
                  f"{ratios['kernels.gemm_hit_ratio']:>9.4f} "
                  f"{ratios['cache.hit_ratio']:>9.4f} "
                  f"{snap['cache_bytes']:>12}")


def layer_metrics(workload: str, plain: dict, traced_run: dict) -> dict:
    """Per-layer metrics from the traced pass, overhead from both."""
    replies, ops = traced_run["replies"], traced_run["ops"]
    self_s, counters = {}, {}
    op_wall = op_total = 0.0
    for reply in replies:
        trace = reply["trace"]
        for totals, part in ((self_s, "self_s"), (counters, "counters")):
            for name, value in trace[part].items():
                totals[name] = totals.get(name, 0.0) + value
        op_wall += trace["op_wall_s"]
        op_total += trace["ops"]
    per_op = max(op_total, 1.0)
    metrics = {f"{layer}_s": self_s.get(layer, 0.0) / per_op
               for layer in LAYER_SPANS}
    for name in PER_OP_COUNTERS:
        metrics[name] = counters.get(name, 0.0) / per_op
    unique = counters.get("traffic.unique_shapes", 0.0)
    metrics["traffic.shape_reuse"] = (
        counters.get("traffic.batches", 0.0) / unique if unique else 0.0
    )
    metrics.update(cache_metrics([reply["caches"] for reply in replies]))

    served = [op for op in ops if "queue_wait_s" in op]
    metrics["serve.queue_wait_s"] = metrics["serve.run_s"] = 0.0
    metrics["serve.transport_s"] = metrics["serve.jobs_retained"] = 0.0
    if workload == "serve-warm" and served:
        metrics["serve.queue_wait_s"] = statistics.fmean(
            op["queue_wait_s"] for op in served)
        metrics["serve.run_s"] = statistics.fmean(
            op["job_run_s"] for op in served)
        metrics["serve.transport_s"] = statistics.fmean(
            op["run_s"] - op["queue_wait_s"] - op["job_run_s"]
            for op in served)
        metrics["serve.jobs_retained"] = replies[0]["jobs_retained"]

    metrics["projection_error_pct"] = statistics.fmean(
        e for op in ops for e in op["errors"])
    stream = [e for op in ops for e in op.get("stream_errors", [])]
    metrics["stream_error_pct"] = statistics.fmean(stream) if stream else 0.0
    # Op i of both passes ran the same spec from the same state, so the
    # median per-op ratio of normalized times is robust to a noise burst
    # in either pass.  Serve jobs compare their server-side run time:
    # client latency moves in whole poll intervals.
    def op_s(op: dict) -> float:
        return op.get("job_run_s", op["run_s"]) * op["factor"]

    metrics["trace_overhead_pct"] = (statistics.median(
        op_s(t) / op_s(p) for p, t in zip(plain["ops"], ops)
        if p["run_s"] is not None and t["run_s"] is not None
    ) - 1.0) * 100.0
    attributed = sum(self_s.get(layer, 0.0) for layer in LAYER_SPANS)
    metrics["unattributed_pct"] = (
        (op_wall - attributed) / op_wall * 100.0 if op_wall else 0.0
    )
    return metrics


def traced(workload: str, seed: int, seconds: float) -> dict:
    inputs = make_inputs(workload, seed, op_count(workload, seconds))
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}")
    plain = run_workload(workload, inputs)
    tagged = run_workload(workload, inputs, {"trace": True, "trace_out": out})
    for run in (plain, tagged):
        check_complete(workload, run)
    failed = failures(plain["ops"]) + failures(tagged["ops"])
    attempted = len(plain["ops"]) + len(tagged["ops"])
    metrics = layer_metrics(workload, plain, tagged)
    metrics["failed_ratio"] = failed / attempted

    print(f"perfbench {workload} seed={seed} traced: {len(tagged['ops'])} "
          f"ops traced, {len(plain['ops'])} untraced, {failed} failed; "
          f"spans in {out}*.json")
    print(f"digest {workload} seed={seed}: {result_digest(tagged['ops'])}")
    print_cache_table([reply["caches"] for reply in tagged["replies"]])
    print(f"  {'metric':<24} {'value':>16} unit")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<24} {metrics[name]:>16.6f} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
            raise BenchError(
                "no src/repro here; run from the root of a repository checkout"
            )
        run = traced if args.trace else timed
        result = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
