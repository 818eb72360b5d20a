"""The process that does a workload's work, one fresh interpreter per call.

``run.py`` starts this file with ``PYTHONPATH=src`` and writes one JSON
request to its stdin; the last line this process prints is one JSON
reply.  Three kinds of request exist:

* ``analyze`` — one cold ``AnalysisEngine().run``; the interpreter is
  fresh, so lowering, plan compile and every kernel memo start empty.
* ``serve`` — an in-process ``ReproServer``, warmed by its warm-up jobs,
  then driven by closed-loop HTTP clients over keep-alive connections.
* ``traffic`` — one engine, warmed by its warm-up runs, then
  ``run_traffic`` on each given spec.

``ready`` in every reply is ``time.monotonic()`` once set-up finished;
the parent subtracts its own spawn instant to get the set-up time
(``time.monotonic`` is one system-wide clock on Linux).  Every kind then
times the host-speed reference of :mod:`calibrate` (``setup_ref_s``), and
again after the cold analysis, every traffic run or every round of serve
jobs, so each op carries the factor of the references on either side of
it, taken in the same process.  With ``setup_only`` a request stops after
the first reference.  With ``trace`` the layer wrappers
from :mod:`tracing` are installed before set-up and reset before the
first timed op.

Outputs are checked here, where the full results exist; each reply
lists, per op, the problems found (an empty list is a pass) and a
SHA-256 digest of the op's canonical result JSON.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import sys
import threading
import time

import calibrate
import tracing


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def rss_mb() -> float:
    """Peak resident set size since :func:`reset_peak_rss`, in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_peak_rss() -> None:
    """Restart the peak at the current RSS (Linux ``clear_refs``), so it
    covers the timed ops and not the set-up's transients."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _pct_error(projected: float, actual: float) -> float:
    return abs(projected - actual) / abs(actual) * 100.0


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_analysis(result: dict) -> list[str]:
    """Recompute an analysis result's totals and errors from its parts."""
    problems = []
    projected = math.fsum(p["weight"] * p["time_s"] for p in result["points"])
    if not _close(projected, result["projected_total_s"]):
        problems.append(
            f"projected_total_s {result['projected_total_s']!r} != "
            f"sum(weight*time_s) {projected!r}"
        )
    error = _pct_error(result["projected_total_s"], result["actual_total_s"])
    if not _close(error, result["identification_error_pct"]):
        problems.append(
            f"identification_error_pct {result['identification_error_pct']!r}"
            f" != recomputed {error!r}"
        )
    for projection in result["projections"]:
        error = _pct_error(
            projection["projected_time_s"], projection["actual_time_s"]
        )
        if not _close(error, projection["error_pct"]):
            problems.append(
                f"config {projection['config']} error_pct "
                f"{projection['error_pct']!r} != recomputed {error!r}"
            )
    return problems


def check_traffic(result: dict) -> list[str]:
    problems = []
    if result["latency"]["count"] != result["requests"]:
        problems.append(
            f"latency.count {result['latency']['count']} != requests "
            f"{result['requests']}"
        )
    if result["iterations_consumed"] > result["batches"]:
        problems.append(
            f"iterations_consumed {result['iterations_consumed']} > batches "
            f"{result['batches']}"
        )
    return problems


def cache_snapshot(engine) -> dict:
    """Cumulative counters of the process-wide and engine caches."""
    from repro.kernels.gemm import gemm
    from repro.models.plan import PLAN_CACHE

    plan = PLAN_CACHE.stats()
    info = gemm.cache_info()
    cache = engine.cache.stats()
    return {
        "plan_hits": plan["hits"],
        "plan_misses": plan["misses"],
        "plan_entries": plan["entries"],
        "gemm_hits": info.hits,
        "gemm_misses": info.misses,
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "cache_bytes": cache["bytes"],
    }


class Session:
    """Tracer (when asked for) plus the bookkeeping every request shares."""

    def __init__(self, request: dict):
        self.request = request
        self.tracer = tracing.Tracer() if request.get("trace") else None
        self.summary = None
        if self.tracer is not None:
            tracing.install(self.tracer)

    def start_timed(self) -> None:
        reset_peak_rss()
        if self.tracer is not None:
            self.tracer.reset()

    def stop_timed(self) -> None:
        """Summarize and write the spans of the timed ops, so checks run
        after them stay out of the per-layer figures."""
        if self.tracer is not None:
            self.summary = self.tracer.summary()
            out = self.request.get("trace_out")
            if out:
                self.tracer.write(out)

    def finish(self, reply: dict) -> dict:
        if self.tracer is not None:
            if self.summary is None:
                self.stop_timed()
            reply["trace"] = self.summary
        return reply


def do_analyze(request: dict) -> dict:
    from repro.api.engine import AnalysisEngine
    from repro.api.spec import AnalysisSpec, ProjectionSpec

    session = Session(request)
    engine = AnalysisEngine()
    spec = AnalysisSpec.from_dict(request["spec"])
    projection = ProjectionSpec.from_dict(request["projection"])
    ready = time.monotonic()
    setup_ref = calibrate.reference_s()
    before = cache_snapshot(engine)
    session.start_timed()
    started = time.perf_counter()
    result = engine.run(spec, projection).to_dict()
    run_s = time.perf_counter() - started
    rss = rss_mb()
    scale = calibrate.factor(setup_ref, calibrate.reference_s())
    return session.finish({
        "ready": ready,
        "setup_ref_s": setup_ref,
        "ops": [{
            "network": spec.network,
            "run_s": run_s,
            "factor": scale,
            "problems": check_analysis(result),
            "digest": digest(result),
            "errors": [abs(p["error_pct"]) for p in result["projections"]],
        }],
        "caches": [before, cache_snapshot(engine)],
        "rss_mb": rss,
    })


class Client:
    """A closed-loop HTTP client over one keep-alive connection."""

    def __init__(self, host: str, port: int, poll_s: float):
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        self.poll_s = poll_s

    def call(self, method: str, path: str, payload=None) -> dict:
        body = None if payload is None else json.dumps(payload)
        self.conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"},
        )
        envelope = json.loads(self.conn.getresponse().read())
        if not envelope.get("ok"):
            raise RuntimeError(f"{method} {path}: {envelope.get('error')}")
        return envelope

    def run_job(self, submission: dict) -> tuple[dict, dict | None]:
        """Submit, poll to a final state, fetch; ``(job, result)``."""
        job = self.call("POST", "/jobs", submission)["job"]
        while job["state"] in ("queued", "running"):
            time.sleep(self.poll_s)
            job = self.call("GET", f"/jobs/{job['id']}")["job"]
        if job["state"] != "done":
            return job, None
        reply = self.call("GET", f"/jobs/{job['id']}/result")
        return reply["job"], reply["result"]

    def close(self) -> None:
        self.conn.close()


def serve_record(index: int, submission: dict, job: dict, result, latency):
    record = {
        "index": index,
        "network": submission["spec"]["network"],
        "run_s": latency,
        "problems": [f"job ended {job['state']}"],
        "digest": None,
        "result": result,
        "errors": [],
    }
    if result is not None:
        record.update(
            queue_wait_s=job["started_s"] - job["submitted_s"],
            job_run_s=job["finished_s"] - job["started_s"],
            problems=check_analysis(result),
            digest=digest(result),
            errors=[abs(p["error_pct"]) for p in result["projections"]],
        )
    return record


def do_serve(request: dict) -> dict:
    """Closed-loop clients in rounds of ``round_jobs`` jobs.

    Between rounds the daemon is idle and the host-speed reference is
    timed; a round's latencies and wall time carry the factor of the
    references on either side of it.
    """
    from repro.api.engine import AnalysisEngine
    from repro.api.spec import AnalysisSpec
    from repro.serve import ReproServer

    session = Session(request)
    server = ReproServer(port=0)
    server.start()
    clients = []
    try:
        warm = Client(server.host, server.port, request["poll_s"])
        clients.append(warm)
        for submission in request["warmup"]:
            job, result = warm.run_job(submission)
            if result is None:
                raise RuntimeError(f"warm-up job ended {job['state']}")
        ready = time.monotonic()
        ref = setup_ref = calibrate.reference_s()
        if request.get("setup_only"):
            return {"ready": ready, "setup_ref_s": ref}

        jobs = request["jobs"]
        engine = server.app.engine
        clients += [
            Client(server.host, server.port, request["poll_s"])
            for _ in range(request["clients"] - 1)
        ]
        lock = threading.Lock()
        records: dict[int, dict] = {}
        caches = [cache_snapshot(engine)]
        cursor = iter(range(len(jobs)))
        wall_s = norm_wall_s = 0.0
        session.start_timed()

        while len(records) < len(jobs):
            taken = []
            finished: list[dict] = []

            def client_loop(client: Client) -> None:
                while True:
                    with lock:
                        index = (
                            next(cursor, None)
                            if len(taken) < request["round_jobs"] else None
                        )
                        if index is None:
                            return
                        taken.append(index)
                    sent = time.perf_counter()
                    try:
                        job, result = client.run_job(jobs[index])
                    except (OSError, RuntimeError, ValueError) as exc:
                        job, result = {"state": f"lost ({exc})"}, None
                    record = serve_record(
                        index, jobs[index], job, result,
                        time.perf_counter() - sent,
                    )
                    with lock:
                        finished.append(record)
                        caches.append(cache_snapshot(engine))

            round_started = time.perf_counter()
            threads = [
                threading.Thread(target=client_loop, args=(client,))
                for client in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            round_s = time.perf_counter() - round_started
            after = calibrate.reference_s()
            scale = calibrate.factor(ref, after)
            ref = after
            wall_s += round_s
            norm_wall_s += round_s * scale
            for record in finished:
                record["factor"] = scale
                records[record["index"]] = record
            if not finished:
                raise RuntimeError("a serve round completed no job")
        session.stop_timed()
        rss = rss_mb()
        retained = len(warm.call("GET", "/jobs")["jobs"])
    finally:
        for client in clients:
            client.close()
        server.close()

    # Bit-identity of the daemon's answers: the first and last job must
    # equal a direct run of the same spec.
    for index in {min(records), max(records)}:
        record = records[index]
        if record["result"] is None:
            continue
        spec = AnalysisSpec.from_dict(jobs[index]["spec"])
        direct = AnalysisEngine().run(spec).to_dict()
        if canonical(direct) != canonical(record["result"]):
            record["problems"].append(
                f"job {index} result differs from a direct AnalysisEngine().run"
            )
    ordered = [records[i] for i in sorted(records)]
    for record in ordered:
        del record["result"]
    return session.finish({
        "ready": ready,
        "setup_ref_s": setup_ref,
        "ops": ordered,
        "wall_s": wall_s,
        "norm_wall_s": norm_wall_s,
        "caches": caches,
        "rss_mb": rss,
        "jobs_retained": retained,
    })


def do_traffic(request: dict) -> dict:
    """Warm traffic runs, the host-speed reference timed between them."""
    from repro.api.engine import AnalysisEngine
    from repro.traffic.spec import TrafficSpec

    session = Session(request)
    engine = AnalysisEngine()
    for payload in request["warmup"]:
        engine.run_traffic(TrafficSpec.from_dict(payload))
    ready = time.monotonic()
    ref = setup_ref = calibrate.reference_s()
    if request.get("setup_only"):
        return {"ready": ready, "setup_ref_s": ref}

    ops, caches = [], [cache_snapshot(engine)]
    wall_s = norm_wall_s = 0.0
    session.start_timed()
    for payload in request["ops"]:
        spec = TrafficSpec.from_dict(payload)
        op_started = time.perf_counter()
        result = engine.run_traffic(spec).to_dict()
        run_s = time.perf_counter() - op_started
        caches.append(cache_snapshot(engine))
        after = calibrate.reference_s()
        scale = calibrate.factor(ref, after)
        ref = after
        wall_s += run_s
        norm_wall_s += run_s * scale
        ops.append({
            "network": spec.analysis.network,
            "run_s": run_s,
            "factor": scale,
            "problems": check_traffic(result),
            "digest": digest(result),
            "errors": [abs(p["error_pct"]) for p in result["projections"]],
            "stream_errors": [result["streaming_projection_error_pct"]],
        })
    return session.finish({
        "ready": ready,
        "setup_ref_s": setup_ref,
        "ops": ops,
        "wall_s": wall_s,
        "norm_wall_s": norm_wall_s,
        "caches": caches,
        "rss_mb": rss_mb(),
    })


def main() -> None:
    request = json.loads(sys.stdin.read())
    handler = {
        "analyze": do_analyze,
        "serve": do_serve,
        "traffic": do_traffic,
    }[request["kind"]]
    reply = handler(request)
    sys.stdout.write("\n" + json.dumps(reply) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
