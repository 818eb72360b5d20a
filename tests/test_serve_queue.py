"""Unit tests for the async job queue and the latency metrics."""

import threading

import numpy as np
import pytest

from repro.api.spec import AnalysisSpec
from repro.errors import ReproError
from repro.serve.metrics import LatencyHistogram, MetricsRegistry, percentile
from repro.serve.protocol import JobRequest, NotFoundError
import repro.serve.queue as queue_module
from repro.serve.queue import JOB_STATES, JobCancelled, JobQueue


def request() -> JobRequest:
    return JobRequest(
        kind="analyze", spec=AnalysisSpec(network="gnmt", scale=0.02)
    )


class TestSubmitAndGet:
    def test_lifecycle_queued_to_done(self):
        queue = JobQueue()
        job = queue.submit(request())
        assert job.id == "job-1"
        assert job.state == "queued"
        assert queue.get(job.id) is job

        claimed = queue.next_job(timeout=0.1)
        assert claimed is job
        assert job.state == "running"
        assert job.started_s is not None

        queue.finish(job, {"answer": 42})
        assert job.state == "done"
        assert job.result == {"answer": 42}
        assert job.finished_s is not None

    def test_ids_are_sequential(self):
        queue = JobQueue()
        assert [queue.submit(request()).id for _ in range(3)] == [
            "job-1", "job-2", "job-3",
        ]

    def test_fifo_claim_order(self):
        queue = JobQueue()
        first = queue.submit(request())
        second = queue.submit(request())
        assert queue.next_job(timeout=0.1) is first
        assert queue.next_job(timeout=0.1) is second

    def test_unknown_job_raises_not_found(self):
        with pytest.raises(NotFoundError, match="job-9"):
            JobQueue().get("job-9")

    def test_status_snapshot_never_includes_result(self):
        queue = JobQueue()
        job = queue.submit(request())
        queue.next_job(timeout=0.1)
        queue.finish(job, {"huge": "payload"})
        payload = job.to_dict()
        assert payload["state"] == "done"
        assert "result" not in payload
        assert "huge" not in str(payload)

    def test_failed_jobs_carry_one_line_errors(self):
        queue = JobQueue()
        job = queue.submit(request())
        queue.next_job(timeout=0.1)
        queue.fail(job, ValueError("boom\nacross\nlines"))
        payload = job.to_dict()
        assert payload["error"] == {
            "type": "ValueError", "message": "boom across lines",
        }


class TestCancellation:
    def test_cancel_queued_is_immediate(self):
        queue = JobQueue()
        job = queue.submit(request())
        cancelled = queue.cancel(job.id)
        assert cancelled is job
        assert job.state == "cancelled"
        # The pending deque no longer offers it to workers.
        assert queue.next_job(timeout=0.05) is None

    def test_cancel_running_sets_the_event(self):
        queue = JobQueue()
        job = queue.submit(request())
        queue.next_job(timeout=0.1)
        queue.cancel(job.id)
        assert job.state == "running"  # cooperative: worker must notice
        with pytest.raises(JobCancelled):
            job.check_cancelled()
        queue.mark_cancelled(job)
        assert job.state == "cancelled"

    def test_cancel_terminal_is_idempotent(self):
        queue = JobQueue()
        job = queue.submit(request())
        queue.next_job(timeout=0.1)
        queue.finish(job, {})
        assert queue.cancel(job.id).state == "done"

    def test_cancel_unknown_job_raises(self):
        with pytest.raises(NotFoundError):
            JobQueue().cancel("job-7")

    def test_checkpoint_is_quiet_without_cancel(self):
        queue = JobQueue()
        job = queue.submit(request())
        job.check_cancelled()  # no exception


class TestDepthAndClose:
    def test_bounded_queue_refuses_excess(self):
        queue = JobQueue(max_depth=1)
        queue.submit(request())
        with pytest.raises(ReproError, match="queue full"):
            queue.submit(request())

    def test_claiming_frees_depth(self):
        queue = JobQueue(max_depth=1)
        queue.submit(request())
        queue.next_job(timeout=0.1)
        queue.submit(request())  # no error: pending slot freed

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError, match="max_depth"):
            JobQueue(max_depth=0)

    def test_close_rejects_submissions(self):
        queue = JobQueue()
        queue.close()
        with pytest.raises(ReproError, match="shut down"):
            queue.submit(request())

    def test_close_wakes_blocked_workers(self):
        queue = JobQueue()
        claimed = []
        worker = threading.Thread(
            target=lambda: claimed.append(queue.next_job())
        )
        worker.start()
        queue.close()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert claimed == [None]

    def test_snapshot_counts_states(self):
        queue = JobQueue()
        done = queue.submit(request())
        queue.submit(request())
        queue.next_job(timeout=0.1)
        queue.finish(done, {})
        snapshot = queue.snapshot()
        assert snapshot["depth"] == 1
        assert snapshot["jobs"] == 2
        assert set(snapshot["states"]) == set(JOB_STATES)
        assert snapshot["states"]["done"] == 1
        assert snapshot["states"]["queued"] == 1


class TestTerminalJobBound:
    """A long-lived queue forgets its oldest terminal jobs past the
    bound, and never a queued or running one."""

    BOUND = 8

    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(queue_module, "_MAX_TERMINAL_JOBS", self.BOUND)

    def test_soak_levels_off_at_the_bound(self):
        queue = JobQueue()
        running = queue.submit(request())
        assert queue.next_job(timeout=0.1) is running
        finished: list[str] = []
        queued = None
        for i in range(300):
            if i == 150:
                queued = queue.submit(request())
            job = queue.submit(request())
            if queued is not None or i % 3 == 0:
                queue.cancel(job.id)  # cancelled while queued
            else:
                assert queue.next_job(timeout=0.1) is job
                if i % 3 == 1:
                    queue.finish(job, {"i": i})
                else:
                    queue.fail(job, ReproError("boom"))
            finished.append(job.id)
            live = 1 + (queued is not None)
            assert len(queue.jobs()) == min(len(finished), self.BOUND) + live
        snapshot = queue.snapshot()
        assert snapshot["evicted"] == 300 - self.BOUND
        assert snapshot["jobs"] == self.BOUND + 2
        assert snapshot["states"]["running"] == 1
        assert snapshot["states"]["queued"] == 1
        assert queue.get(running.id) is running
        assert queue.get(queued.id) is queued
        assert [job.id for job in queue.jobs()] == sorted(
            [running.id, queued.id, *finished[-self.BOUND :]],
            key=lambda job_id: int(job_id.split("-")[1]),
        )
        for job_id in finished[: -self.BOUND]:
            with pytest.raises(NotFoundError):
                queue.get(job_id)

    def test_oldest_finished_goes_first(self):
        queue = JobQueue()
        jobs = [queue.submit(request()) for _ in range(self.BOUND + 1)]
        # Finish in reverse submission order: the newest job finished
        # first, so it is the one evicted.
        for job in jobs:
            assert queue.next_job(timeout=0.1) is job
        for job in reversed(jobs):
            queue.finish(job, {})
        assert queue.snapshot()["evicted"] == 1
        with pytest.raises(NotFoundError):
            queue.get(jobs[-1].id)
        assert queue.get(jobs[0].id) is jobs[0]

    def test_snapshot_starts_with_nothing_evicted(self):
        assert JobQueue().snapshot()["evicted"] == 0


class TestPercentile:
    def test_nearest_rank(self):
        samples = [float(value) for value in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile(samples, 0) == 1.0

    def test_single_sample(self):
        assert percentile([3.5], 99) == 3.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], 101)


class TestLatencyHistogram:
    def test_empty_snapshot_is_zeroes(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
            "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0,
        }

    def test_counts_and_mean(self):
        histogram = LatencyHistogram()
        for seconds in (0.001, 0.002, 0.003):
            histogram.observe(seconds)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["mean_ms"] == pytest.approx(2.0)
        assert snapshot["max_ms"] == pytest.approx(3.0)

    def test_quantiles_are_ordered(self):
        histogram = LatencyHistogram()
        for index in range(100):
            histogram.observe(0.0005 * (index + 1))
        snapshot = histogram.snapshot()
        assert snapshot["p50_ms"] <= snapshot["p95_ms"] <= snapshot["p99_ms"]
        assert snapshot["p99_ms"] <= snapshot["max_ms"] * 2  # bucket bound

    def test_negative_observations_clamp(self):
        histogram = LatencyHistogram()
        histogram.observe(-1.0)
        assert histogram.snapshot()["count"] == 1

    def test_observe_many_bit_identical_to_scalar_loop(self):
        rng = np.random.default_rng(7)
        # Mix of negatives (clamped), tiny, typical and over-range values.
        seconds = np.concatenate(
            (
                rng.uniform(-0.01, 0.5, 400),
                np.asarray([0.0, -1.0, 1e-9, 1e-4, 2e-4, 300.0]),
            )
        )
        bulk = LatencyHistogram()
        bulk.observe_many(seconds)
        scalar = LatencyHistogram()
        for value in seconds.tolist():
            scalar.observe(value)
        assert bulk._counts == scalar._counts
        assert bulk.count == scalar.count
        assert bulk.sum_s == scalar.sum_s  # exact, not approx
        assert bulk.max_s == scalar.max_s
        assert bulk.snapshot() == scalar.snapshot()

    def test_observe_many_chunked_continuation(self):
        rng = np.random.default_rng(11)
        seconds = rng.uniform(0.0, 2.0, 257)
        whole = LatencyHistogram()
        whole.observe_many(seconds)
        chunked = LatencyHistogram()
        for lo in range(0, seconds.size, 64):
            chunked.observe_many(seconds[lo:lo + 64])
        assert chunked._counts == whole._counts
        assert chunked.sum_s == whole.sum_s
        assert chunked.snapshot() == whole.snapshot()

    def test_observe_many_empty_is_a_no_op(self):
        histogram = LatencyHistogram()
        histogram.observe(0.001)
        before = histogram.snapshot()
        histogram.observe_many(np.asarray([], dtype=np.float64))
        assert histogram.snapshot() == before

    def test_observe_many_importable_without_serve(self):
        # The histogram lives in an import-light module: latency
        # snapshots must not drag in the HTTP serving package.
        from repro.util.histogram import LatencyHistogram as Light

        assert Light is LatencyHistogram

    def test_thread_safety_exact_count(self):
        histogram = LatencyHistogram()

        def hammer():
            for _ in range(500):
                histogram.observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.snapshot()["count"] == 4000


class TestMetricsRegistry:
    def test_per_endpoint_histograms(self):
        registry = MetricsRegistry()
        registry.observe("GET /stats", 0.001)
        registry.observe("GET /stats", 0.002)
        registry.observe("POST /jobs", 0.003)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"GET /stats", "POST /jobs"}
        assert snapshot["GET /stats"]["count"] == 2
        assert snapshot["POST /jobs"]["count"] == 1

    def test_empty_registry_snapshot(self):
        assert MetricsRegistry().snapshot() == {}
