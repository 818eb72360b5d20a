"""Async job queue: submitted work, polled status, cooperative cancel.

The service accepts work faster than it can run it, so every submitted
request becomes a :class:`Job` with a lifecycle the client can poll::

    queued -> running -> done | failed | cancelled
        \\------------------------------^  (cancelled while queued)

The :class:`JobQueue` is the thread-safe hand-off between the HTTP
front end (``submit``/``get``/``cancel``/``snapshot``) and the worker
tier (``next_job`` blocks for work; ``finish``/``fail``/``mark_cancelled``
close a claim).  Cancellation is *cooperative*: cancelling a queued job
removes it immediately, while cancelling a running one sets the job's
cancel event and the executing worker exits at its next checkpoint —
between sweep points, between pool futures, or after the in-flight
selector call — raising :class:`JobCancelled` to abandon the result.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any

from repro.errors import ReproError
from repro.serve.protocol import JobRequest, NotFoundError, one_line

__all__ = ["JOB_STATES", "Job", "JobCancelled", "JobQueue"]

#: Every lifecycle state, in documentation order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job can never leave.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Terminal jobs kept for polling; past it the first to finish is
#: forgotten (a 404).  Queued and running jobs are never evicted.
_MAX_TERMINAL_JOBS = 4096


class JobCancelled(ReproError):
    """Raised inside a worker when its job's cancel event is set."""


class Job:
    """One submitted request and everything its lifecycle produced.

    State transitions go through the owning :class:`JobQueue` (which
    holds the lock); callers treat jobs as read-only snapshots via
    :meth:`to_dict`.
    """

    __slots__ = (
        "id", "kind", "request", "state", "result", "error", "error_type",
        "submitted_s", "started_s", "finished_s", "cancel_event",
    )

    def __init__(self, job_id: str, request: JobRequest):
        self.id = job_id
        self.kind = request.kind
        self.request = request
        self.state = "queued"
        self.result: Any = None
        self.error: str | None = None
        self.error_type: str | None = None
        self.submitted_s = time.time()
        self.started_s: float | None = None
        self.finished_s: float | None = None
        self.cancel_event = threading.Event()

    def check_cancelled(self) -> None:
        """Cooperative checkpoint: abandon the job if cancel was requested."""
        if self.cancel_event.is_set():
            raise JobCancelled(f"job {self.id} cancelled")

    def to_dict(self) -> dict[str, Any]:
        """Status snapshot (never includes the result payload)."""
        payload: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "describe": self.request.describe(),
            "state": self.state,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
        }
        if self.error is not None:
            payload["error"] = {"type": self.error_type, "message": self.error}
        return payload


class JobQueue:
    """FIFO queue of :class:`Job` with status tracking and cancellation."""

    def __init__(self, max_depth: int | None = None):
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._pending: deque[Job] = deque()
        self._jobs: dict[str, Job] = {}
        #: Terminal job ids, in the order they finished.
        self._terminal: deque[str] = deque()
        self._evicted = 0
        self._ids = itertools.count(1)
        self._closed = False

    # -- front end -----------------------------------------------------

    def submit(self, request: JobRequest) -> Job:
        """Enqueue a parsed request; returns the queued job."""
        with self._lock:
            if self._closed:
                raise ReproError("the job queue is shut down")
            if self.max_depth is not None and len(self._pending) >= self.max_depth:
                raise ReproError(
                    f"queue full ({self.max_depth} jobs pending); retry later"
                )
            job = Job(f"job-{next(self._ids)}", request)
            self._jobs[job.id] = job
            self._pending.append(job)
            self._work_ready.notify()
            return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise NotFoundError(f"no such job: {job_id}")
        return job

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; immediate for queued jobs.

        Terminal jobs are left untouched (cancel is idempotent and
        never un-finishes work).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise NotFoundError(f"no such job: {job_id}")
            if job.state == "queued":
                self._pending.remove(job)
                job.cancel_event.set()
                self._retire(job, "cancelled")
            elif job.state == "running":
                job.cancel_event.set()
            return job

    def snapshot(self) -> dict[str, Any]:
        """Queue depth, per-state counts and evictions, for ``/stats``."""
        with self._lock:
            counts = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                counts[job.state] += 1
            return {
                "depth": len(self._pending),
                "jobs": len(self._jobs),
                "states": counts,
                "evicted": self._evicted,
            }

    def jobs(self) -> list[Job]:
        """All known jobs, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    # -- worker side ---------------------------------------------------

    def next_job(self, timeout: float | None = None) -> Job | None:
        """Claim the oldest queued job, blocking up to ``timeout``.

        Returns ``None`` on timeout or once the queue is closed and
        drained — the workers' signal to exit.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not self._pending:
                if self._closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._work_ready.wait(remaining)
            job = self._pending.popleft()
            job.state = "running"
            job.started_s = time.time()
            return job

    def finish(self, job: Job, result: Any) -> None:
        with self._lock:
            job.result = result
            self._retire(job, "done")

    def fail(self, job: Job, exc: BaseException) -> None:
        with self._lock:
            job.error = one_line(str(exc))
            job.error_type = type(exc).__name__
            self._retire(job, "failed")

    def mark_cancelled(self, job: Job) -> None:
        with self._lock:
            self._retire(job, "cancelled")

    def _retire(self, job: Job, state: str) -> None:
        """End ``job`` in ``state`` and apply the bound; lock held."""
        job.state = state
        job.finished_s = time.time()
        self._terminal.append(job.id)
        while len(self._terminal) > _MAX_TERMINAL_JOBS:
            del self._jobs[self._terminal.popleft()]
            self._evicted += 1

    def close(self) -> None:
        """Stop accepting work and wake every blocked worker."""
        with self._lock:
            self._closed = True
            self._work_ready.notify_all()
