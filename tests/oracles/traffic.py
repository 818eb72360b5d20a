"""Traffic-layer references: the per-request batch-formation event
loop and the batch-by-batch serving walk."""

from __future__ import annotations

import numpy as np

from repro.data.batching import BatchingPolicy
from repro.models.spec import IterationInputs
from repro.traffic.batcher import FormedBatch, _policy_queue
from repro.traffic.simulator import ServedTraffic, TrafficSimulator
from repro.traffic.workload import RequestSet
from repro.train.frame import NO_TGT, IterationProfile, TraceFrame


def form_batches_scalar(
    arrival_s: np.ndarray,
    seq_len: np.ndarray,
    tgt_len: np.ndarray,
    policy: BatchingPolicy,
    max_wait_s: float,
) -> list[FormedBatch]:
    """Event loop: one pass over the arrivals, one decision per request."""
    arrival_s = np.asarray(arrival_s, dtype=np.float64)
    seq_len = np.asarray(seq_len, dtype=np.int64)
    tgt_len = np.asarray(tgt_len, dtype=np.int64)
    bucketed, capacity = _policy_queue(policy)
    batch_size = policy.batch_size
    batches: list[FormedBatch] = []
    waiting: list[int] = []  # request indices, arrival order

    def flush(now: float) -> None:
        """Close everything waiting into consecutive batches at ``now``."""
        pool = np.asarray(waiting, dtype=np.int64)
        if bucketed:
            pool = pool[np.argsort(seq_len[pool], kind="stable")]
        for lo in range(0, pool.size, batch_size):
            members = pool[lo:lo + batch_size]
            tgt_max = int(tgt_len[members].max())
            batches.append(
                FormedBatch(
                    form_time_s=now,
                    members=members,
                    seq_len=policy._pad(int(seq_len[members].max())),
                    tgt_len=(
                        NO_TGT if tgt_max == NO_TGT
                        else policy._pad(tgt_max)
                    ),
                )
            )
        waiting.clear()

    for index in range(arrival_s.size):
        now = float(arrival_s[index])
        if waiting and arrival_s[waiting[0]] + max_wait_s < now:
            flush(float(arrival_s[waiting[0]]) + max_wait_s)
        waiting.append(index)
        if capacity is not None and len(waiting) >= capacity:
            flush(now)
    if waiting:
        # Stream exhausted: the remainder goes out when the oldest
        # waiting request's deadline expires (never before it arrived —
        # the arrival loop guarantees every member predates this).
        flush(float(arrival_s[waiting[0]]) + max_wait_s)
    return batches


def serve_scalar(
    sim: TrafficSimulator,
    requests: RequestSet,
    arrival_s: np.ndarray,
    batches: list[FormedBatch],
) -> ServedTraffic:
    """One forward pass and one FIFO step per batch."""
    count = len(batches)
    index = np.arange(count, dtype=np.int64)
    epoch = np.empty(count, dtype=np.int64)
    seq_len = np.empty(count, dtype=np.int64)
    tgt_len = np.empty(count, dtype=np.int64)
    time_s = np.empty(count, dtype=np.float64)
    profile_id = np.empty(count, dtype=np.int64)
    pool: dict[tuple, int] = {}
    profiles: list[IterationProfile] = []
    queue_wait = np.zeros(len(requests), dtype=np.float64)
    latency = np.zeros(len(requests), dtype=np.float64)
    device_free = 0.0
    for i, batch in enumerate(batches):
        inputs = IterationInputs(
            batch=len(batch),
            seq_len=batch.seq_len,
            tgt_len=None if batch.tgt_len == NO_TGT else batch.tgt_len,
        )
        result = sim.executor.run_forward(inputs)
        start = max(batch.form_time_s, device_free)
        device_free = start + result.time_s
        queue_wait[batch.members] = start - arrival_s[batch.members]
        latency[batch.members] = device_free - arrival_s[batch.members]
        # The batch's phase: its earliest-arriving member's, so the
        # epoch column tracks the mixture schedule.
        epoch[i] = int(requests.phase[batch.members].min())
        seq_len[i] = batch.seq_len
        tgt_len[i] = batch.tgt_len
        time_s[i] = result.time_s
        profile = IterationProfile(
            launches=result.launches,
            counters=result.counters,
            group_times=dict(result.group_times),
            kernel_names=result.kernel_names,
        )
        key = profile.dedup_key()
        pid = pool.get(key)
        if pid is None:
            pid = pool[key] = len(profiles)
            profiles.append(profile)
        profile_id[i] = pid
    frame = TraceFrame(
        model_name=f"{sim.model.name}-serving",
        dataset_name=sim.dataset_name,
        config_name=sim.device.config.name,
        batch_size=sim.policy.batch_size,
        index=index,
        epoch=epoch,
        seq_len=seq_len,
        tgt_len=tgt_len,
        time_s=time_s,
        profile_id=profile_id,
        profiles=tuple(profiles),
    )
    return ServedTraffic(
        frame=frame,
        batches=tuple(batches),
        arrival_s=np.asarray(arrival_s, dtype=np.float64),
        queue_wait_s=queue_wait,
        latency_s=latency,
        makespan_s=device_free,
    )
