"""Shared test fixtures.

``make_record``/``make_trace`` build synthetic traces so the core
methodology is testable without simulating a network; the device and
model fixtures cover the substrate tests.  Everything is deterministic.
"""

from __future__ import annotations

import pytest

from repro.hw.config import paper_config
from repro.hw.counters import CounterSet
from repro.hw.device import GpuDevice
from repro.train.frame import IterationRecord, TraceFrame


@pytest.fixture(scope="session")
def device1() -> GpuDevice:
    """The baseline device (paper config #1)."""
    return GpuDevice(paper_config(1))


@pytest.fixture(scope="session")
def devices() -> dict[int, GpuDevice]:
    """All five Table II devices."""
    return {index: GpuDevice(paper_config(index)) for index in range(1, 6)}


def make_record(
    index: int,
    seq_len: int,
    time_s: float,
    tgt_len: int | None = None,
    epoch: int = 0,
    group_times: dict[str, float] | None = None,
    kernel_names: frozenset[str] = frozenset({"k"}),
) -> IterationRecord:
    """A minimal synthetic iteration record."""
    return IterationRecord(
        index=index,
        epoch=epoch,
        seq_len=seq_len,
        tgt_len=tgt_len,
        time_s=time_s,
        launches=1,
        counters=CounterSet(busy_cycles=time_s * 1.6e9),
        group_times=group_times if group_times is not None else {"GEMM-1": time_s},
        kernel_names=kernel_names,
    )


def make_trace(
    seq_len_times: list[tuple[int, float]],
    model_name: str = "toy",
    config_name: str = "config#1",
    batch_size: int = 64,
    autotune_s: float = 0.0,
    eval_s: float = 0.0,
) -> TraceFrame:
    """A synthetic trace from (seq_len, time_s) pairs, in order."""
    return TraceFrame.from_records(
        model_name=model_name,
        dataset_name="synthetic",
        config_name=config_name,
        batch_size=batch_size,
        records=[
            make_record(index, seq_len, time_s)
            for index, (seq_len, time_s) in enumerate(seq_len_times)
        ],
        autotune_s=autotune_s,
        eval_s=eval_s,
    )


@pytest.fixture
def linear_trace() -> TraceFrame:
    """Iterations whose runtime is exactly linear in SL (10..100)."""
    pairs = []
    for seq_len in range(10, 101, 10):
        for _ in range(5):
            pairs.append((seq_len, 0.01 * seq_len + 0.1))
    return make_trace(pairs)
