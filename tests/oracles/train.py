"""Train-layer references: the per-invocation measurement walk, the
per-iteration epoch loop and the per-request inference loop."""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.hw.counters import CounterSet
from repro.models.schedule import KernelSchedule
from repro.models.spec import IterationInputs
from repro.train.frame import IterationRecord, TraceFrame
from repro.train.inference import InferenceRunSimulator
from repro.train.iteration import IterationExecutor, IterationResult
from repro.train.runner import TrainingRunSimulator

from .kernels import ReferenceAutotuner


class ScalarExecutor(IterationExecutor):
    """Lowers each shape with the device config and walks its merged
    schedule invocation by invocation, one shape at a time."""

    def run_unique(
        self, inputs_seq: Sequence[IterationInputs], kind: str = "train"
    ) -> list[IterationResult]:
        memo = self._memo[kind]
        lower = self._lower(kind)
        for inputs in inputs_seq:
            key = self._key(inputs)
            if key not in memo:
                memo[key] = self._measure(lower(inputs, self.device.config))
        return [memo[self._key(inputs)] for inputs in inputs_seq]

    def _measure(self, schedule: KernelSchedule) -> IterationResult:
        """Per-invocation measurement and accumulation."""
        time_s = self.host_overhead_s
        launches = 0
        counters = CounterSet.zero()
        group_times: dict[str, float] = {}
        names: set[str] = set()
        for invocation, count in schedule.merged():
            measurement = self.device.run(invocation.work)
            time_s += measurement.time_s * count
            launches += count
            counters = counters + measurement.counters.scaled(count)
            group_times[invocation.group] = (
                group_times.get(invocation.group, 0.0)
                + measurement.time_s * count
            )
            names.add(invocation.name)
        return IterationResult(
            time_s=time_s,
            launches=launches,
            counters=counters,
            group_times=group_times,
            kernel_names=frozenset(names),
            gemm_shapes=tuple(schedule.gemm_shapes()),
        )


def scalar_pipeline(simulator):
    """Switch a training, inference or traffic simulator onto the
    scalar executor (and, for training, the reference autotuner)."""
    executor = simulator.executor
    simulator.executor = ScalarExecutor(
        executor.model, executor.device, executor.host_overhead_s
    )
    if isinstance(simulator, TrainingRunSimulator):
        simulator._autotuner = ReferenceAutotuner(executor.device.config)
    return simulator


def epoch_records_reference(
    sim: TrainingRunSimulator, epoch: int = 0
) -> tuple[list[IterationRecord], float]:
    """The per-iteration epoch loop: run, charge autotune and log every
    iteration of the plan in order.  Returns the rows and the autotune
    total."""
    plan = sim.batching.plan_epoch(sim.dataset, epoch=epoch, seed=sim.seed)
    if not plan:
        raise ConfigurationError(
            f"{sim.dataset.name}: dataset too small for one "
            f"batch of {sim.batching.batch_size}"
        )
    autotune_s = 0.0
    records = []
    for index, inputs in enumerate(plan):
        result = sim.executor.run(inputs)
        for shape in result.gemm_shapes:
            autotune_s += sim._autotuner.charge(*shape)
        records.append(
            IterationRecord(
                index=index,
                epoch=epoch,
                seq_len=inputs.seq_len,
                tgt_len=inputs.tgt_len,
                time_s=result.time_s * sim._noise(epoch, index),
                launches=result.launches,
                counters=result.counters,
                group_times=result.group_times,
                kernel_names=result.kernel_names,
            )
        )
    return records, autotune_s


def run_epoch_reference(
    sim: TrainingRunSimulator, epoch: int = 0, include_eval: bool = True
) -> TraceFrame:
    """:func:`epoch_records_reference` as a trace, evaluation phase
    included on request."""
    records, autotune_s = epoch_records_reference(sim, epoch)
    return TraceFrame.from_records(
        model_name=sim.model.name,
        dataset_name=sim.dataset.name,
        config_name=sim.device.config.name,
        batch_size=sim.batching.batch_size,
        records=records,
        autotune_s=autotune_s,
        eval_s=sim._eval_phase_time(epoch) if include_eval else 0.0,
    )


def run_pass_reference(sim: InferenceRunSimulator, epoch: int = 0) -> TraceFrame:
    """The per-request inference loop over full batches, or over one
    ragged batch when the request set is smaller than a batch."""
    plan = sim.batching.plan_epoch(
        sim.dataset, epoch=epoch, seed=sim.seed, drop_last=True
    )
    if not plan:
        plan = sim.batching.plan_epoch(
            sim.dataset, epoch=epoch, seed=sim.seed, drop_last=False
        )
    if not plan:
        raise ConfigurationError(f"{sim.dataset.name}: no requests to serve")
    records = []
    for index, inputs in enumerate(plan):
        result = sim.executor.run_forward(inputs)
        records.append(
            IterationRecord(
                index=index,
                epoch=epoch,
                seq_len=inputs.seq_len,
                tgt_len=inputs.tgt_len,
                time_s=result.time_s * sim._noise(index),
                launches=result.launches,
                counters=result.counters,
                group_times=result.group_times,
                kernel_names=result.kernel_names,
            )
        )
    return TraceFrame.from_records(
        model_name=f"{sim.model.name}-inference",
        dataset_name=sim.dataset.name,
        config_name=sim.device.config.name,
        batch_size=sim.batching.batch_size,
        records=records,
    )
