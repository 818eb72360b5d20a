"""Iteration execution: lower, time, and account one training iteration.

The executor memoises by iteration inputs: per Key Observation 4, two
iterations with the same padded lengths perform identical work, so a
whole epoch only pays lowering cost once per unique (seq_len, tgt_len)
pair — that is what makes full-epoch simulation cheap enough to treat
as ground truth.

Measurement lowers each shape once without a hardware config: the new
shapes of one call are lowered one at a time into a single streamed
:func:`~repro.models.plan.compile_plans` call that yields their
structural plans.  It binds the GEMM variants of all the shapes it is
asked for to the device's config in one step (both through the
process-wide :data:`~repro.models.plan.PLAN_CACHE`, so equal shapes are
lowered once per process and bound once per config, not once per
executor), and times them with a single vectorized
:meth:`~repro.hw.device.GpuDevice.run_batch` call.  Two
:func:`~repro.util.stats.segmented_fold` calls over all of it then sum
every plan's launch-scaled time and counters, and its kernel-group times,
one row at a time onto each segment's seed: the IEEE adds, in the order, of
a per-invocation walk, so each :class:`IterationResult` is bit-identical
to lowering with the config and timing the merged schedule invocation by
invocation — the oracle tests/test_plan_equivalence.py compares against
across models, shapes, hardware configurations, and noise seeds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from repro.hw.counters import CounterSet
from repro.hw.device import BatchMeasurement, GpuDevice
from repro.hw.timing import WorkBatch
from repro.models.plan import PLAN_CACHE, SchedulePlan, bind_plans
from repro.models.spec import IterationInputs, Model
from repro.train.frame import IterationProfile
from repro.util.stats import segmented_fold

__all__ = ["IterationExecutor", "IterationResult"]

#: Host-side framework overhead per iteration: input pipeline, session
#: dispatch, optimizer bookkeeping.  Fixed per iteration and hardware-
#: independent, so it dilutes device-side speedups for short sequences —
#: the reason per-SL sensitivity curves (paper Figs 13/14) rise with SL.
#: 25 ms matches TF1.x-era step overheads on these networks.
DEFAULT_HOST_OVERHEAD_S = 25e-3

_COUNTER_FIELDS = tuple(field.name for field in fields(CounterSet))


@dataclass(frozen=True)
class IterationResult:
    """Everything the trace records about one executed iteration."""

    time_s: float
    launches: int
    counters: CounterSet
    #: Kernel-group name -> device seconds (Fig 6 / Fig 8 distribution).
    group_times: dict[str, float]
    #: Distinct kernel variants launched (Fig 5 statistic).
    kernel_names: frozenset[str]
    #: GEMM problem shapes, for autotune accounting.
    gemm_shapes: tuple[tuple[int, int, int], ...]

    def profile(self) -> IterationProfile:
        """A fresh profile of this result; ``group_times`` is copied so
        a trace's profile pool cannot alias the executor's memo."""
        return IterationProfile(
            launches=self.launches,
            counters=self.counters,
            group_times=dict(self.group_times),
            kernel_names=self.kernel_names,
        )


class IterationExecutor:
    """Runs iterations of one model on one device."""

    def __init__(
        self,
        model: Model,
        device: GpuDevice,
        host_overhead_s: float = DEFAULT_HOST_OVERHEAD_S,
    ):
        if host_overhead_s < 0:
            raise ValueError("host_overhead_s cannot be negative")
        self.model = model
        self.device = device
        self.host_overhead_s = host_overhead_s
        #: Pass kind -> shape key -> result.
        self._memo: dict[str, dict[tuple[int, int, int | None], IterationResult]] = {
            "train": {},
            "forward": {},
        }

    def _key(self, inputs: IterationInputs) -> tuple[int, int, int | None]:
        return (inputs.batch, inputs.seq_len, inputs.tgt_len)

    def _reduce(
        self, plans: Sequence[SchedulePlan], measurement: BatchMeasurement
    ) -> list[IterationResult]:
        """Every plan's result, folded from the measurement of their
        stacked rows."""
        rows = np.array([plan.counts.size for plan in plans])
        plan_of_row = np.repeat(np.arange(len(plans)), rows)
        counters = [getattr(measurement.counters, name) for name in _COUNTER_FIELDS]
        columns = np.stack([measurement.time_s, *counters])
        counts = np.concatenate([plan.counts for plan in plans])
        columns *= counts
        # Integer-valued float sums below 2**53 are exact.
        launches = np.bincount(plan_of_row, weights=counts, minlength=len(plans))
        initial = np.empty((len(columns), len(plans)))
        initial[0] = self.host_overhead_s
        # -0.0 is the identity of IEEE addition, so a plan's counters
        # start at its first row as ``sum(rows)`` does, while a plan
        # without rows keeps CounterSet.zero()'s +0.0.
        initial[1:] = np.where(rows > 0, -0.0, 0.0)
        totals = segmented_fold(columns, plan_of_row, initial).T.tolist()
        groups = np.array([len(plan.groups) for plan in plans])
        group_of_row = (np.cumsum(groups) - groups)[plan_of_row] + np.concatenate(
            [plan.group_id for plan in plans]
        )
        # Plan-major: each plan takes the next len(plan.groups) totals
        # (zip stops at plan.groups without drawing one more).
        group_times = iter(
            segmented_fold(columns[0], group_of_row, np.zeros(groups.sum())).tolist()
        )
        return [
            IterationResult(
                time_s=time_s,
                launches=launch_count,
                counters=CounterSet(*counters),
                group_times=dict(zip(plan.groups, group_times)),
                kernel_names=frozenset(plan.names),
                gemm_shapes=plan.gemm_shapes,
            )
            for plan, launch_count, (time_s, *counters) in zip(
                plans, launches.astype(np.int64).tolist(), totals
            )
        ]

    def _lower(self, kind: str):
        return (
            self.model.lower_iteration
            if kind == "train"
            else self.model.lower_forward
        )

    def _fingerprint(self, kind: str, inputs: IterationInputs) -> dict | None:
        """Plan-store identity of a structural plan: the model's
        :meth:`~repro.models.spec.Model.plan_fingerprint` (``None`` opts
        out) plus pass kind and padded shape — everything lowering
        depends on."""
        model = self.model.plan_fingerprint()
        if model is None:
            return None
        return {
            "model": model,
            "kind": kind,
            "batch": inputs.batch,
            "seq_len": inputs.seq_len,
            "tgt_len": inputs.tgt_len,
        }

    def _plans_for(
        self, inputs_seq: Sequence[IterationInputs], kind: str
    ) -> list[SchedulePlan]:
        """These shapes' plans bound to this device's config.

        Bound plans come from the process-wide cache.  The rest get
        their structural plans (shared by every config, lowered once per
        process and once per machine with a store attached): the missing
        ones are lowered one at a time into one streamed
        :func:`~repro.models.plan.compile_plans` call, and all are bound
        together in one :func:`bind_plans` step.
        """
        config = self.device.config
        model_key = self.model.plan_key()
        keys = [
            (model_key, kind, inputs.batch, inputs.seq_len, inputs.tgt_len)
            for inputs in inputs_seq
        ]
        shapes = dict(zip(keys, inputs_seq))
        plans = [PLAN_CACHE.lookup((*key, config)) for key in keys]
        unbound = [key for key, plan in zip(keys, plans) if plan is None]
        if unbound:
            lower = self._lower(kind)
            structural = PLAN_CACHE.get_or_compile_many(
                unbound,
                lambda key: lower(shapes[key], None),
                lambda key: self._fingerprint(kind, shapes[key]),
            )
            bound = iter(bind_plans(structural, config))
            plans = [
                PLAN_CACHE.publish((*key, config), next(bound)) if plan is None else plan
                for key, plan in zip(keys, plans)
            ]
        return plans

    def run(self, inputs: IterationInputs) -> IterationResult:
        """One full training iteration (forward + backward + update)."""
        result = self._memo["train"].get(self._key(inputs))
        if result is None:
            (result,) = self.run_unique((inputs,))
        return result

    def run_forward(self, inputs: IterationInputs) -> IterationResult:
        """One forward-only (evaluation) pass."""
        result = self._memo["forward"].get(self._key(inputs))
        if result is None:
            (result,) = self.run_unique((inputs,), "forward")
        return result

    def run_forward_unique(
        self, inputs_seq: Sequence[IterationInputs]
    ) -> list[IterationResult]:
        """Forward results for many shapes: :meth:`run_unique` of the
        ``"forward"`` pass (the serving fast path's entry point)."""
        return self.run_unique(inputs_seq, "forward")

    def run_unique(
        self, inputs_seq: Sequence[IterationInputs], kind: str = "train"
    ) -> list[IterationResult]:
        """Results of one pass kind (``"train"`` or ``"forward"``) for
        many shapes, with one device call for every shape not yet run.

        Every shape missing from the memo gets its bound plan (see
        :meth:`_plans_for`: one bind for all of them), the missing
        plans' work columns are stacked with
        :meth:`~repro.hw.timing.WorkBatch.concat`, one
        :meth:`~repro.hw.device.GpuDevice.run_batch` times them all, and
        :meth:`_reduce` folds them all.  The timing engine is purely
        row-wise and each segment of the folds covers exactly the rows
        its plan contributed, so every result is bit-identical to
        running its shape alone — asserted in
        ``tests/test_plan_equivalence.py``.  Shapes are processed in
        first-appearance order.
        """
        memo = self._memo[kind]
        missing: dict[tuple[int, int, int | None], IterationInputs] = {}
        for inputs in inputs_seq:
            key = self._key(inputs)
            if key not in memo:
                missing.setdefault(key, inputs)
        if missing:
            plans = self._plans_for(list(missing.values()), kind)
            if len(plans) == 1:
                measurement = self.device.run_batch(plans[0].work)
            else:
                # A one-off concatenation: memoising it would only pin
                # its arrays in the device's store.
                measurement = self.device.run_batch(
                    WorkBatch.concat([plan.work for plan in plans]),
                    memoize=False,
                )
            memo.update(zip(missing, self._reduce(plans, measurement)))
        return [memo[self._key(inputs)] for inputs in inputs_seq]
