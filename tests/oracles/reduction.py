"""Per-plan reduction reference: fold one plan's rows at a time.

The executor reduces every new shape of a ``run_unique`` call with two
segmented folds over their stacked measurement.  This is the per-plan
reduction those folds replaced: each field a ``cumsum`` left fold over
exactly the rows that plan contributed, the accumulation of the
per-invocation walk written out with whole-array numpy calls.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import fields

import numpy as np

from repro.hw.counters import CounterColumns, CounterSet
from repro.hw.device import BatchMeasurement
from repro.models.plan import SchedulePlan
from repro.train.iteration import IterationResult

_FIELD_NAMES = tuple(field.name for field in fields(CounterColumns))


def sequential_sum(values: np.ndarray, initial: float = 0.0) -> float:
    """Strict left-to-right float64 sum: ``((initial + v0) + v1) + ...``.

    ``np.sum`` uses pairwise summation, which groups additions
    differently from an accumulator loop and so produces different
    low-order bits.  ``np.cumsum`` is a running (left-fold)
    accumulation, so its last element is the loop's result bit for bit.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float(initial)
    return float(np.cumsum(np.concatenate(((initial,), values)))[-1])


def scaled(columns: CounterColumns, factor: np.ndarray) -> CounterColumns:
    """Every column multiplied row-wise by ``factor``: the column form
    of :meth:`CounterSet.scaled`."""
    return CounterColumns(
        **{name: getattr(columns, name) * factor for name in _FIELD_NAMES}
    )


def rows(columns: CounterColumns, lo: int, hi: int) -> CounterColumns:
    """The ``[lo, hi)`` row range as its own column set (views)."""
    return CounterColumns(
        **{name: getattr(columns, name)[lo:hi] for name in _FIELD_NAMES}
    )


def sum_sequential(columns: CounterColumns) -> CounterSet:
    """Left-fold every column, matching ``sum(rows, CounterSet.zero())``.

    One stacked ``cumsum`` along the row axis folds all six columns at
    once; each row of the stack accumulates left to right.
    """
    if len(columns) == 0:
        return CounterSet.zero()
    stacked = np.stack([getattr(columns, name) for name in _FIELD_NAMES])
    folded = np.cumsum(stacked, axis=1)[:, -1]
    return CounterSet(**dict(zip(_FIELD_NAMES, folded.tolist())))


def reduce_plan(
    plan: SchedulePlan,
    time_s: np.ndarray,
    counters: CounterColumns,
    host_overhead_s: float,
) -> IterationResult:
    """Fold one plan's per-row measurements into a result."""
    contrib = time_s * plan.counts
    group_times = {
        group: sequential_sum(contrib[plan.group_id == gid])
        for gid, group in enumerate(plan.groups)
    }
    return IterationResult(
        time_s=sequential_sum(contrib, initial=host_overhead_s),
        launches=int(plan.counts.sum()),
        counters=sum_sequential(scaled(counters, plan.counts)),
        group_times=group_times,
        kernel_names=frozenset(plan.names),
        gemm_shapes=plan.gemm_shapes,
    )


def reduce_plans(
    plans: Sequence[SchedulePlan],
    measurement: BatchMeasurement,
    host_overhead_s: float,
) -> list[IterationResult]:
    """:func:`reduce_plan` of each plan over its slice of the
    measurement of all their rows stacked in order."""
    results = []
    offset = 0
    for plan in plans:
        upper = offset + len(plan)
        results.append(
            reduce_plan(
                plan,
                measurement.time_s[offset:upper],
                rows(measurement.counters, offset, upper),
                host_overhead_s,
            )
        )
        offset = upper
    return results
