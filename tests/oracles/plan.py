"""Per-schedule compile reference: one schedule, one plan at a time.

:func:`repro.models.plan.compile_plans` compiles every new shape of a
call in one vectorized pass.  This is the per-schedule compile it
replaced: an identity pre-merge and an equality merge over one
schedule's entries, then a Python loop over its merged rows.
"""

from __future__ import annotations

import numpy as np

from repro.hw.timing import WorkBatch
from repro.kernels.gemm import GEMM_VARIANT_COLUMNS, GemmRequest, gemm_work
from repro.models.plan import _WORK_COLUMNS, SchedulePlan, StructuralPlan
from repro.models.schedule import KernelSchedule
from repro.util.stats import unique_by_first_appearance


def compile_plan_reference(
    schedule: KernelSchedule,
) -> SchedulePlan | StructuralPlan:
    """Compile one lowered schedule into its frozen columnar plan.

    Merging runs in two passes: a vectorized pre-merge keyed on object
    identity, then an equality merge over the surviving distinct
    objects.  First-appearance order is preserved through both and
    integer counts add associatively, so the result coalesces exactly
    like :meth:`KernelSchedule.merged`.
    """
    entries = list(schedule)
    n = len(entries)
    invocations = [entry[0] for entry in entries]
    id_column = np.fromiter(map(id, invocations), np.int64, n)
    count_column = np.fromiter((entry[1] for entry in entries), np.int64, n)

    # Group by identity, ranked by first appearance.
    _, first_index, object_row = unique_by_first_appearance(id_column)
    # Integer-valued float sums below 2**53 are exact.
    object_counts = np.bincount(
        object_row, weights=count_column, minlength=first_index.size
    ).astype(np.int64)
    unique_invocations = [invocations[i] for i in first_index.tolist()]

    # Equality merge across distinct-but-equal objects (rare).
    totals: dict = {}
    rows: list = []
    row_counts: list[int] = []
    for position, invocation in enumerate(unique_invocations):
        row = totals.get(invocation)
        if row is None:
            totals[invocation] = len(rows)
            rows.append(invocation)
            row_counts.append(int(object_counts[position]))
        else:
            row_counts[row] += int(object_counts[position])

    # GEMM dims in launch order: a gemm invocation's shape IS (m, n, k).
    is_gemm = np.fromiter(
        (inv.op == "gemm" for inv in unique_invocations),
        np.bool_,
        len(unique_invocations),
    )
    shapes = [inv.shape for inv in unique_invocations]
    gemm_entries = np.flatnonzero(is_gemm[object_row])
    gemm_shapes = tuple(
        shapes[position] for position in object_row[gemm_entries].tolist()
    )

    group_table: dict[str, int] = {}
    name_table: dict[str, int] = {}
    group_id = np.empty(len(rows), dtype=np.int64)
    name_id = np.full(len(rows), -1, dtype=np.int64)
    requests: list[int] = []
    for row, invocation in enumerate(rows):
        group_id[row] = group_table.setdefault(invocation.group, len(group_table))
        if isinstance(invocation, GemmRequest):
            requests.append(row)
        else:
            name_id[row] = name_table.setdefault(invocation.name, len(name_table))
    counts = np.array(row_counts, dtype=np.int64)
    if not requests:
        return SchedulePlan(
            work=WorkBatch.from_profiles([inv.work for inv in rows]),
            counts=counts,
            group_id=group_id,
            name_id=name_id,
            groups=tuple(group_table),
            names=tuple(name_table),
            gemm_shapes=gemm_shapes,
        )

    # Structural: kernel rows carry their work; GEMM rows carry the
    # columns their dims fix, and zeros where the variant decides.
    gemm_rows = np.array(requests, dtype=np.int64)
    gemm_dims = np.array([rows[row].shape for row in requests], dtype=np.int64).reshape(
        -1, 3
    )
    kernel_rows = np.flatnonzero(name_id >= 0)
    table = np.zeros((len(_WORK_COLUMNS), len(rows)))
    kernels = WorkBatch.from_profiles([rows[row].work for row in kernel_rows.tolist()])
    fixed = gemm_work(
        gemm_dims[:, 0],
        gemm_dims[:, 1],
        gemm_dims[:, 2],
        np.zeros(len(requests), dtype=np.int64),
    )
    for position, name in enumerate(_WORK_COLUMNS):
        table[position, kernel_rows] = getattr(kernels, name)
        if name not in GEMM_VARIANT_COLUMNS:
            table[position, gemm_rows] = getattr(fixed, name)
    return StructuralPlan(
        work=WorkBatch(**dict(zip(_WORK_COLUMNS, table))),
        counts=counts,
        group_id=group_id,
        name_id=name_id,
        groups=tuple(group_table),
        names=tuple(name_table),
        gemm_shapes=gemm_shapes,
        gemm_rows=gemm_rows,
        gemm_dims=gemm_dims,
    )
