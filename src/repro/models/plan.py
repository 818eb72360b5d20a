"""Columnar kernel IR: the compiled, batchable form of a schedule.

A :class:`~repro.models.schedule.KernelSchedule` is what lowering
produces — an ordered list of per-invocation Python dataclasses.  That
shape is convenient to build but expensive to *consume*: timing it
means a Python loop over entries with per-entry hashing, dataclass
construction, and counter arithmetic.  A :class:`SchedulePlan` is the
same information compiled once into parallel numpy columns:

* one row per **merged** entry (identical invocations coalesced with
  summed counts, in first-appearance order — exactly
  :meth:`KernelSchedule.merged`), carrying the ten
  :class:`~repro.hw.timing.WorkBatch` work columns plus launch counts;
* interned string tables for kernel-group and kernel-variant names,
  with integer id columns (``group_id``/``name_id``) mapping rows onto
  them;
* the GEMM problem dims in original launch order (autotune accounting
  follows launch order, not merged order).

Lowering comes in two layers.  The *structural* layer is a pure
function of (model, pass, shape): lowering with ``config=None`` leaves
every GEMM as a config-free request, and :func:`compile_plans` turns
the schedules of all of an executor call's new shapes into
:class:`StructuralPlan` objects in one vectorized pass.  It streams
them: each schedule shrinks to integer columns before the next is
lowered, so a call never holds them all.  :func:`compile_plan` is that
pass for one schedule.  The *hardware* layer is :func:`bind_plans`,
which picks every GEMM's variant for one config — for all of an
epoch's new shapes in one vectorized race — and yields the
:class:`SchedulePlan` the device times.  Binding a structural plan
gives, field for field, the plan compiled from a schedule lowered with
that config (asserted in tests/test_plan_bind.py).

Plans are frozen; the batched executor times them with one
:meth:`~repro.hw.device.GpuDevice.run_batch` call and reduces with the
same left-to-right accumulation the scalar reference loop performs, so
results are bit-identical.

:class:`PlanCache` is the process-wide store.  Structural plans are
keyed by ``(model plan key, pass kind, batch, seq_len, tgt_len)`` —
lowering is deterministic in exactly those inputs (the paper's Key
Observation 4 as a structural property) — and bound plans by the same
key plus the hardware config, so every executor, simulator, and sweep
worker in the process lowers each unique shape once and binds it once
per config.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from threading import Lock
from typing import Any

import numpy as np

from repro.errors import StorageError
from repro.hw.config import HardwareConfig
from repro.hw.timing import WorkBatch
from repro.kernels.gemm import (
    GEMM_NAMES,
    GEMM_VARIANT_COLUMNS,
    GemmRequest,
    gemm_names,
    gemm_work,
    select_variants,
)
from repro.models.schedule import KernelSchedule
from repro.util.filelock import file_lock
from repro.util.npt import ColumnStore, write_columns
from repro.util.stats import unique_by_first_appearance

__all__ = [
    "SchedulePlan",
    "StructuralPlan",
    "compile_plan",
    "compile_plans",
    "bind",
    "bind_plans",
    "PlanCache",
    "PlanStore",
    "PLAN_CACHE",
    "PLAN_SCHEMA",
]

#: v2 stores structural plans (v1 stored plans bound to one config).
PLAN_SCHEMA = "repro.schedule-plan.v2"

#: WorkBatch columns in serialisation order.
_WORK_COLUMNS = (
    "flops",
    "work_items",
    "issue_efficiency",
    "workgroup_size",
    "read_bytes",
    "write_bytes",
    "l1_reuse_fraction",
    "l1_working_set",
    "l2_reuse_fraction",
    "l2_working_set",
)


@dataclass(frozen=True, eq=False)
class SchedulePlan:
    """Frozen columnar form of one lowered pass.

    Compares by identity (``eq=False``): the :data:`PLAN_CACHE` hands
    out one object per unique plan, which also lets the device memoise
    batch measurements by plan identity.
    """

    work: WorkBatch
    #: Launches per row (the merged entry's repeat count).
    counts: np.ndarray
    #: Row -> index into :attr:`groups` / :attr:`names`.
    group_id: np.ndarray
    name_id: np.ndarray
    #: Interned tables, in first-appearance order over merged entries.
    groups: tuple[str, ...]
    names: tuple[str, ...]
    #: GEMM problem dims in launch order (unmerged), for autotune cost.
    gemm_shapes: tuple[tuple[int, int, int], ...]

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def launch_count(self) -> int:
        """Total kernel launches including per-step repetitions."""
        return int(self.counts.sum())

    @property
    def total_flops(self) -> float:
        return float((self.work.flops * self.counts).sum())


@dataclass(frozen=True, eq=False)
class StructuralPlan:
    """Config-free columnar form of one lowered pass.

    Rows, counts, groups and GEMM shapes are final; GEMM rows have no
    variant yet.  Their ``name_id`` is -1, their
    :data:`~repro.kernels.gemm.GEMM_VARIANT_COLUMNS` work entries are
    zero, and ``gemm_rows``/``gemm_dims`` say which rows they are and
    which problems they solve.  :func:`bind` completes them for one
    config.  Kernel names are interned over the non-GEMM rows only.
    """

    work: WorkBatch
    counts: np.ndarray
    group_id: np.ndarray
    name_id: np.ndarray
    groups: tuple[str, ...]
    names: tuple[str, ...]
    gemm_shapes: tuple[tuple[int, int, int], ...]
    #: Row index of each unbound GEMM row, ascending.
    gemm_rows: np.ndarray
    #: ``(m, n, k)`` of each of those rows, shape ``(len(gemm_rows), 3)``.
    gemm_dims: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.size)


def compile_plan(schedule: KernelSchedule) -> SchedulePlan | StructuralPlan:
    """Compile one lowered schedule: :func:`compile_plans` of one."""
    return compile_plans([schedule])[0]


def compile_plans(
    schedules: Iterable[KernelSchedule],
) -> list[SchedulePlan | StructuralPlan]:
    """Compile many lowered schedules into their frozen columnar plans.

    A schedule lowered with a hardware config compiles to a
    :class:`SchedulePlan`; one lowered without (``config=None``, so its
    GEMMs are :class:`~repro.kernels.gemm.GemmRequest` rows) compiles to
    a :class:`StructuralPlan` for :func:`bind` to finish per config.

    ``schedules`` is streamed: each schedule shrinks to two integer
    columns (the identity of each entry's invocation, and its count)
    before the next one is drawn, so a generator that lowers on demand
    never has two schedules alive.  Then one vectorized pass compiles
    every plan of the call:

    * merging keys each entry on (plan, equality class of its object).
      Kernel constructors are memoised, so repeated launches of one
      kernel are almost always the same object; the equality merge
      hashes each distinct object once per call, not once per plan.
      One first-appearance ``unique`` orders the rows and one
      ``bincount`` sums their counts — integer counts add
      associatively, so every plan coalesces exactly like
      :meth:`KernelSchedule.merged`;
    * kernel rows take their work from one
      :meth:`~repro.hw.timing.WorkBatch.from_profiles` over the call's
      distinct invocations; GEMM request rows take the columns their
      dims fix from one :func:`~repro.kernels.gemm.gemm_work`, and
      zeros where the variant decides;
    * groups and kernel names are interned per plan by :func:`_intern`.

    Every row's values are those of the first invocation of its plan
    that the row merges, so the plans equal, bit for bit, compiling
    each schedule alone (the per-schedule reference in
    ``tests/oracles/plan.py``).  The merge is the same for both plan
    kinds: on any one config a GEMM request is fixed by its group and
    dims, and so is the invocation it binds to.
    """
    # id -> invocation, in first-appearance order.  Holding each object
    # keeps its id from being reused by a later one once its schedule
    # is dropped.
    objects: dict[int, Any] = {}
    entry_ids: list[int] = []
    entry_counts: list[int] = []
    sizes: list[int] = []
    for schedule in schedules:
        invocations = [entry[0] for entry in schedule]
        entry_counts.extend([entry[1] for entry in schedule])
        del schedule  # dropped before the next one is lowered
        ids = list(map(id, invocations))
        objects.update(zip(ids, invocations))
        entry_ids.extend(ids)
        sizes.append(len(ids))
    plans = len(sizes)
    if not plans:
        return []

    # The dict's keys are the distinct ids in first-appearance order.
    distinct = list(objects.values())
    ids = np.fromiter(objects, np.int64, len(distinct))
    by_id = np.argsort(ids)
    object_of_entry = by_id[
        np.searchsorted(ids, np.array(entry_ids, dtype=np.int64), sorter=by_id)
    ]
    del objects, entry_ids
    # Equality classes of the distinct objects (equal-but-distinct
    # objects are rare), then rows: one per (plan, class), plan-major.
    class_of, classes = _tokens(distinct)
    plan_of_entry = np.repeat(np.arange(plans), sizes)
    _, first_entry, row_of_entry = unique_by_first_appearance(
        plan_of_entry * len(classes) + class_of[object_of_entry]
    )
    # Each row keeps its plan's first object of the class.
    object_of_row = object_of_entry[first_entry]
    plan_of_row = plan_of_entry[first_entry]
    # Integer-valued float sums below 2**53 are exact.
    counts = np.bincount(
        row_of_entry,
        weights=np.array(entry_counts, dtype=np.int64),
        minlength=first_entry.size,
    ).astype(np.int64)
    row_starts = np.concatenate(
        ([0], np.cumsum(np.bincount(plan_of_row, minlength=plans)))
    ).tolist()

    group_of, group_names = _tokens([inv.group for inv in distinct])
    name_of, kernel_names = _tokens([inv.name for inv in distinct])
    is_request = np.array(
        [isinstance(inv, GemmRequest) for inv in distinct], dtype=np.bool_
    )
    is_gemm = np.array([inv.op == "gemm" for inv in distinct], dtype=np.bool_)
    group_id, plan_groups = _intern(plan_of_row, group_of[object_of_row], plans)
    kernel_rows = np.flatnonzero(~is_request[object_of_row])
    name_id = np.full(first_entry.size, -1, dtype=np.int64)
    name_id[kernel_rows], plan_names = _intern(
        plan_of_row[kernel_rows], name_of[object_of_row[kernel_rows]], plans
    )

    # Kernel objects carry their work; GEMM requests carry the columns
    # their dims fix, and zeros where the variant decides.  Rows copy
    # their object's columns.
    kernel_objects = np.flatnonzero(~is_request)
    request_objects = np.flatnonzero(is_request)
    kernels = WorkBatch.from_profiles(
        [distinct[i].work for i in kernel_objects.tolist()]
    )
    dims = np.fromiter(
        chain.from_iterable(distinct[i].shape for i in request_objects.tolist()),
        np.int64,
    ).reshape(-1, 3)
    fixed = gemm_work(
        dims[:, 0], dims[:, 1], dims[:, 2], np.zeros(len(dims), dtype=np.int64)
    )
    object_work = np.zeros((len(_WORK_COLUMNS), len(distinct)))
    for position, name in enumerate(_WORK_COLUMNS):
        object_work[position, kernel_objects] = getattr(kernels, name)
        if name not in GEMM_VARIANT_COLUMNS:
            object_work[position, request_objects] = getattr(fixed, name)
    table = object_work[:, object_of_row]
    request_rows = np.flatnonzero(is_request[object_of_row])
    # Each request row's index among the request objects.
    gemm_dims = dims[(np.cumsum(is_request) - 1)[object_of_row[request_rows]]]
    gemm_rows = request_rows - np.take(row_starts, plan_of_row[request_rows])
    request_starts = np.concatenate(
        ([0], np.cumsum(np.bincount(plan_of_row[request_rows], minlength=plans)))
    ).tolist()

    # GEMM dims in launch order: a gemm invocation's shape IS (m, n, k).
    gemm_entries = np.flatnonzero(is_gemm[object_of_entry])
    shapes = [inv.shape for inv in distinct]
    launch_shapes = [shapes[i] for i in object_of_entry[gemm_entries].tolist()]
    launch_starts = np.concatenate(
        ([0], np.cumsum(np.bincount(plan_of_entry[gemm_entries], minlength=plans)))
    ).tolist()

    # Each plan copies its rows out of the call-wide tables, so a cached
    # plan owns its memory and keeps none of its siblings' alive.
    row_ints = np.stack((counts, group_id, name_id))
    compiled: list[SchedulePlan | StructuralPlan] = []
    for j in range(plans):
        lo, hi = row_starts[j], row_starts[j + 1]
        plan_counts, plan_group_id, plan_name_id = row_ints[:, lo:hi].copy()
        fields = dict(
            work=WorkBatch(*table[:, lo:hi].copy()),
            counts=plan_counts,
            group_id=plan_group_id,
            name_id=plan_name_id,
            groups=tuple(group_names[token] for token in plan_groups[j]),
            names=tuple(kernel_names[token] for token in plan_names[j]),
            gemm_shapes=tuple(launch_shapes[launch_starts[j] : launch_starts[j + 1]]),
        )
        first, last = request_starts[j], request_starts[j + 1]
        if first == last:
            compiled.append(SchedulePlan(**fields))
        else:
            compiled.append(
                StructuralPlan(
                    **fields,
                    gemm_rows=gemm_rows[first:last].copy(),
                    gemm_dims=gemm_dims[first:last].copy(),
                )
            )
    return compiled


def _tokens(values: list) -> tuple[np.ndarray, list]:
    """Each value's index among the distinct values, and those values,
    in first-appearance order (equal values share one token)."""
    table: dict = {}
    tokens = [table.setdefault(value, len(table)) for value in values]
    return np.array(tokens, dtype=np.int64), list(table)


def _intern(
    plan_of_row: np.ndarray, tokens: np.ndarray, plans: int
) -> tuple[np.ndarray, list[list[int]]]:
    """Per-plan interning of row tokens in first-appearance order.

    ``plan_of_row`` is ascending (plans are contiguous row ranges).
    Returns each row's id within its plan's table, and each plan's
    table as a list of tokens — what a per-plan
    ``table.setdefault(token, len(table))`` loop over the rows builds.
    """
    width = int(tokens.max(initial=0)) + 1
    # Rows of earlier plans come first, so first-appearance order is
    # plan order, then first appearance within the plan.
    unique, _, inverse = unique_by_first_appearance(plan_of_row * width + tokens)
    table_sizes = np.bincount(unique // width, minlength=plans)
    table_starts = np.concatenate(([0], np.cumsum(table_sizes)))
    ids = inverse - table_starts[plan_of_row]
    ordered = (unique % width).tolist()
    bounds = table_starts.tolist()
    return ids, [ordered[bounds[j] : bounds[j + 1]] for j in range(plans)]


def bind(plan: SchedulePlan | StructuralPlan, config: HardwareConfig) -> SchedulePlan:
    """``plan`` with its GEMM variants chosen for ``config``."""
    return bind_plans([plan], config)[0]


def bind_plans(
    plans: Sequence[SchedulePlan | StructuralPlan], config: HardwareConfig
) -> list[SchedulePlan]:
    """Bind many plans to ``config`` in one vectorized step.

    Every GEMM row of every structural plan goes through one
    :func:`~repro.kernels.gemm.select_variants` call (which races the
    problems ``config`` has not raced yet, all at once) and one
    :func:`~repro.kernels.gemm.gemm_work` call for the winners' columns;
    kernel names are re-interned per plan in row order.  The result is
    field for field what :func:`compile_plan` makes of the same pass
    lowered with ``config`` (asserted in tests/test_plan_bind.py).  A
    bound plan shares its structural plan's counts, groups, GEMM shapes
    and variant-free work columns; plans without GEMMs are already
    bound and come back as they are.
    """
    bound: list = list(plans)
    todo = [i for i, plan in enumerate(plans) if isinstance(plan, StructuralPlan)]
    if not todo:
        return bound
    parts = [plans[i] for i in todo]
    sizes = np.array([len(part) for part in parts], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    gemm_rows = np.concatenate(
        [part.gemm_rows + start for part, start in zip(parts, starts.tolist())]
    )
    dims = np.concatenate([part.gemm_dims for part in parts])
    m, n, k = dims[:, 0], dims[:, 1], dims[:, 2]
    variant = select_variants(dims, config)
    winners = gemm_work(m, n, k, variant)
    columns = {}
    for name in GEMM_VARIANT_COLUMNS:
        column = np.concatenate([getattr(part.work, name) for part in parts])
        column[gemm_rows] = getattr(winners, name)
        columns[name] = column

    # Names: one token per distinct string (GEMM names first, so a
    # GEMM row's token is its gemm_names index).
    token_of = {name: token for token, name in enumerate(GEMM_NAMES)}
    local_tokens = []
    for part in parts:
        # The trailing 0 is what a GEMM row's name_id of -1 picks.
        tokens = [token_of.setdefault(name, len(token_of)) for name in part.names]
        local_tokens.append(np.array([*tokens, 0], dtype=np.int64)[part.name_id])
    tokens = np.concatenate(local_tokens)
    tokens[gemm_rows] = gemm_names(m, n, variant)
    plan_of_row = np.repeat(np.arange(len(parts)), sizes)
    name_id, plan_tokens = _intern(plan_of_row, tokens, len(parts))
    token_names = list(token_of)

    for j, (i, part) in enumerate(zip(todo, parts)):
        lo, hi = int(starts[j]), int(starts[j + 1])
        bound[i] = SchedulePlan(
            work=WorkBatch(
                **{
                    name: columns[name][lo:hi]
                    if name in columns
                    else getattr(part.work, name)
                    for name in _WORK_COLUMNS
                }
            ),
            counts=part.counts,
            group_id=part.group_id,
            name_id=name_id[lo:hi],
            groups=part.groups,
            names=tuple(token_names[token] for token in plan_tokens[j]),
            gemm_shapes=part.gemm_shapes,
        )
    return bound


def _plan_columns(
    plan: SchedulePlan | StructuralPlan,
) -> tuple[dict[str, Any], list[tuple[str, np.ndarray]]]:
    """The (meta, columns) serialisation of one plan of either kind."""
    structural = isinstance(plan, StructuralPlan)
    meta = {
        "groups": list(plan.groups),
        "names": list(plan.names),
        "structural": structural,
    }
    columns: list[tuple[str, np.ndarray]] = [
        (name, getattr(plan.work, name)) for name in _WORK_COLUMNS
    ]
    columns.append(("counts", plan.counts))
    columns.append(("group_id", plan.group_id))
    columns.append(("name_id", plan.name_id))
    columns.append(
        (
            "gemm_shapes",
            np.asarray(plan.gemm_shapes, dtype=np.int64).reshape(
                len(plan.gemm_shapes), 3
            ),
        )
    )
    if structural:
        columns.append(("gemm_rows", plan.gemm_rows))
        columns.append(("gemm_dims", plan.gemm_dims))
    return meta, columns


def _plan_from_store(store: ColumnStore) -> SchedulePlan | StructuralPlan:
    """Rebuild a plan over a container's zero-copy column views.

    WorkBatch columns come back as contiguous read-only views into the
    mapping; the timing engine and :func:`bind` only read them, so
    mmap-backed plans time bit-identically to freshly compiled ones.
    """
    fields = dict(
        work=WorkBatch(**{name: store.column(name) for name in _WORK_COLUMNS}),
        counts=store.column("counts"),
        group_id=store.column("group_id"),
        name_id=store.column("name_id"),
        groups=tuple(store.meta["groups"]),
        names=tuple(store.meta["names"]),
        gemm_shapes=tuple(
            tuple(row) for row in store.column("gemm_shapes").tolist()
        ),
    )
    if store.meta.get("structural"):
        return StructuralPlan(
            **fields,
            gemm_rows=store.column("gemm_rows"),
            gemm_dims=store.column("gemm_dims"),
        )
    return SchedulePlan(**fields)


#: Either kind of plan; the caches and the store hold both.
Plan = SchedulePlan | StructuralPlan


class PlanStore:
    """Content-addressed on-disk store of compiled plans.

    Keys are stable hashes of structural plan fingerprints (model
    hyperparameters + pass kind + shape — see
    :meth:`~repro.models.spec.Model.plan_fingerprint`; no hardware
    config, since the executor stores :class:`StructuralPlan`\\ s), so
    *any* process on the machine that needs the same lowering finds the
    artefact instead of recompiling, whatever config it binds to.
    Writes follow the trace cache's protocol: a per-key advisory file
    lock for the duration of a miss plus atomic temp-file + rename
    publication, so racing spawn workers lower each unique plan exactly
    once machine-wide.  An artefact of an older :data:`PLAN_SCHEMA`
    found under a key is rebuilt and replaced, never served; one that
    fails to load is renamed to ``*.npt.corrupt``, counted in
    ``quarantined``, and rebuilt.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._lock = Lock()
        self._key_locks: dict[str, Lock] = {}
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    @staticmethod
    def key_for(fingerprint: Mapping[str, Any]) -> str:
        """Stable content hash of a plan fingerprint mapping."""
        canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npt"

    def get_or_compute(
        self,
        fingerprint: Mapping[str, Any],
        build: Callable[[], Plan],
    ) -> Plan:
        """The stored plan for ``fingerprint``, building it on a miss.

        The whole miss runs under a per-key lock — threads on an
        in-process lock, processes on an advisory file lock — so callers
        racing on one fingerprint produce exactly one lowering: the
        loser blocks, then loads the winner's artefact.
        """
        key = self.key_for(fingerprint)
        path = self._path(key)
        with self._lock:
            key_lock = self._key_locks.setdefault(key, Lock())
        with key_lock, file_lock(self.directory, key):
            plan = self._load(path)
            if plan is not None:
                with self._lock:
                    self.hits += 1
                return plan
            plan = build()
            meta, columns = _plan_columns(plan)
            staging = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            write_columns(staging, PLAN_SCHEMA, meta, columns)
            os.replace(staging, path)
            with self._lock:
                self.misses += 1
            return plan

    def _load(self, path: Path) -> Plan | None:
        """The current-schema plan at ``path``, or ``None``; the caller
        holds the key's file lock."""
        if not path.exists():
            return None
        try:
            stored = ColumnStore(path)
            if stored.schema != PLAN_SCHEMA:
                return None
            return _plan_from_store(stored)
        except StorageError:
            # Derived data: set it aside so the key rebuilds instead of
            # failing every later lookup.
            os.replace(path, path.with_name(f"{path.name}.corrupt"))
            with self._lock:
                self.quarantined += 1
            return None

    def stats(self) -> dict[str, int]:
        entries = 0
        if self.directory.is_dir():
            entries = sum(1 for _ in self.directory.glob("*.npt"))
        with self._lock:
            return {
                "entries": entries,
                "hits": self.hits,
                "misses": self.misses,
                "quarantined": self.quarantined,
            }

    def __repr__(self) -> str:
        return f"PlanStore({str(self.directory)!r})"


class PlanCache:
    """Process-wide store of compiled plans, with hit/miss counters.

    Thread-safe.  Plans are built outside the lock — a build may lower
    and compile, or wait on another process's file lock in the
    :class:`PlanStore` — and :meth:`publish` keeps the first plan
    published under a key, so every caller of one key observes the
    *same* plan object (identity matters — the device's
    batch-measurement memo keys on it) while lookups of other keys never
    wait behind a build.

    ``hits`` counts lookups answered from memory; ``misses`` counts
    compiles, so a shape that is lowered once and bound to five configs
    is one miss.

    A :class:`PlanStore` may be attached, in which case memory misses
    whose caller supplies a structural fingerprint fall through to the
    on-disk tier before compiling — that is what lets a pool of spawn
    workers share lowerings machine-wide.
    """

    def __init__(self) -> None:
        self._plans: dict[tuple, Plan] = {}
        self._lock = Lock()
        self._hits = 0
        self._misses = 0
        self._store: PlanStore | None = None

    def attach_store(self, store: PlanStore | None) -> PlanStore | None:
        """Attach (or detach with ``None``) the on-disk tier.

        Returns the previously attached store so callers scoping a
        store to one operation can restore the prior state in a
        ``finally`` block.
        """
        with self._lock:
            previous = self._store
            self._store = store
            return previous

    def get_or_compile(
        self,
        key: tuple,
        build: Callable[[], Plan],
        fingerprint: Mapping[str, Any] | Callable[[], Mapping[str, Any] | None] | None = None,
    ) -> Plan:
        """The plan under ``key``, compiling (and storing) it on a miss.

        When a store is attached and ``fingerprint`` is not ``None``,
        the miss path delegates to the store, which loads a previously
        persisted lowering or compiles-and-publishes exactly once
        across processes.  ``fingerprint`` may be a callable, called
        only on such a miss: hits never pay for building it.
        """
        plan = self.lookup(key)
        if plan is not None:
            return plan
        store = self._store
        if store is not None and callable(fingerprint):
            fingerprint = fingerprint()
        if store is not None and fingerprint is not None:
            plan = store.get_or_compute(fingerprint, build)
        else:
            plan = build()
        with self._lock:
            self._misses += 1
            return self._plans.setdefault(key, plan)

    def get_or_compile_many(
        self,
        keys: Sequence[tuple],
        lower: Callable[[tuple], KernelSchedule],
        fingerprint: Callable[[tuple], Mapping[str, Any] | None],
    ) -> list[Plan]:
        """The plans under ``keys``, compiling every miss in one
        :func:`compile_plans` call.

        ``lower(key)`` lowers one missing key; the misses are lowered
        one at a time as :func:`compile_plans` consumes them.  With a
        store attached each miss instead goes key by key through
        :meth:`get_or_compile`, whose per-key file lock keeps one
        lowering machine-wide.
        """
        plans = [self.lookup(key) for key in keys]
        missing = [i for i, plan in enumerate(plans) if plan is None]
        if not missing:
            return plans
        if self._store is not None:
            for i in missing:
                key = keys[i]
                plans[i] = self.get_or_compile(
                    key,
                    lambda key=key: compile_plans([lower(key)])[0],
                    lambda key=key: fingerprint(key),
                )
            return plans
        compiled = compile_plans(lower(keys[i]) for i in missing)
        with self._lock:
            self._misses += len(missing)
            for i, plan in zip(missing, compiled):
                plans[i] = self._plans.setdefault(keys[i], plan)
        return plans

    def lookup(self, key: tuple) -> Plan | None:
        """The plan under ``key`` (a hit), or ``None`` without counting."""
        plan = self._plans.get(key)
        if plan is not None:
            with self._lock:
                self._hits += 1
        return plan

    def publish(self, key: tuple, plan: Plan) -> Plan:
        """Store ``plan`` under ``key`` unless one is there already;
        returns the plan every caller of ``key`` shares."""
        with self._lock:
            return self._plans.setdefault(key, plan)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._plans),
                "hits": self._hits,
                "misses": self._misses,
            }

    def clear(self) -> None:
        """Drop all plans and counters (for cold benchmarking)."""
        with self._lock:
            self._plans.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


#: The process-wide cache every executor and sweep worker shares.
PLAN_CACHE = PlanCache()
