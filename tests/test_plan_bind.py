"""Structural lowering + per-config binding vs lowering with a config.

Lowering without a hardware config yields a structural plan; binding
it to a config must give exactly what compiling the config-lowered
schedule gives, and the vectorized GEMM race behind the binding must
reproduce ``build_gemm`` + ``time_work`` bit for bit.  The counting
tests pin down what the split buys: each unique shape is lowered once,
however many configs it is timed on.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.engine import AnalysisEngine
from repro.api.registry import MODELS
from repro.api.spec import AnalysisSpec, ProjectionSpec
from repro.hw.config import VEGA_FE, paper_config
from repro.hw.device import GpuDevice
from repro.hw.timing import WorkBatch, time_work
from repro.kernels.gemm import (
    GEMM_NAMES,
    GEMM_VARIANTS,
    GemmRequest,
    build_gemm,
    candidate_times,
    gemm,
    gemm_names,
    gemm_work,
    race_gemms,
    select_variants,
)
from repro.models.gnmt import build_gnmt
from repro.models.plan import (
    PLAN_CACHE,
    PLAN_SCHEMA,
    PlanStore,
    SchedulePlan,
    StructuralPlan,
    bind,
    bind_plans,
    compile_plan,
)
from repro.models.spec import IterationInputs
from repro.train.iteration import IterationExecutor
from repro.util.npt import ColumnStore, write_columns

from oracles import ScalarExecutor, select_reference

CONFIGS = {index: paper_config(index) for index in range(1, 6)}
#: Both caches off: the race's capacity and latency terms at their
#: other extreme.
BARE = replace(VEGA_FE, name="no-caches", l1_bytes=0, l2_bytes=0)
RACE_CONFIGS = [*CONFIGS.values(), BARE]

WORK_FIELDS = [field.name for field in dataclasses.fields(WorkBatch)]


def assert_plans_identical(left, right):
    assert type(left) is type(right) is SchedulePlan
    for name in WORK_FIELDS:
        a, b = getattr(left.work, name), getattr(right.work, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    for name in ("counts", "group_id", "name_id"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert left.groups == right.groups
    assert left.names == right.names
    assert left.gemm_shapes == right.gemm_shapes


# ---- the vectorized race ----------------------------------------------

_TILES = sorted({v.tile_m for v in GEMM_VARIANTS} | {v.tile_n for v in GEMM_VARIANTS})

#: GEMM dims: 1, tile multiples and their neighbours, and anything else.
dims_strategy = st.one_of(
    st.just(1),
    st.builds(
        lambda tile, multiple, offset: max(1, tile * multiple + offset),
        st.sampled_from(_TILES),
        st.integers(min_value=1, max_value=48),
        st.sampled_from([-1, 0, 1]),
    ),
    st.integers(min_value=1, max_value=6000),
)
problems_strategy = st.lists(
    st.tuples(dims_strategy, dims_strategy, dims_strategy), min_size=1, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(problems=problems_strategy, config=st.sampled_from(RACE_CONFIGS))
def test_race_matches_build_gemm_and_time_work(problems, config):
    dims = np.array(problems, dtype=np.int64)
    times = race_gemms(dims, config)
    assert times.shape == (len(problems), len(GEMM_VARIANTS))
    for row, (m, n, k) in enumerate(problems):
        for column, variant in enumerate(GEMM_VARIANTS):
            expected, _, _ = time_work(build_gemm(variant, m, n, k).work, config)
            assert times[row, column] == expected, (m, n, k, variant)
    # The winner is the first minimum, as in the reference loop's
    # strict ``<``.
    winners = select_variants(dims, config)
    for row, (m, n, k) in enumerate(problems):
        first_min = int(np.flatnonzero(times[row] == times[row].min())[0])
        assert winners[row] == first_min
        assert GEMM_VARIANTS[winners[row]] is select_reference(m, n, k, config)


@settings(max_examples=60, deadline=None)
@given(
    problems=problems_strategy,
    choices=st.lists(
        st.integers(min_value=0, max_value=len(GEMM_VARIANTS) - 1),
        min_size=6,
        max_size=6,
    ),
)
def test_gemm_work_columns_match_build_gemm(problems, choices):
    dims = np.array(problems, dtype=np.int64)
    variant = np.array(choices[: len(problems)], dtype=np.int64)
    columns = gemm_work(dims[:, 0], dims[:, 1], dims[:, 2], variant)
    built = [
        build_gemm(GEMM_VARIANTS[v], m, n, k)
        for (m, n, k), v in zip(problems, variant.tolist())
    ]
    expected = WorkBatch.from_profiles([invocation.work for invocation in built])
    for name in WORK_FIELDS:
        a, b = getattr(columns, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    names = gemm_names(dims[:, 0], dims[:, 1], variant)
    assert [GEMM_NAMES[i] for i in names.tolist()] == [inv.name for inv in built]


@pytest.mark.parametrize("config", RACE_CONFIGS, ids=lambda c: c.name)
def test_ties_go_to_the_first_variant(config):
    """Rank-1 updates (``k=1``) near one macro-tile tie across several
    small-tile variants on every config with an L2; the earliest
    variant in GEMM_VARIANTS order must win."""
    candidates = np.array(
        [
            (m, n, k)
            for m in (1, 16, 17, 64, 127, 128, 129)
            for n in (1, 16, 128, 129)
            for k in (1, 7)
        ],
        dtype=np.int64,
    )
    times = race_gemms(candidates, config)
    winners = select_variants(candidates, config)
    tied = 0
    for row, problem in enumerate(candidates.tolist()):
        minima = np.flatnonzero(times[row] == times[row].min())
        tied += minima.size > 1
        assert winners[row] == minima[0]
        assert GEMM_VARIANTS[winners[row]] is select_reference(*problem, config)
    if config.l2_enabled:
        assert tied  # the tie rule is actually exercised


def test_config_free_gemm_is_a_request():
    request = gemm(64, 128, 32, None, group="GEMM-1")
    assert request == GemmRequest(group="GEMM-1", shape=(64, 128, 32))
    assert request.op == "gemm"
    assert gemm(64, 128, 32, None, group="GEMM-1") is request  # memoised


# ---- bind == lower with the config --------------------------------------


def _inputs(seq_len: int) -> IterationInputs:
    return IterationInputs(batch=4, seq_len=seq_len, tgt_len=seq_len - 3)


@pytest.mark.parametrize("config_index", sorted(CONFIGS))
@pytest.mark.parametrize("kind", ["train", "forward"])
@pytest.mark.parametrize("network", MODELS.available())
def test_bind_equals_compile_with_config(network, kind, config_index):
    model = MODELS.create(network)
    lower = model.lower_iteration if kind == "train" else model.lower_forward
    config = CONFIGS[config_index]
    inputs = _inputs(19)
    structural = compile_plan(lower(inputs, None))
    assert isinstance(structural, StructuralPlan)
    expected = compile_plan(lower(inputs, config))
    bound = bind(structural, config)
    assert_plans_identical(bound, expected)
    # Shared, not copied: the bound plan references the structural
    # plan's config-free arrays.
    assert bound.counts is structural.counts
    assert bound.group_id is structural.group_id
    assert bound.gemm_shapes is structural.gemm_shapes
    assert bound.work.write_bytes is structural.work.write_bytes


@pytest.mark.parametrize("config_index", [1, 4])
def test_binding_many_plans_at_once_equals_one_at_a_time(config_index):
    model = build_gnmt()
    config = CONFIGS[config_index]
    structural = [
        compile_plan(model.lower_iteration(_inputs(seq_len), None))
        for seq_len in (7, 40, 19, 7)
    ]
    together = bind_plans(structural, config)
    for plan, bound in zip(structural, together):
        assert_plans_identical(bound, bind(plan, config))


def test_plan_without_gemms_is_already_bound():
    from repro.kernels.elementwise import elementwise
    from repro.models.schedule import KernelSchedule

    plan = compile_plan(KernelSchedule([(elementwise("tanh", 1 << 12), 3)]))
    assert isinstance(plan, SchedulePlan)
    assert bind(plan, CONFIGS[1]) is plan


def test_stored_structural_plan_binds_identically(tmp_path):
    model = build_gnmt()
    inputs = _inputs(23)
    structural = compile_plan(model.lower_iteration(inputs, None))
    store = PlanStore(tmp_path)
    store.get_or_compute({"k": 1}, lambda: structural)
    loaded = store.get_or_compute({"k": 1}, lambda: pytest.fail("rebuild"))
    assert isinstance(loaded, StructuralPlan)
    for config in CONFIGS.values():
        assert_plans_identical(bind(loaded, config), bind(structural, config))


# ---- counts: lower once per shape, not once per config -----------------


@pytest.fixture
def lowering_counter(monkeypatch):
    """Count top-level ``(kind, batch, seq_len, tgt_len)`` lowerings of
    GNMT (its training pass lowers the forward pass inside itself)."""
    from repro.models.gnmt import GnmtModel

    calls: Counter = Counter()
    depth = [0]
    for attr, kind in (("lower_iteration", "train"), ("lower_forward", "forward")):
        original = getattr(GnmtModel, attr)

        def counted(self, inputs, config, _original=original, _kind=kind):
            if not depth[0]:
                calls[(_kind, inputs.batch, inputs.seq_len, inputs.tgt_len)] += 1
            depth[0] += 1
            try:
                return _original(self, inputs, config)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(GnmtModel, attr, counted)
    return calls


def test_cold_analysis_lowers_each_shape_once(lowering_counter):
    PLAN_CACHE.clear()
    result = AnalysisEngine().run(
        AnalysisSpec(network="gnmt", scale=0.02), ProjectionSpec()
    )
    assert len(result.projections) == 5
    kinds = Counter(kind for kind, *_ in lowering_counter)
    assert kinds["train"] > 1 and kinds["forward"] >= 1
    assert set(lowering_counter.values()) == {1}


def test_process_sweep_stores_one_plan_per_shape(tmp_path, lowering_counter):
    from repro.api import SweepSpec, run_sweep

    sweep = SweepSpec(networks=("gnmt",), scales=(0.01,), configs=(1, 2))
    # The unique (kind, shape) population, counted in-process.
    PLAN_CACHE.clear()
    serial = run_sweep(sweep, mode="serial", cache_dir=tmp_path / "serial")
    shapes = len(lowering_counter)
    assert set(lowering_counter.values()) == {1}

    store_dir = tmp_path / "plans"
    run = run_sweep(
        sweep, mode="process", workers=2, cache_dir=tmp_path / "traces",
        plan_store_dir=store_dir,
    )
    # Every store miss publishes one artefact under its own key lock:
    # one per unique shape, not one per (shape, config).
    artefacts = list(store_dir.glob("*.npt"))
    assert len(artefacts) == shapes
    assert {ColumnStore(path).schema for path in artefacts} == {PLAN_SCHEMA}
    assert [r.to_dict() for r in run.results] == [
        r.to_dict() for r in serial.results
    ]


def _write_v1(path, plan: SchedulePlan) -> None:
    """A plan artefact in the v1 layout: one plan bound to one config."""
    columns = [(name, getattr(plan.work, name)) for name in WORK_FIELDS]
    columns += [
        ("counts", plan.counts),
        ("group_id", plan.group_id),
        ("name_id", plan.name_id),
        ("gemm_shapes", np.asarray(plan.gemm_shapes, dtype=np.int64).reshape(-1, 3)),
    ]
    write_columns(
        path, "repro.schedule-plan.v1",
        {"groups": list(plan.groups), "names": list(plan.names)}, columns,
    )


def test_store_with_v1_artefacts_serves_identical_results(tmp_path):
    """v1 artefacts sit under config-bearing keys no v2 lookup asks
    for; a v1 file under a v2 key (here deliberately the plan of a
    *different* shape) is rebuilt, never served."""
    model = build_gnmt()
    config = CONFIGS[3]
    shapes = [_inputs(seq_len) for seq_len in (9, 21, 33)]
    fingerprint = model.plan_fingerprint()
    decoy = compile_plan(model.lower_iteration(_inputs(50), config))
    for inputs in shapes:
        shape = {
            "model": fingerprint, "kind": "train", "batch": inputs.batch,
            "seq_len": inputs.seq_len, "tgt_len": inputs.tgt_len,
        }
        v1_key = PlanStore.key_for({**shape, "config": dataclasses.asdict(config)})
        _write_v1(tmp_path / f"{v1_key}.npt", decoy)
        _write_v1(tmp_path / f"{PlanStore.key_for(shape)}.npt", decoy)

    reference = IterationExecutor(build_gnmt(), GpuDevice(config))
    expected = [reference.run(inputs) for inputs in shapes]
    PLAN_CACHE.clear()
    store = PlanStore(tmp_path)
    previous = PLAN_CACHE.attach_store(store)
    try:
        results = IterationExecutor(model, GpuDevice(config)).run_unique(shapes)
    finally:
        PLAN_CACHE.attach_store(previous)
    for result, want in zip(results, expected):
        assert result.time_s == want.time_s
        assert result.counters == want.counters
        assert result.group_times == want.group_times
        assert result.kernel_names == want.kernel_names
        assert result.gemm_shapes == want.gemm_shapes
    assert store.stats()["misses"] == len(shapes)
    schemas = Counter(ColumnStore(path).schema for path in tmp_path.glob("*.npt"))
    assert schemas == {PLAN_SCHEMA: len(shapes), "repro.schedule-plan.v1": len(shapes)}


# ---- shared state under threads ------------------------------------------

#: The module itself: ``repro.kernels`` re-exports a function named
#: ``gemm``, which shadows the submodule as a package attribute.
gemm_module = importlib.import_module("repro.kernels.gemm")


def test_race_memo_stays_bounded(monkeypatch):
    config = replace(VEGA_FE, name="race-memo-bound")
    monkeypatch.setattr(gemm_module, "_MAX_RACES_PER_CONFIG", 4)
    problems = [(m, 33, 65) for m in range(1, 11)]
    winners = select_variants(np.array(problems), config)
    assert len(gemm_module._RACES[config]) == 4
    # Evicted problems are raced again, to the same answer.
    for problem, winner in zip(problems, winners.tolist()):
        times = candidate_times(*problem, config)
        assert int(np.argmin(times)) == winner
    assert len(gemm_module._RACES[config]) == 4


def test_concurrent_binding_shares_one_plan_per_key(monkeypatch):
    """Threads binding the same shapes at once (the serve daemon's
    workers) must all see one published plan per key and identical
    results, while the race memo evicts under them."""
    monkeypatch.setattr(gemm_module, "_MAX_RACES_PER_CONFIG", 16)
    model = build_gnmt()
    config = replace(VEGA_FE, name="concurrent-bind")
    shapes = [_inputs(seq_len) for seq_len in range(5, 45, 3)]
    reference = ScalarExecutor(build_gnmt(), GpuDevice(config))
    expected = [reference.run(inputs) for inputs in shapes]

    results: list = [None] * 6
    failures: list = []

    def worker(slot: int) -> None:
        try:
            executor = IterationExecutor(model, GpuDevice(config))
            results[slot] = (executor.run_unique(shapes), executor._plans_for(shapes, "train"))
        except Exception as exc:  # reported below, with the slot
            failures.append((slot, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    first_plans = results[0][1]
    for got, plans in results:
        assert all(a is b for a, b in zip(plans, first_plans))
        for result, want in zip(got, expected):
            assert result.time_s == want.time_s
            assert result.counters == want.counters
            assert result.group_times == want.group_times
            assert result.kernel_names == want.kernel_names
