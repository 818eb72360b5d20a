"""The streamed batch compile vs the per-schedule compile oracle.

:func:`repro.models.plan.compile_plans` compiles every new shape of an
executor call in one vectorized pass.  These tests pin it, bit for bit,
to ``compile_plan_reference`` from ``tests/oracles/plan.py`` run on each
schedule alone, and check the two properties the batch compile exists
for: it never holds more than one lowered schedule, and the kernel
records it merges carry no instance dicts.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.registry import MODELS
from repro.hw.cache import TrafficProfile
from repro.hw.compute import ComputeProfile
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.kernels.base import make_invocation
from repro.kernels.elementwise import elementwise
from repro.kernels.gemm import GemmRequest, gemm
from repro.models import plan as plan_module
from repro.models.gnmt import build_gnmt
from repro.models.plan import (
    PlanCache,
    PlanStore,
    SchedulePlan,
    StructuralPlan,
    compile_plan,
    compile_plans,
)
from repro.models.schedule import KernelSchedule
from repro.models.spec import IterationInputs
from repro.train.iteration import IterationExecutor

from oracles import compile_plan_reference

_MODELS = {name: MODELS.create(name) for name in MODELS.available()}


def assert_same_plan(got, expected) -> None:
    """Field-for-field equality; work columns compared as int64 bits."""
    assert type(got) is type(expected)
    for field in dataclasses.fields(expected):
        actual, wanted = getattr(got, field.name), getattr(expected, field.name)
        if field.name == "work":
            for column in dataclasses.fields(wanted):
                a = getattr(actual, column.name)
                b = getattr(wanted, column.name)
                assert a.dtype == b.dtype == np.float64, column.name
                assert a.shape == b.shape, column.name
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), column.name
        elif isinstance(wanted, np.ndarray):
            assert actual.dtype == wanted.dtype, field.name
            assert actual.shape == wanted.shape, field.name
            assert np.array_equal(actual, wanted), field.name
        else:
            assert actual == wanted, field.name


def assert_matches_reference(schedules: list[KernelSchedule]) -> list:
    plans = compile_plans(iter(schedules))
    assert len(plans) == len(schedules)
    for got, schedule in zip(plans, schedules):
        assert_same_plan(got, compile_plan_reference(schedule))
    return plans


def _invocation(name: str, size: int, working_set: float = 0.0, group: str = "g"):
    """A fresh (never memoised) invocation: equal arguments build
    equal-but-distinct objects."""
    return make_invocation.__wrapped__(
        name, "elementwise", group, (size,),
        flops=float(size), work_items=size, read_bytes=4.0 * size,
        write_bytes=4.0 * size, issue_efficiency=0.5,
        l1_working_set=working_set,
    )


#: Random shape sets, repeats included: (batch, seq_len, tgt_len).
shape_sets = st.lists(
    st.tuples(
        st.integers(1, 64),
        st.integers(1, 48),
        st.one_of(st.none(), st.integers(1, 48)),
    ),
    max_size=6,
)


class TestCompilePlansMatchesReference:
    @pytest.mark.parametrize("kind", ("train", "forward"))
    @pytest.mark.parametrize("name", sorted(_MODELS))
    @settings(max_examples=8, deadline=None)
    @given(shapes=shape_sets, config=st.sampled_from((None, 1, 3)))
    def test_every_model_and_pass(self, name, kind, shapes, config):
        """One call's worth of schedules; ``None`` is the structural
        lowering, a Table II index the config-lowered one."""
        model = _MODELS[name]
        lower = model.lower_iteration if kind == "train" else model.lower_forward
        hardware = None if config is None else paper_config(config)
        assert_matches_reference([lower(IterationInputs(*shape), hardware) for shape in shapes])

    def test_empty_call_and_empty_schedule(self):
        assert compile_plans([]) == []
        assert compile_plans(iter(())) == []
        (plan,) = assert_matches_reference([KernelSchedule()])
        assert isinstance(plan, SchedulePlan) and len(plan) == 0
        # An empty schedule between two others takes no rows of theirs.
        model = _MODELS["gnmt"]
        structural = model.lower_forward(IterationInputs(4, 9, 7), None)
        assert_matches_reference([structural, KernelSchedule(), structural])

    def test_plan_kinds_in_one_call(self):
        gemm_free = KernelSchedule(
            [(elementwise("tanh", 1 << 12), 3), (elementwise("add", 77), 1)]
        )
        model = _MODELS["ds2"]
        structural = model.lower_iteration(IterationInputs(8, 30), None)
        bound = model.lower_iteration(IterationInputs(8, 30), paper_config(2))
        plans = assert_matches_reference([gemm_free, structural, bound, gemm_free])
        assert [type(plan) for plan in plans] == [
            SchedulePlan, StructuralPlan, SchedulePlan, SchedulePlan,
        ]

    def test_equal_but_distinct_invocations(self):
        first = _invocation("k", 64)
        second = _invocation("k", 64, working_set=-0.0)  # == first, other bits
        other = _invocation("j", 32)
        assert first is not second and first == second and hash(first) == hash(second)
        plans = assert_matches_reference(
            [
                KernelSchedule([(first, 2), (other, 1), (second, 3)]),
                KernelSchedule([(second, 1), (first, 4)]),
                KernelSchedule([(other, 5), (first, 1)]),
            ]
        )
        assert [plan.counts.tolist() for plan in plans] == [[5, 1], [5], [5, 1]]
        # Each plan's row keeps its own first object's bits.
        signs = [np.signbit(plan.work.l1_working_set[plan.names.index("k")]) for plan in plans]
        assert signs == [False, True, False]

    def test_object_recurring_at_different_positions(self):
        a = elementwise("relu", 1000)
        b = elementwise("scale", 2000, group="b")
        c = gemm(16, 32, 64, None, group="GEMM-1")
        d = gemm(16, 32, 64, paper_config(1), group="GEMM-2")
        plans = assert_matches_reference(
            [
                KernelSchedule([(a, 1), (b, 2), (c, 1)]),
                KernelSchedule([(c, 3), (b, 1), (a, 2), (c, 1)]),
                KernelSchedule([(b, 1), (d, 2), (b, 1)]),
                KernelSchedule([(d, 1), (c, 1), (a, 1)]),
            ]
        )
        assert plans[1].groups == ("GEMM-1", "b", a.group)
        assert plans[1].gemm_rows.tolist() == [0]
        assert plans[1].gemm_shapes == ((16, 32, 64), (16, 32, 64))
        assert plans[3].gemm_rows.tolist() == [1]
        assert isinstance(plans[2], SchedulePlan)

    def test_plans_own_their_arrays(self):
        """No plan holds a view of a table its siblings share, so a
        cached plan keeps only its own rows alive."""
        model = _MODELS["gnmt"]
        plans = compile_plans(
            model.lower_forward(IterationInputs(batch, 9, 7), None) for batch in (2, 3)
        )

        def arrays(plan):
            fields = [getattr(plan, field.name) for field in dataclasses.fields(plan)]
            fields += [getattr(plan.work, field.name) for field in dataclasses.fields(plan.work)]
            return [value for value in fields if isinstance(value, np.ndarray)]

        assert all(
            not np.shares_memory(a, b) for a in arrays(plans[0]) for b in arrays(plans[1])
        )

    def test_compile_plan_is_a_call_of_one(self):
        schedule = _MODELS["gnmt"].lower_iteration(IterationInputs(16, 20, 18), None)
        assert_same_plan(compile_plan(schedule), compile_plan_reference(schedule))
        assert_same_plan(schedule.compiled(), compile_plan_reference(schedule))


class TestStreaming:
    def test_one_schedule_alive_at_a_time(self):
        model = build_gnmt(hidden=80)
        lowered: list[weakref.ref] = []

        def lower_all():
            for seq_len in range(1, 40):
                # Every schedule drawn so far is gone before the next
                # one is lowered.
                assert all(ref() is None for ref in lowered), len(lowered)
                schedule = model.lower_forward(IterationInputs(3, seq_len, 5), None)
                lowered.append(weakref.ref(schedule))
                yield schedule
                del schedule

        assert len(compile_plans(lower_all())) == 39

    def test_no_schedule_survives_a_forward_call(self):
        model = build_gnmt(hidden=72)  # its shapes are fresh to the cache
        executor = IterationExecutor(model, GpuDevice(paper_config(1)))
        shapes = [IterationInputs(batch, 6, 4) for batch in range(1, 201)]
        gc.collect()
        before = {id(obj) for obj in gc.get_objects() if isinstance(obj, KernelSchedule)}
        results = executor.run_forward_unique(shapes)
        assert len(results) == 200
        alive = [
            obj
            for obj in gc.get_objects()
            if isinstance(obj, KernelSchedule) and id(obj) not in before
        ]
        assert alive == []


def _child_checks(pickled: list, parent_probe: int, results) -> None:
    """Spawn-child half of the pickle test: a different hash seed."""
    fresh = [_invocation("pickled", 128), GemmRequest(group="GEMM-1", shape=(8, 16, 32))]
    results.put(
        {
            "salted": hash("probe") != parent_probe,
            "equal": pickled == fresh,
            "hash": [hash(record) for record in pickled] == [hash(r) for r in fresh],
            "key": [dict.fromkeys(fresh, "found").get(record) for record in pickled],
        }
    )


class TestSlottedRecords:
    @pytest.mark.parametrize(
        "record",
        [
            ComputeProfile(flops=1.0, work_items=2),
            TrafficProfile(read_bytes=1.0, write_bytes=2.0),
            _invocation("slots", 8).work,
            _invocation("slots", 8),
            GemmRequest(group="g", shape=(1, 2, 3)),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)

    def test_checks_still_run(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ComputeProfile(flops=-1.0, work_items=1)
        with pytest.raises(ConfigurationError):
            TrafficProfile(read_bytes=1.0, write_bytes=1.0, l1_reuse_fraction=2.0)

    def test_pickle_never_carries_the_cached_hash(self, monkeypatch):
        records = [_invocation("pickled", 128), GemmRequest(group="GEMM-1", shape=(8, 16, 32))]
        for record in records:
            hash(record)  # fills any cached-hash slot
            assert pickle.loads(pickle.dumps(record)) == record
        seed = "4242" if os.environ.get("PYTHONHASHSEED") != "4242" else "4243"
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        context = multiprocessing.get_context("spawn")
        results = context.Queue()
        child = context.Process(target=_child_checks, args=(records, hash("probe"), results))
        child.start()
        outcome = results.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        assert outcome == {
            "salted": True, "equal": True, "hash": True, "key": ["found", "found"],
        }


def _tiny_plan():
    return compile_plan(KernelSchedule([(elementwise("tanh", 64), 1)]))


class TestPlanCacheLock:
    def test_lookup_does_not_wait_for_a_build(self):
        cache = PlanCache()
        ready = cache.publish(("ready",), _tiny_plan())
        building, release = threading.Event(), threading.Event()

        def slow_build():
            building.set()
            release.wait(10)
            return _tiny_plan()

        builder = threading.Thread(
            target=cache.get_or_compile, args=(("slow",), slow_build)
        )
        builder.start()
        assert building.wait(10)
        looked: list = []
        probe = threading.Thread(target=lambda: looked.append(cache.lookup(("ready",))))
        probe.start()
        probe.join(timeout=2)
        answered = not probe.is_alive()
        release.set()
        builder.join(timeout=10)
        probe.join(timeout=10)
        assert answered, "lookup waited for another key's build"
        assert looked == [ready]

    def test_racing_builds_share_the_first_published_plan(self):
        cache = PlanCache()
        building, release = threading.Event(), threading.Event()
        slow_plan, fast_plan = _tiny_plan(), _tiny_plan()
        got: list = []

        def slow_build():
            building.set()
            release.wait(10)
            return slow_plan

        builder = threading.Thread(
            target=lambda: got.append(cache.get_or_compile(("k",), slow_build))
        )
        builder.start()
        assert building.wait(10)
        first = cache.get_or_compile(("k",), lambda: fast_plan)
        release.set()
        builder.join(timeout=10)
        assert first is fast_plan and got == [fast_plan]
        # Two compiles, two misses; later callers hit the same object.
        assert cache.get_or_compile(("k",), pytest.fail) is fast_plan
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 2}

    def test_threads_share_one_plan_per_key_and_count_every_call(self):
        cache = PlanCache()
        builds = []
        seen: dict[tuple, set] = {}
        lock = threading.Lock()

        def build():
            plan = _tiny_plan()
            with lock:
                builds.append(plan)
            return plan

        def worker(offset):
            for step in range(200):
                key = ((offset + step) % 7,)
                plan = cache.get_or_compile(key, build)
                with lock:
                    seen.setdefault(key, set()).add(id(plan))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(ids) == 1 for ids in seen.values()) and len(seen) == 7
        stats = cache.stats()
        assert stats["misses"] == len(builds)
        assert stats["hits"] + stats["misses"] == 8 * 200

    def test_many_compiles_every_miss_in_one_call(self, monkeypatch):
        cache = PlanCache()
        cached = cache.publish(("a",), _tiny_plan())
        calls: list[int] = []
        real = plan_module.compile_plans

        def counting(schedules):
            plans = real(schedules)
            calls.append(len(plans))
            return plans

        monkeypatch.setattr(plan_module, "compile_plans", counting)
        lowered: list[tuple] = []

        def lower(key):
            lowered.append(key)
            return KernelSchedule([(elementwise("add", 10 * len(key[0])), 1)])

        keys = [("a",), ("bb",), ("ccc",)]
        plans = cache.get_or_compile_many(keys, lower, lambda key: None)
        assert plans[0] is cached
        assert calls == [2] and lowered == keys[1:]
        assert cache.stats() == {"entries": 3, "hits": 1, "misses": 2}
        again = cache.get_or_compile_many(keys, pytest.fail, pytest.fail)
        assert all(x is y for x, y in zip(again, plans))

    def test_many_with_a_store_goes_key_by_key(self, tmp_path):
        store = PlanStore(tmp_path)
        lowered: list[tuple] = []

        def lower(key):
            lowered.append(key)
            return KernelSchedule([(elementwise("mul", 100 + key[0]), key[0])])

        keys = [(1,), (2,), (3,)]
        writer = PlanCache()
        writer.attach_store(store)
        first = writer.get_or_compile_many(keys, lower, lambda key: {"k": key[0]})
        assert lowered == keys and len(list(tmp_path.glob("*.npt"))) == 3
        assert store.stats()["misses"] == 3

        reader = PlanCache()
        reader.attach_store(store)
        loaded = reader.get_or_compile_many(keys, pytest.fail, lambda key: {"k": key[0]})
        assert store.stats()["hits"] == 3
        for got, expected in zip(loaded, first):
            assert_same_plan(got, expected)
