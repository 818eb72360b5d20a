"""Spans recorded from outside the program, around each layer's public calls.

:func:`install` wraps the public functions and methods the benchmark
attributes time to, patching the attribute callers actually resolve (a
class attribute for methods; every loaded ``repro`` module that imported
a function by name).  A :class:`Tracer` keeps spans in memory — name,
start, end, parent and op id — with one span stack per thread, so the
serve daemon's worker threads each build their own trees.  The root of a
tree is an ``op`` span (``AnalysisEngine.run`` or ``run_traffic``); every
span below it carries that op's id.

A layer's self time is its span durations minus the part covered by
direct child spans.  Nothing here changes a result: wrappers only time
and count, then return what the wrapped call returned.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: Spans whose self time is a layer's ``<name>_s`` metric.  The other
#: two span names are ``op``, the root, and ``cache.compute``, which only
#: exists to take the compute callback out of ``cache.lookup``; their
#: self time is what ``unattributed_pct`` reports.
LAYER_SPANS = (
    "data.resolve",
    "data.plan_epoch",
    "models.lower",
    "plan.compile",
    "plan.lookup",
    "kernels.autotune",
    "hw.run_batch",
    "train.epoch",
    "cache.lookup",
    "core.select",
    "core.project",
    "stream.identify",
    "traffic.sample",
    "traffic.form",
    "traffic.serve",
)


class Tracer:
    """In-memory span recorder, one span list and parent stack per thread.

    A span is ``[name, start, end, parent, op]``; ``parent`` indexes the
    same thread's list.  Recording takes no lock: the serve daemon's two
    worker threads would otherwise queue on it, and on the GIL behind it.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[tuple[list, dict, list]] = []
        self._lock = threading.Lock()
        self._ops = itertools.count()  # next() is atomic in CPython
        self._gauges: dict[str, list] = {}  # name -> [read, at reset]

    def _state(self) -> tuple[list, dict, list]:
        """This thread's ``(spans, counters, stack)``."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], defaultdict(float), [])
            with self._lock:
                self._threads.append(state)
        return state

    def reset(self) -> None:
        """Drop every span and counter (call with no span open)."""
        with self._lock:
            for spans, counters, _ in self._threads:
                spans.clear()
                counters.clear()
            for gauge in self._gauges.values():
                gauge[1] = gauge[0]()

    def count(self, name: str, value: float) -> None:
        self._state()[1][name] += value

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as span ``name``; ``on_result(args, result)``
        may add counters from the call."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, _, stack = self._state()
            if stack:
                parent = stack[-1]
                op = spans[parent][4]
            else:
                parent, op = -1, next(self._ops)
            record = [name, clock(), 0.0, parent, op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def add_gauge(self, name: str, read) -> None:
        """Counter ``name`` is what ``read()`` grew by since the last
        reset: for totals the program keeps itself."""
        self._gauges[name] = [read, read()]

    def summary(self) -> dict:
        """Self seconds and call counts per span name, plus op walls.

        Only spans under an ``op`` root count, so set-up work that ran
        outside any op (and was not reset away) cannot leak in.
        """
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counters: dict[str, float] = defaultdict(float)
        op_wall: dict[int, float] = {}
        with self._lock:
            threads = list(self._threads)
        for name, (read, at_reset) in self._gauges.items():
            counters[name] += read() - at_reset
        for spans, thread_counters, _ in threads:
            for name, value in thread_counters.items():
                counters[name] += value
            child_s = [0.0] * len(spans)
            for name, start, end, parent, op in spans:
                if parent >= 0:
                    child_s[parent] += end - start
                elif name == "op":
                    op_wall[op] = op_wall.get(op, 0.0) + (end - start)
            for i, (name, start, end, parent, op) in enumerate(spans):
                if op in op_wall:
                    self_s[name] += (end - start) - child_s[i]
                    calls[name] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "op_wall_s": sum(op_wall.values()),
            "ops": len(op_wall),
            "counters": dict(counters),
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON document; ``parent`` indexes the
        spans of the same ``thread``."""
        with self._lock:
            threads = list(self._threads)
        with open(path, "w") as handle:
            json.dump(
                [
                    {"thread": t, "name": n, "start": s, "end": e,
                     "parent": p, "op": o}
                    for t, (spans, _, _) in enumerate(threads)
                    for n, s, e, p, o in spans
                ],
                handle,
            )


def _patch_method(tracer, cls, attr, name, on_result=None) -> None:
    original = getattr(cls, attr)
    if getattr(original, "__wrapped_by_perfbench__", False):
        return
    setattr(cls, attr, tracer.wrap(name, original, on_result))


def _replace_function(module, attr, make) -> None:
    """Replace ``module.attr``, and every loaded ``repro`` module's alias
    of it, with ``make(original)``."""
    original = getattr(module, attr)
    replacement = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("repro") and getattr(mod, attr, None) is original:
            setattr(mod, attr, replacement)


def _patch_function(tracer, module, attr, name, on_result=None) -> None:
    _replace_function(
        module, attr, lambda fn: tracer.wrap(name, fn, on_result)
    )


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points; call once per process."""
    import repro.core.projection as projection
    import repro.models.plan as plan
    import repro.traffic.batcher as batcher
    import repro.traffic.workload as workload
    import repro.train.runner as runner
    from repro.api.cache import TraceCache
    from repro.api.engine import AnalysisEngine
    from repro.api.registry import MODELS, SELECTORS
    from repro.data.batching import BatchingPolicy
    from repro.hw.device import GpuDevice
    from repro.kernels.autotune import Autotuner
    from repro.stream.identifier import StreamingIdentifier
    from repro.traffic.arrivals import ArrivalProcess
    from repro.traffic.simulator import TrafficSimulator
    from repro.train.iteration import IterationExecutor
    from repro.train.runner import TrainingRunSimulator

    _patch_method(tracer, AnalysisEngine, "run", "op")
    _patch_method(tracer, AnalysisEngine, "run_traffic", "op")
    _patch_method(tracer, AnalysisEngine, "resolve", "data.resolve")
    _patch_method(
        tracer, BatchingPolicy, "plan_epoch_columns", "data.plan_epoch"
    )

    for network in MODELS.available():
        model_cls = type(MODELS.create(network))
        for attr in ("lower_iteration", "lower_forward"):
            owner = next(c for c in model_cls.__mro__ if attr in c.__dict__)
            _patch_method(
                tracer, owner, attr, "models.lower",
                lambda args, result: tracer.count("models.lower_calls", 1),
            )

    _patch_function(tracer, plan, "compile_plan", "plan.compile")
    _patch_method(tracer, plan.PlanCache, "get_or_compile", "plan.lookup")
    # ``Autotuner.charge`` runs ~25k times per warm serve job, so a
    # wrapper on it would cost more than the calls: autotune time is the
    # shape walk's charging hook (one span per new iteration shape), and
    # the count is GEMM shapes tuned, which every autotuner keeps.
    tuners: list = []
    original_init = Autotuner.__init__

    @functools.wraps(original_init)
    def init(autotuner, *args, **kwargs):
        original_init(autotuner, *args, **kwargs)
        tuners.append(autotuner)

    Autotuner.__init__ = init
    tracer.add_gauge(
        "kernels.autotune_shapes",
        lambda: sum(tuner.shapes_tuned for tuner in tuners),
    )

    def shape_walk(walk):
        @functools.wraps(walk)
        def traced_walk(seq_len, tgt_len, batch, run, on_result=None):
            if on_result is not None:
                on_result = tracer.wrap("kernels.autotune", on_result)
            return walk(seq_len, tgt_len, batch, run, on_result)

        return traced_walk

    _replace_function(runner, "memoized_shape_walk", shape_walk)
    _patch_method(
        tracer, GpuDevice, "run_batch", "hw.run_batch",
        lambda args, result: tracer.count("hw.rows", len(args[1])),
    )

    def epoch_counts(args, frame) -> None:
        tracer.count("train.iterations", len(frame))
        tracer.count("train.unique_shapes", len(frame.profiles))

    _patch_method(
        tracer, TrainingRunSimulator, "run_epoch_frame", "train.epoch",
        epoch_counts,
    )

    original_lookup = TraceCache.get_or_compute

    def get_or_compute(cache, key, compute):
        return original_lookup(
            cache, key, tracer.wrap("cache.compute", compute)
        )

    TraceCache.get_or_compute = tracer.wrap(
        "cache.lookup", functools.wraps(original_lookup)(get_or_compute)
    )

    for name in SELECTORS.available():
        selector = SELECTORS.create(name)
        for cls in type(selector).__mro__:
            if "select" in cls.__dict__:
                _patch_method(tracer, cls, "select", "core.select")
    for attr in ("project_epoch_time", "project_throughput", "project_total"):
        _patch_function(tracer, projection, attr, "core.project")

    _patch_method(
        tracer, StreamingIdentifier, "run", "stream.identify",
        lambda args, run: tracer.count("stream.checks", len(run.checks)),
    )

    _patch_function(tracer, workload, "sample_requests", "traffic.sample")
    for cls in ArrivalProcess.__subclasses__():
        _patch_method(tracer, cls, "times", "traffic.sample")
    _patch_function(tracer, batcher, "form_batches", "traffic.form")
    _patch_method(
        tracer, TrafficSimulator, "serve", "traffic.serve",
        lambda args, served: tracer.count("traffic.batches", len(served.frame)),
    )
    forward_unique = IterationExecutor.run_forward_unique

    @functools.wraps(forward_unique)
    def run_forward_unique(executor, inputs_seq):
        tracer.count("traffic.unique_shapes", len(inputs_seq))
        return forward_unique(executor, inputs_seq)

    IterationExecutor.run_forward_unique = run_forward_unique
