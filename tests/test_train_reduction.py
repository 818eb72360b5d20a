"""The executor's segmented folds vs the per-plan reduction oracle.

``IterationExecutor.run_unique`` reduces every new shape of a call with
:func:`repro.util.stats.segmented_fold` over the stacked measurement.
These tests pin it, bit for bit, to ``tests/oracles/reduction.py``:
``sequential_sum`` per segment for the helper, and ``reduce_plan`` per
shape for the executor.  Swapping any two adds changes low-order bits,
so both fail if the fold reorders one.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.config import paper_config
from repro.hw.counters import CounterColumns, CounterSet
from repro.hw.device import GpuDevice
from repro.hw.timing import WorkBatch
from repro.kernels.elementwise import elementwise
from repro.kernels.gemm import gemm
from repro.models.ds2 import build_ds2
from repro.models.gnmt import build_gnmt
from repro.models.schedule import KernelSchedule
from repro.models.spec import IterationInputs, Model
from repro.train.iteration import IterationExecutor
from repro.util.stats import segmented_fold

from oracles.reduction import (
    reduce_plan,
    reduce_plans,
    rows,
    scaled,
    sequential_sum,
    sum_sequential,
)


def _bits(array) -> np.ndarray:
    return np.asarray(array, dtype=np.float64).view(np.int64)


def _fold_reference(values, segment_ids, initial) -> np.ndarray:
    """``sequential_sum`` of every segment along every leading index."""
    expected = np.empty_like(initial)
    for index in np.ndindex(initial.shape):
        *lead, segment = index
        expected[index] = sequential_sum(
            values[(*lead, segment_ids == segment)], initial[index]
        )
    return expected


@st.composite
def fold_cases(draw):
    """Random segment layouts: empty, singleton and ordinary segments
    interleaved in random row order, sometimes one very long segment,
    values spanning many magnitudes and both zeros, under 0-2 leading
    axes with arbitrary seeds."""
    lengths = draw(
        st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=10)
    )
    if draw(st.booleans()):
        lengths[draw(st.integers(0, len(lengths) - 1))] = draw(
            st.integers(min_value=200, max_value=600)
        )
    lead = draw(st.sampled_from([(), (6,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segment_ids = rng.permutation(np.repeat(np.arange(len(lengths)), lengths))

    def floats(shape):
        out = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
        zeros = rng.random(shape) < 0.05
        out[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
        return out

    return (
        floats((*lead, segment_ids.size)),
        segment_ids,
        floats((*lead, len(lengths))),
    )


class TestSegmentedFold:
    @given(fold_cases())
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_sequential_sum_per_segment(self, case):
        values, segment_ids, initial = case
        folded = segmented_fold(values, segment_ids, initial)
        assert folded.shape == initial.shape
        np.testing.assert_array_equal(
            _bits(folded), _bits(_fold_reference(values, segment_ids, initial))
        )

    def test_adds_in_row_order_not_pairwise(self):
        # A right fold of the same values gives 1.0.
        values = np.array([1.0, 1e100, 1.0, -1e100, 3.0])
        folded = segmented_fold(values, np.zeros(5, dtype=np.int64), np.zeros(1))
        assert folded[0] == ((((0.0 + 1.0) + 1e100) + 1.0) - 1e100) + 3.0 == 3.0

    def test_empty_segments_keep_their_seed_bits(self):
        initial = np.array([-0.0, 2.5, 0.0])
        folded = segmented_fold(np.array([1.0]), np.array([1]), initial)
        np.testing.assert_array_equal(_bits(folded), _bits([-0.0, 3.5, 0.0]))

    def test_negative_zero_seed_is_the_identity(self):
        folded = segmented_fold(
            np.array([-0.0, 0.0, -0.0]), np.array([0, 1, 2]), np.full(3, -0.0)
        )
        np.testing.assert_array_equal(_bits(folded), _bits([-0.0, 0.0, -0.0]))

    def test_no_rows_and_no_segments(self):
        assert segmented_fold(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)).size == 0


class EdgeCaseModel(Model):
    """Lowers each sequence length to one of the reduction's edge cases:
    1 is a single row, 2 has no GEMMs, and longer ones interleave GEMM,
    element-wise and activation groups step by step."""

    def __init__(self):
        super().__init__("edge-cases")

    def lower_iteration(self, inputs, config):
        n = inputs.seq_len
        schedule = KernelSchedule()
        if n == 1:
            schedule.add(elementwise("relu", 4096 * inputs.batch), 3)
        elif n == 2:
            schedule.add(elementwise("scale", 512 * inputs.batch, group="a"))
            schedule.add(elementwise("shift", 768 * inputs.batch, group="b"), 4)
            schedule.add(elementwise("scale", 640 * inputs.batch, group="a"), 2)
        else:
            for step in range(1, n + 1):
                schedule.add(gemm(inputs.batch, 64 * step, 256, config), step)
                schedule.add(elementwise("add", 1000 * step + n), 2)
                schedule.add(
                    elementwise("tanh", 700 * step, group="activation"), n
                )
        return schedule

    lower_forward = lower_iteration

    def param_count(self) -> int:
        return 0


def _result_bits(result) -> tuple:
    """Every field of an :class:`IterationResult`, floats as hex."""
    return (
        result.time_s.hex(),
        result.launches,
        {name: value.hex() for name, value in result.counters.as_dict().items()},
        [(group, value.hex()) for group, value in result.group_times.items()],
        result.kernel_names,
        result.gemm_shapes,
    )


CASES = {
    "edge-cases": (EdgeCaseModel, [(1, None), (2, None), (3, None), (7, None), (12, None)]),
    "gnmt": (build_gnmt, [(25, 23), (100, 100), (301, 277), (804, 776)]),
    "ds2": (build_ds2, [(120, None), (200, None), (1500, None)]),
}


class TestExecutorReduction:
    @pytest.mark.parametrize("network", sorted(CASES))
    @pytest.mark.parametrize("config_index", (1, 3))
    @pytest.mark.parametrize("kind", ("train", "forward"))
    def test_one_call_equals_per_plan_reduction(self, network, config_index, kind):
        build, dims = CASES[network]
        model = build()
        device = GpuDevice(paper_config(config_index))
        shapes = [IterationInputs(16, seq_len, tgt_len) for seq_len, tgt_len in dims]
        # Repeats and reordering: each new shape is reduced once.
        requested = shapes + shapes[::-1]
        executor = IterationExecutor(model, device, host_overhead_s=0.0137)
        results = executor.run_unique(requested, kind)

        oracle = IterationExecutor(model, device, host_overhead_s=0.0137)
        plans = oracle._plans_for(shapes, kind)
        for inputs, result, plan in zip(requested, results, plans):
            measurement = device.run_batch(plan.work)
            expected = reduce_plan(
                plan, measurement.time_s, measurement.counters, 0.0137
            )
            assert _result_bits(result) == _result_bits(expected), inputs
        assert results[: len(shapes)] == results[len(shapes) :][::-1]

    def test_edge_case_plans_are_what_they_claim(self):
        device = GpuDevice(paper_config(1))
        executor = IterationExecutor(EdgeCaseModel(), device)
        one_row, no_gemms, interleaved = executor._plans_for(
            [IterationInputs(16, n) for n in (1, 2, 5)], "train"
        )
        assert len(one_row) == 1 and not one_row.gemm_shapes
        assert not no_gemms.gemm_shapes
        assert no_gemms.group_id.tolist() == [0, 1, 0]
        assert interleaved.group_id.tolist() == [0, 1, 2] * 5

    def test_stacked_measurement_matches_per_plan_slices(self):
        device = GpuDevice(paper_config(2))
        executor = IterationExecutor(build_gnmt(), device)
        shapes = [IterationInputs(64, n, n) for n in (30, 31, 90)]
        plans = executor._plans_for(shapes, "train")
        stacked = device.run_batch(
            WorkBatch.concat([plan.work for plan in plans]), memoize=False
        )
        expected = reduce_plans(plans, stacked, executor.host_overhead_s)
        folded = executor._reduce(plans, stacked)
        assert [_result_bits(r) for r in folded] == [
            _result_bits(r) for r in expected
        ]

    def test_signed_zeros_and_an_empty_plan(self):
        """Rows whose values are -0.0 and a plan without rows: the
        counter seeds must reproduce ``sum(rows)`` (starting at the
        first row) and ``CounterSet.zero()`` bit for bit."""
        device = GpuDevice(paper_config(1))
        executor = IterationExecutor(EdgeCaseModel(), device)
        one_row, interleaved = executor._plans_for(
            [IterationInputs(16, 1), IterationInputs(16, 4)], "train"
        )
        empty = dataclasses.replace(
            one_row,
            work=WorkBatch(
                **{
                    field.name: getattr(one_row.work, field.name)[:0]
                    for field in dataclasses.fields(WorkBatch)
                }
            ),
            counts=one_row.counts[:0],
            group_id=one_row.group_id[:0],
            name_id=one_row.name_id[:0],
            groups=(),
            names=(),
        )
        plans = [one_row, empty, interleaved]
        measured = device.run_batch(
            WorkBatch.concat([plan.work for plan in plans]), memoize=False
        )
        # Every plan's first row reads -0.0 everywhere.
        first_rows = [0, len(one_row)]
        time_s = measured.time_s.copy()
        time_s[first_rows] = -0.0
        columns = {}
        for field in dataclasses.fields(CounterColumns):
            column = getattr(measured.counters, field.name).copy()
            column[first_rows] = -0.0
            columns[field.name] = column
        measurement = dataclasses.replace(
            measured, time_s=time_s, counters=CounterColumns(**columns)
        )
        folded = executor._reduce(plans, measurement)
        expected = reduce_plans(plans, measurement, executor.host_overhead_s)
        assert [_result_bits(r) for r in folded] == [
            _result_bits(r) for r in expected
        ]
        assert np.signbit(folded[0].counters.valu_insts)
        assert not np.signbit(folded[1].counters.valu_insts)


# ---- the oracle's CounterColumns helpers -----------------------------


def _counter(seed: int) -> CounterSet:
    """Counters whose values are exact in float64 (powers of two)."""
    base = float(1 << (seed % 20))
    return CounterSet(
        valu_insts=base,
        dram_read_bytes=base * 2.0,
        dram_write_bytes=base * 0.5,
        l2_read_bytes=base * 4.0,
        write_stall_cycles=base * 0.25,
        busy_cycles=base * 8.0,
    )


def _columns(counters: list[CounterSet]) -> CounterColumns:
    return CounterColumns(
        **{
            name: np.array([getattr(c, name) for c in counters])
            for name in CounterSet().as_dict()
        }
    )


class TestCounterColumnsReference:
    def test_scaled_matches_rowwise_scaling(self):
        counters = [_counter(i) for i in range(4)]
        factors = np.array([1.0, 2.0, 0.5, 4.0])
        result = scaled(_columns(counters), factors)
        for i, reference in enumerate(counters):
            assert result.row(i) == reference.scaled(float(factors[i]))

    def test_rows_is_the_half_open_range(self):
        counters = [_counter(i) for i in range(6)]
        window = rows(_columns(counters), 2, 5)
        assert len(window) == 3
        for i in range(3):
            assert window.row(i) == counters[2 + i]

    def test_sum_sequential_matches_reference_fold(self):
        """The exact loop the scalar executor performs: a left fold
        from ``CounterSet.zero()`` — including awkward magnitudes where
        pairwise summation would round differently."""
        rng = np.random.default_rng(42)
        counters = [
            CounterSet(
                **{
                    name: float(value)
                    for name, value in zip(
                        CounterSet().as_dict(), rng.uniform(0, 1e12, 6)
                    )
                }
            )
            for _ in range(257)
        ]
        folded = CounterSet.zero()
        for item in counters:
            folded = folded + item
        assert sum_sequential(_columns(counters)) == folded

    def test_sum_sequential_of_empty_is_zero(self):
        assert sum_sequential(_columns([])) == CounterSet.zero()
