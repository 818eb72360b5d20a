"""Unit tests for repro.train.iteration."""

import pytest

from repro.models.ds2 import build_ds2
from repro.models.gnmt import build_gnmt
from repro.models.spec import IterationInputs
from repro.train.iteration import IterationExecutor


class TestIterationExecutor:
    def test_result_fields_consistent(self, device1):
        executor = IterationExecutor(build_ds2(), device1)
        result = executor.run(IterationInputs(64, 200))
        assert result.time_s > 0
        assert result.launches > 100
        assert sum(result.group_times.values()) <= result.time_s
        assert result.kernel_names

    def test_host_overhead_included(self, device1):
        cheap = IterationExecutor(build_ds2(), device1, host_overhead_s=0.0)
        costly = IterationExecutor(build_ds2(), device1, host_overhead_s=0.5)
        inputs = IterationInputs(64, 100)
        assert costly.run(inputs).time_s == pytest.approx(
            cheap.run(inputs).time_s + 0.5
        )

    def test_memoised_per_inputs(self, device1):
        executor = IterationExecutor(build_ds2(), device1)
        first = executor.run(IterationInputs(64, 100))
        second = executor.run(IterationInputs(64, 100))
        assert first is second

    def test_distinct_inputs_distinct_results(self, device1):
        executor = IterationExecutor(build_ds2(), device1)
        assert (
            executor.run(IterationInputs(64, 100)).time_s
            != executor.run(IterationInputs(64, 400)).time_s
        )

    def test_forward_cheaper_than_training(self, device1):
        executor = IterationExecutor(build_gnmt(), device1)
        inputs = IterationInputs(64, 50, 55)
        assert (
            executor.run_forward(inputs).time_s
            < executor.run(inputs).time_s / 2
        )

    def test_gemm_shapes_collected(self, device1):
        executor = IterationExecutor(build_ds2(), device1)
        result = executor.run(IterationInputs(64, 804))
        assert (29, 25728, 1600) in result.gemm_shapes

    def test_negative_overhead_rejected(self, device1):
        with pytest.raises(ValueError):
            IterationExecutor(build_ds2(), device1, host_overhead_s=-1.0)

    def test_profile_is_a_fresh_copy(self, device1):
        result = IterationExecutor(build_ds2(), device1).run(IterationInputs(64, 100))
        profile = result.profile()
        assert profile.launches == result.launches
        assert profile.counters == result.counters
        assert profile.kernel_names == result.kernel_names
        assert profile.group_times == result.group_times
        assert profile.group_times is not result.group_times
        assert result.profile() is not profile
