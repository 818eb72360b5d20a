"""Unit tests for repro.util.stats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.train.frame import NO_TGT, dedupe_shapes
from repro.util.stats import (
    geomean,
    mean,
    median,
    percent_error,
    unique_by_first_appearance,
    weighted_average,
    weighted_sum,
)


def _first_appearance_loop(keys):
    """The dict loop the helper vectorizes."""
    ids: dict = {}
    first, inverse = [], []
    for row, key in enumerate(keys):
        if key not in ids:
            ids[key] = len(ids)
            first.append(row)
        inverse.append(ids[key])
    return list(ids), first, inverse


class TestUniqueByFirstAppearance:
    @given(st.lists(st.integers(-50, 50), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_matches_dict_loop(self, keys):
        unique, first, inverse = unique_by_first_appearance(
            np.array(keys, dtype=np.int64)
        )
        assert (unique.tolist(), first.tolist(), inverse.tolist()) == (
            _first_appearance_loop(keys)
        )

    @given(
        st.lists(
            st.tuples(st.integers(1, 900), st.sampled_from([NO_TGT, 1, 2, 7, 899])),
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_dedupe_shapes_matches_dict_loop(self, shapes):
        seq_len = np.array([s for s, _ in shapes], dtype=np.int64)
        tgt_len = np.array([t for _, t in shapes], dtype=np.int64)
        first, profile_id = dedupe_shapes(seq_len, tgt_len)
        _, expected_first, expected_ids = _first_appearance_loop(shapes)
        assert (first.tolist(), profile_id.tolist()) == (expected_first, expected_ids)


class TestWeightedSum:
    def test_equation_one(self):
        # Paper Equation 1: sum of weight * statistic.
        assert weighted_sum([1.0, 2.0, 3.0], [10, 20, 30]) == 10 + 40 + 90

    def test_empty_is_zero(self):
        assert weighted_sum([], []) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            weighted_sum([1.0], [1.0, 2.0])


class TestWeightedAverage:
    def test_normalises_by_total_weight(self):
        assert weighted_average([2.0, 4.0], [1.0, 3.0]) == pytest.approx(3.5)

    def test_uniform_weights_match_mean(self):
        values = [1.0, 5.0, 9.0]
        assert weighted_average(values, [2, 2, 2]) == pytest.approx(mean(values))

    def test_zero_weights_raise(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_average([1.0], [0.0])


class TestMeanMedian:
    def test_mean(self):
        assert mean([1, 2, 3, 4]) == 2.5

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_median_odd(self):
        assert median([5, 1, 3]) == 3

    def test_median_even_midpoint(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])


class TestGeomean:
    def test_matches_closed_form(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_zero_clamped_not_collapsing(self):
        # One perfect projection must not zero the summary.
        assert geomean([0.0, 1.0]) > 0.0

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            geomean([-1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_log_average_identity(self):
        values = [0.5, 2.0, 8.0]
        expected = math.exp(sum(math.log(v) for v in values) / 3)
        assert geomean(values) == pytest.approx(expected)


class TestPercentError:
    def test_overestimate(self):
        assert percent_error(110.0, 100.0) == pytest.approx(10.0)

    def test_underestimate_is_positive(self):
        assert percent_error(90.0, 100.0) == pytest.approx(10.0)

    def test_exact_is_zero(self):
        assert percent_error(42.0, 42.0) == 0.0

    def test_zero_actual_raises(self):
        with pytest.raises(ValueError, match="zero"):
            percent_error(1.0, 0.0)
