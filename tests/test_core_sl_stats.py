"""Unit tests for repro.core.sl_stats."""

import pytest

from repro.core.sl_stats import SlStatistics
from repro.errors import TraceError
from tests.conftest import make_trace


class TestSlStatistics:
    def test_groups_by_seq_len(self):
        trace = make_trace([(10, 1.0), (10, 2.0), (20, 5.0)])
        stats = SlStatistics.from_trace(trace)
        assert len(stats) == 2
        ten = stats.for_seq_len(10)
        assert ten.iterations == 2
        assert ten.mean_time_s == pytest.approx(1.5)
        assert ten.total_time_s == pytest.approx(3.0)

    def test_sorted_by_seq_len(self):
        trace = make_trace([(30, 1.0), (10, 1.0), (20, 1.0)])
        stats = SlStatistics.from_trace(trace)
        assert [s.seq_len for s in stats] == [10, 20, 30]
        assert stats.min_seq_len == 10
        assert stats.max_seq_len == 30

    def test_representative_closest_to_mean(self):
        trace = make_trace([(10, 1.0), (10, 2.0), (10, 1.4)])
        stats = SlStatistics.from_trace(trace)
        # Mean 1.4667: the 1.4 record is closest.
        assert stats.for_seq_len(10).representative.time_s == pytest.approx(1.4)

    def test_totals(self):
        trace = make_trace([(10, 1.0), (20, 2.0), (30, 3.0)])
        stats = SlStatistics.from_trace(trace)
        assert stats.total_time_s == pytest.approx(6.0)
        assert stats.total_iterations == 3

    def test_unknown_seq_len_raises(self):
        stats = SlStatistics.from_trace(make_trace([(10, 1.0)]))
        with pytest.raises(TraceError):
            stats.for_seq_len(99)

    def test_empty_trace_raises(self):
        trace = make_trace([])
        with pytest.raises(TraceError):
            SlStatistics.from_trace(trace)
