"""End-to-end integration tests: the full SeqPoint workflow.

Simulate an identification epoch on config #1, identify SeqPoints,
project training time and speedups on the other Table II configs, and
verify the headline properties of the paper hold on a small corpus.
"""

import pytest

from repro.core.baselines import FrequentSelector, WorstSelector
from repro.core.projection import (
    project_epoch_time,
    project_throughput,
    project_uplift_pct,
    uplift_pct,
)
from repro.core.seqpoint import SeqPointSelector
from repro.data.batching import PooledBucketing, SortedBatching
from repro.data.iwslt import build_iwslt
from repro.data.librispeech import build_librispeech
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.models.ds2 import build_ds2
from repro.models.gnmt import build_gnmt
from repro.train.runner import TrainingRunSimulator
from repro.util.stats import percent_error


@pytest.fixture(scope="module")
def gnmt_setup():
    corpus = build_iwslt(sentences=3200)
    model = build_gnmt()
    runners = {
        index: TrainingRunSimulator(
            model, corpus, PooledBucketing(64), GpuDevice(paper_config(index))
        )
        for index in (1, 2, 3)
    }
    traces = {
        index: sim.run_epoch_frame(include_eval=False) for index, sim in runners.items()
    }
    return runners, traces


class TestEndToEndGnmt:
    def test_identification_meets_threshold(self, gnmt_setup):
        _, traces = gnmt_setup
        result = SeqPointSelector().select(traces[1])
        assert result.identification_error_pct < 1.0

    def test_cross_config_time_projection(self, gnmt_setup):
        runners, traces = gnmt_setup
        selection = SeqPointSelector().select(traces[1]).selection
        for index in (2, 3):
            projected = project_epoch_time(selection, runners[index])
            error = percent_error(projected, traces[index].total_time_s)
            assert error < 2.0, f"config {index}: {error}%"

    def test_speedup_projection(self, gnmt_setup):
        runners, traces = gnmt_setup
        selection = SeqPointSelector().select(traces[1]).selection
        for index in (2, 3):
            actual = uplift_pct(traces[index].throughput, traces[1].throughput)
            projected = project_uplift_pct(selection, runners[index], runners[1])
            assert abs(projected - actual) < 2.0

    def test_seqpoint_beats_single_iteration_baselines(self, gnmt_setup):
        runners, traces = gnmt_setup
        seqpoint = SeqPointSelector().select(traces[1]).selection
        actual = traces[1].total_time_s

        def error_of(selection):
            return percent_error(project_epoch_time(selection, runners[1]), actual)

        assert error_of(seqpoint) < error_of(FrequentSelector().select(traces[1]))
        assert error_of(seqpoint) < error_of(WorstSelector().select(traces[1]))

    def test_throughput_projection_consistent(self, gnmt_setup):
        runners, traces = gnmt_setup
        selection = SeqPointSelector().select(traces[1]).selection
        projected = project_throughput(selection, runners[1])
        assert projected == pytest.approx(traces[1].throughput, rel=0.02)


class TestEndToEndDs2:
    def test_sorted_epoch_identification_and_projection(self):
        corpus = build_librispeech(utterances=3200)
        model = build_ds2()
        base = TrainingRunSimulator(
            model, corpus, SortedBatching(64, pad_multiple=4),
            GpuDevice(paper_config(1)),
        )
        other = TrainingRunSimulator(
            model, corpus, SortedBatching(64, pad_multiple=4),
            GpuDevice(paper_config(5)),
        )
        trace1 = base.run_epoch_frame(include_eval=False)
        trace5 = other.run_epoch_frame(include_eval=False)

        result = SeqPointSelector().select(trace1)
        assert len(result.selection) < len(trace1.unique_seq_lens())

        projected = project_epoch_time(result.selection, other)
        assert percent_error(projected, trace5.total_time_s) < 2.0

    def test_trace_round_trip_preserves_selection(self, tmp_path):
        corpus = build_librispeech(utterances=1600)
        sim = TrainingRunSimulator(
            build_ds2(), corpus, SortedBatching(64, pad_multiple=4),
            GpuDevice(paper_config(1)),
        )
        trace = sim.run_epoch_frame(include_eval=False)
        path = tmp_path / "trace.json"
        trace.save(path)

        from repro.train.frame import TraceFrame

        reloaded = TraceFrame.load(path)
        original = SeqPointSelector().select(trace)
        restored = SeqPointSelector().select(reloaded)
        assert original.selection.seq_lens == restored.selection.seq_lens
        assert original.k == restored.k
