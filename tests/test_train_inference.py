"""Unit tests for the inference simulator (paper §VII-E)."""

import pytest

from repro.core.seqpoint import SeqPointSelector
from repro.data.batching import PooledBucketing, ShuffledBatching
from repro.data.iwslt import build_iwslt
from repro.errors import ConfigurationError
from repro.models.gnmt import build_gnmt
from repro.train.inference import InferenceRunSimulator


@pytest.fixture(scope="module")
def gnmt_serving(devices):
    corpus = build_iwslt(sentences=800)
    return InferenceRunSimulator(
        build_gnmt(), corpus, PooledBucketing(8), devices[1]
    )


class TestInferenceRunSimulator:
    def test_full_batches_preferred(self, gnmt_serving):
        trace = gnmt_serving.run_pass()
        assert len(trace) == 800 // 8

    def test_trace_marked_as_inference(self, gnmt_serving):
        assert gnmt_serving.run_pass().model_name == "gnmt-inference"

    def test_forward_only_cheaper_than_training(self, devices):
        from repro.train.runner import TrainingRunSimulator

        corpus = build_iwslt(sentences=512)
        train_trace = TrainingRunSimulator(
            build_gnmt(), corpus, ShuffledBatching(8), devices[1]
        ).run_epoch_frame(include_eval=False)
        infer_trace = InferenceRunSimulator(
            build_gnmt(), corpus, ShuffledBatching(8), devices[1]
        ).run_pass()
        assert infer_trace.total_time_s < train_trace.total_time_s / 2

    def test_seqpoint_pipeline_applies(self, gnmt_serving):
        trace = gnmt_serving.run_pass()
        result = SeqPointSelector().select(trace)
        assert len(result.selection) <= len(trace.unique_seq_lens())
        assert result.selection.total_weight == len(trace)

    def test_ragged_fallback_for_tiny_request_sets(self, devices):
        corpus = build_iwslt(sentences=260)
        sim = InferenceRunSimulator(
            build_gnmt(), corpus, PooledBucketing(512), devices[1]
        )
        trace = sim.run_pass()
        assert len(trace) == 1  # one ragged batch kept

    def test_measure_seq_len_forward_latency(self, gnmt_serving):
        assert gnmt_serving.measure_seq_len(30, 33) > 0

    def test_negative_noise_rejected(self, devices):
        corpus = build_iwslt(sentences=256)
        with pytest.raises(ConfigurationError):
            InferenceRunSimulator(
                build_gnmt(), corpus, PooledBucketing(8), devices[1],
                noise_sigma=-0.5,
            )
