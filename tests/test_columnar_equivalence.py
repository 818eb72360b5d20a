"""The columnar path's bit-identity guarantee.

The shape-memoized epoch (``run_epoch_frame``) must produce traces
bit-identical to the per-iteration reference loop
(:func:`oracles.run_epoch_reference`) across models, datasets,
configurations, noise settings, and epochs — runtimes, counters, kernel
statistics, autotune accounting, and the evaluation phase all included.
The same guarantee covers the vectorized batching plan and the
inference pass (:func:`oracles.run_pass_reference`).
"""

import numpy as np
import pytest

from repro.api.registry import DATASETS, MODELS, build_batching
from repro.data.batching import (
    PooledBucketing,
    ShuffledBatching,
    SortaGradBatching,
    SortedBatching,
)
from repro.data.iwslt import build_iwslt
from repro.data.librispeech import build_librispeech
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.models.gnmt import build_gnmt
from repro.train.inference import InferenceRunSimulator
from repro.train.runner import TrainingRunSimulator

from oracles import run_epoch_reference, run_pass_reference

SCALE = 0.03


def build_simulator(network: str, config: int, sigma: float):
    """A fresh simulator (own executor + autotuner) for one scenario."""
    dataset_name = {"gnmt": "iwslt", "ds2": "librispeech"}[network]
    batching_name = {"gnmt": "pooled", "ds2": "sortagrad"}[network]
    corpus = DATASETS.create(dataset_name, scale=SCALE)
    train, evaluation = corpus.split(0.05, seed=7)
    return TrainingRunSimulator(
        model=MODELS.create(network),
        dataset=train,
        batching=build_batching(batching_name, 64, dataset=dataset_name),
        device=GpuDevice(paper_config(config)),
        eval_dataset=evaluation,
        noise_sigma=sigma,
        seed=3,
        noise_seed=config,
    )


def assert_traces_bit_identical(left, right):
    assert np.array_equal(left.index, right.index)
    assert np.array_equal(left.epoch, right.epoch)
    assert np.array_equal(left.seq_len, right.seq_len)
    assert np.array_equal(left.tgt_len, right.tgt_len)
    # Exact equality, not approx: the memoized path must reproduce the
    # reference floats bit for bit.
    assert left.time_s.tolist() == right.time_s.tolist()
    assert left.autotune_s == right.autotune_s
    assert left.eval_s == right.eval_s
    assert np.array_equal(left.launches, right.launches)
    for name in left.counter_names:
        assert left.counter_column(name).tolist() == (
            right.counter_column(name).tolist()
        ), name
    assert left.groups == right.groups
    for group in left.groups:
        assert left.group_time_column(group).tolist() == (
            right.group_time_column(group).tolist()
        ), group
    assert left.build_records() == right.build_records()


@pytest.mark.parametrize("sigma", [0.0, 0.02])
@pytest.mark.parametrize(
    "network,config", [("gnmt", 1), ("gnmt", 4), ("ds2", 1)]
)
class TestEpochBitIdentity:
    def test_memoized_epochs_match_reference(self, network, config, sigma):
        columnar_sim = build_simulator(network, config, sigma)
        reference_sim = build_simulator(network, config, sigma)
        for epoch in (0, 1):
            columnar = columnar_sim.run_epoch_frame(epoch=epoch, include_eval=True)
            reference = run_epoch_reference(
                reference_sim, epoch=epoch, include_eval=True
            )
            assert_traces_bit_identical(columnar, reference)


class TestPlanColumns:
    @pytest.mark.parametrize("pad_multiple", [1, 4])
    @pytest.mark.parametrize(
        "policy_cls",
        [ShuffledBatching, SortedBatching, SortaGradBatching],
    )
    def test_columns_match_plan(self, policy_cls, pad_multiple):
        corpus = build_librispeech(utterances=500)
        policy = policy_cls(64, pad_multiple=pad_multiple)
        for epoch in (0, 1):
            plan = policy.plan_epoch(corpus, epoch=epoch, seed=5)
            seq_len, tgt_len = policy.plan_epoch_columns(
                corpus, epoch=epoch, seed=5
            )
            assert seq_len.tolist() == [inputs.seq_len for inputs in plan]
            assert tgt_len.tolist() == [-1] * len(plan)

    def test_columns_match_plan_with_targets(self):
        corpus = build_iwslt(sentences=500)
        policy = PooledBucketing(64, pool_factor=3)
        for epoch in (0, 1):
            plan = policy.plan_epoch(corpus, epoch=epoch, seed=5)
            seq_len, tgt_len = policy.plan_epoch_columns(
                corpus, epoch=epoch, seed=5
            )
            assert seq_len.tolist() == [inputs.seq_len for inputs in plan]
            assert tgt_len.tolist() == [inputs.tgt_len for inputs in plan]

    def test_columns_empty_when_no_full_batch(self):
        corpus = build_librispeech(utterances=300)
        policy = SortedBatching(512)
        seq_len, tgt_len = policy.plan_epoch_columns(corpus, epoch=0, seed=0)
        assert seq_len.size == 0 and tgt_len.size == 0


class TestInferenceBitIdentity:
    @pytest.mark.parametrize("sigma", [0.0, 0.03])
    def test_memoized_pass_matches_reference(self, devices, sigma):
        corpus = build_iwslt(sentences=400)
        columnar_sim = InferenceRunSimulator(
            build_gnmt(), corpus, ShuffledBatching(16), devices[1],
            noise_sigma=sigma,
        )
        reference_sim = InferenceRunSimulator(
            build_gnmt(), corpus, ShuffledBatching(16), devices[1],
            noise_sigma=sigma,
        )
        columnar = columnar_sim.run_pass()
        reference = run_pass_reference(reference_sim)
        assert_traces_bit_identical(columnar, reference)

    def test_tiny_request_set_falls_back_to_ragged_batch(self, devices):
        corpus = build_iwslt(sentences=24)
        for sigma in (0.0, 0.03):

            def simulator():
                return InferenceRunSimulator(
                    build_gnmt(), corpus, ShuffledBatching(64), devices[1],
                    noise_sigma=sigma,
                )

            trace = simulator().run_pass()
            assert len(trace) == 1
            assert trace.batch_size == 64
            assert_traces_bit_identical(trace, run_pass_reference(simulator()))


class TestSelectionUnaffected:
    def test_selector_sweep_identical_on_both_paths(self):
        from repro.core.baselines import FrequentSelector, MedianSelector
        from repro.core.seqpoint import SeqPointSelector

        columnar = build_simulator("gnmt", 1, 0.02).run_epoch_frame()
        reference = run_epoch_reference(build_simulator("gnmt", 1, 0.02))
        for selector in (SeqPointSelector(), FrequentSelector(), MedianSelector()):
            left = selector.select(columnar)
            right = selector.select(reference)
            if hasattr(left, "selection"):
                left, right = left.selection, right.selection
            assert left.seq_lens == right.seq_lens
            assert left.weights_column.tolist() == right.weights_column.tolist()
            assert left.times_column.tolist() == right.times_column.tolist()
