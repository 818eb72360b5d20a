"""Unit tests for repro.data.batching."""

import numpy as np
import pytest

from repro.data.batching import PooledBucketing, ShuffledBatching, SortedBatching
from repro.data.dataset import SequenceDataset
from repro.errors import ConfigurationError


def corpus(n: int = 1000, with_targets: bool = False) -> SequenceDataset:
    lengths = np.arange(n) % 97 + 1
    targets = lengths + 1 if with_targets else None
    return SequenceDataset("toy", lengths, vocab=50, tgt_lengths=targets)


class TestCommonBehaviour:
    def test_batch_count_drops_ragged_tail(self):
        plan = ShuffledBatching(64).plan_epoch(corpus(1000))
        assert len(plan) == 1000 // 64

    def test_seq_len_is_batch_max(self):
        data = corpus(128)
        plan = SortedBatching(64).plan_epoch(data)
        sorted_lengths = sorted(data.lengths)
        assert plan[0].seq_len == max(sorted_lengths[:64])
        assert plan[1].seq_len == max(sorted_lengths[64:128])

    def test_targets_padded_to_batch_max(self):
        plan = SortedBatching(64).plan_epoch(corpus(256, with_targets=True))
        for inputs in plan:
            assert inputs.tgt_len is not None
            assert inputs.tgt_len >= 2

    def test_pad_multiple_rounds_up(self):
        plan = SortedBatching(64, pad_multiple=8).plan_epoch(corpus(512))
        assert all(inputs.seq_len % 8 == 0 for inputs in plan)

    def test_pad_multiple_reduces_unique_sls(self):
        data = corpus(2000)
        raw = {i.seq_len for i in SortedBatching(16).plan_epoch(data)}
        padded = {
            i.seq_len for i in SortedBatching(16, pad_multiple=8).plan_epoch(data)
        }
        assert len(padded) <= len(raw)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ShuffledBatching(0)

    def test_invalid_pad_multiple_rejected(self):
        with pytest.raises(ConfigurationError):
            ShuffledBatching(8, pad_multiple=0)


class TestSortedBatching:
    def test_monotonic_seq_lens(self):
        plan = SortedBatching(32).plan_epoch(corpus(640))
        lengths = [inputs.seq_len for inputs in plan]
        assert lengths == sorted(lengths)

    def test_epoch_invariant(self):
        # SortaGrad sorting ignores the epoch/seed.
        policy = SortedBatching(32)
        assert (
            [i.seq_len for i in policy.plan_epoch(corpus(640), epoch=0)]
            == [i.seq_len for i in policy.plan_epoch(corpus(640), epoch=3)]
        )


class TestShuffledBatching:
    def test_reshuffles_per_epoch(self):
        policy = ShuffledBatching(32)
        first = [i.seq_len for i in policy.plan_epoch(corpus(640), epoch=0)]
        second = [i.seq_len for i in policy.plan_epoch(corpus(640), epoch=1)]
        assert first != second

    def test_deterministic_per_seed(self):
        policy = ShuffledBatching(32)
        a = [i.seq_len for i in policy.plan_epoch(corpus(640), seed=4)]
        b = [i.seq_len for i in policy.plan_epoch(corpus(640), seed=4)]
        assert a == b


class TestPooledBucketing:
    def test_reduces_padding_waste(self):
        data = corpus(4096)
        pooled = PooledBucketing(32, pool_factor=16).plan_epoch(data)
        shuffled = ShuffledBatching(32).plan_epoch(data)
        pooled_padding = sum(i.seq_len for i in pooled)
        shuffled_padding = sum(i.seq_len for i in shuffled)
        assert pooled_padding < shuffled_padding

    def test_contiguous_windows_not_diverse(self):
        # The §VI-E property: a contiguous window of iterations covers a
        # narrow slice of the SL range.
        data = corpus(4096)
        plan = PooledBucketing(32, pool_factor=16).plan_epoch(data)
        window = [i.seq_len for i in plan[4:10]]
        full = [i.seq_len for i in plan]
        window_span = max(window) - min(window)
        full_span = max(full) - min(full)
        assert window_span < full_span / 2

    def test_invalid_pool_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            PooledBucketing(8, pool_factor=0)

    def test_consumes_every_sample_once(self):
        data = corpus(512)
        policy = PooledBucketing(8, pool_factor=4)
        order = policy._sample_order(data, epoch=0, seed=0)
        assert sorted(order.tolist()) == list(range(512))
