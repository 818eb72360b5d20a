"""Unit tests for repro.data.dataset."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import Sample, split_samples
from repro.data.dataset import SequenceDataset
from repro.errors import ConfigurationError


def dataset(lengths=(5, 5, 10, 20), vocab=100) -> SequenceDataset:
    return SequenceDataset(name="toy", lengths=np.array(lengths), vocab=vocab)


class TestSequenceDataset:
    def test_lengths_array(self):
        assert list(dataset().lengths) == [5, 5, 10, 20]

    def test_columns_are_owned_read_only_int64(self):
        source = np.array([3, 4, 5], dtype=np.int32)
        targets = np.array([4, 5, 6])
        paired = SequenceDataset("mt", source, vocab=10, tgt_lengths=targets)
        for column in (paired.lengths, paired.tgt_lengths):
            assert column.dtype == np.int64
            assert not column.flags.writeable
        # The caller's arrays are copied, not frozen in place.
        assert targets.flags.writeable
        targets[0] = 99
        assert paired.tgt_lengths.tolist() == [4, 5, 6]

    def test_histogram(self):
        assert dataset().length_histogram() == {5: 2, 10: 1, 20: 1}

    def test_has_targets(self):
        paired = SequenceDataset("mt", [3, 5], vocab=10, tgt_lengths=[4, 6])
        assert paired.has_targets
        assert not dataset().has_targets
        assert dataset().tgt_lengths is None

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="no samples"):
            SequenceDataset("empty", [], vocab=10)

    def test_invalid_vocab_rejected(self):
        with pytest.raises(ConfigurationError, match="vocab"):
            dataset(vocab=0)

    def test_positive_length_required(self):
        for bad in (0, -3):
            with pytest.raises(ConfigurationError, match="sample lengths must be positive"):
                dataset(lengths=(5, bad, 7))

    def test_positive_target_required(self):
        for bad in (0, -1):
            with pytest.raises(ConfigurationError, match="target lengths must be positive"):
                SequenceDataset("mt", [5, 6], vocab=10, tgt_lengths=[3, bad])

    def test_target_count_must_match(self):
        with pytest.raises(ConfigurationError, match="2 target lengths for 3"):
            SequenceDataset("mt", [5, 6, 7], vocab=10, tgt_lengths=[3, 4])

    @pytest.mark.parametrize(
        "lengths, tgt_lengths",
        [(np.ones((2, 2), dtype=np.int64), None), (7, None), ([5, 6], [[3, 4]])],
    )
    def test_non_1d_column_rejected(self, lengths, tgt_lengths):
        with pytest.raises(ConfigurationError, match="1-D column"):
            SequenceDataset("bad", lengths, vocab=10, tgt_lengths=tgt_lengths)

    def test_non_integer_column_rejected(self):
        with pytest.raises(ConfigurationError, match="integers"):
            SequenceDataset("bad", [1.5, 2.0], vocab=10)

    def test_rejections_are_one_line(self):
        with pytest.raises(ConfigurationError) as caught:
            SequenceDataset("mt", [5, 6], vocab=10, tgt_lengths=[3, 0])
        assert "\n" not in str(caught.value)


class TestSplit:
    def test_partition(self):
        big = dataset(lengths=tuple(range(1, 101)))
        train, evaluation = big.split(0.1, seed=3)
        assert len(train) + len(evaluation) == 100
        assert len(evaluation) == 10

    def test_deterministic(self):
        big = dataset(lengths=tuple(range(1, 51)))
        first = big.split(0.2, seed=9)
        second = big.split(0.2, seed=9)
        assert first[1].lengths.tolist() == second[1].lengths.tolist()

    def test_vocab_preserved(self):
        # Key Observation 6: sampling must keep the full vocabulary.
        train, evaluation = dataset().split(0.25, seed=0)
        assert train.vocab == evaluation.vocab == 100

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            dataset().split(0.0, seed=0)
        with pytest.raises(ConfigurationError):
            dataset().split(1.0, seed=0)

    def test_names_and_unit_carried(self):
        train, evaluation = SequenceDataset(
            "speech", list(range(1, 41)), vocab=29, unit="frames"
        ).split(0.25, seed=1)
        assert (train.name, evaluation.name) == ("speech-train", "speech-eval")
        assert train.unit == evaluation.unit == "frames"


@settings(max_examples=80, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(1, 500), st.integers(1, 500)), min_size=1, max_size=300
    ),
    with_targets=st.booleans(),
    eval_fraction=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_matches_per_sample_oracle(pairs, with_targets, eval_fraction, seed):
    """Column-for-column identical to the tuple-of-``Sample`` split."""
    lengths = [length for length, _ in pairs]
    targets = [target for _, target in pairs] if with_targets else None
    samples = tuple(
        Sample(length, target if with_targets else None) for length, target in pairs
    )
    corpus = SequenceDataset("c", lengths, vocab=50, tgt_lengths=targets)
    expected = split_samples(samples, eval_fraction, seed)
    if not expected[0]:
        # The oracle's train side is empty; the columnar split rejects
        # it exactly where the old constructor rejected an empty tuple.
        with pytest.raises(ConfigurationError, match="no samples"):
            corpus.split(eval_fraction, seed)
        return
    for part, reference in zip(corpus.split(eval_fraction, seed), expected):
        assert part.lengths.tolist() == [sample.length for sample in reference]
        if with_targets:
            assert part.tgt_lengths.tolist() == [sample.tgt_length for sample in reference]
        else:
            assert part.tgt_lengths is None
