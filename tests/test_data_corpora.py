"""Unit tests for the synthetic IWSLT and LibriSpeech corpora."""

import hashlib

import numpy as np

from repro.data.iwslt import IWSLT_MAX_LEN, build_iwslt
from repro.data.librispeech import FRAMES_PER_SECOND, build_librispeech


def column_digest(column: np.ndarray) -> str:
    assert column.dtype == np.int64
    return hashlib.sha256(column.tobytes()).hexdigest()


class TestPaperScaleDigests:
    """Pinned paper-scale columns: a builder change cannot shift them
    silently (every downstream trace and projection depends on them)."""

    def test_iwslt_columns(self):
        corpus = build_iwslt()
        assert column_digest(corpus.lengths) == (
            "fc8721b251b4b78ead0233564126cba7122ee5079922a44a5faa5e09958a871d"
        )
        assert column_digest(corpus.tgt_lengths) == (
            "8255570d06db4458670a784dcd66b3ba8a532472e339db67f3c2f8580d9c8b4b"
        )

    def test_librispeech_column(self):
        assert column_digest(build_librispeech().lengths) == (
            "2aced913d349263fe6913a3674b7648a74fdcead23172ff15985e89e4a5c6e32"
        )


class TestIwslt:
    def test_population_size(self):
        assert len(build_iwslt(sentences=5000)) == 5000

    def test_vocab_is_papers(self):
        assert build_iwslt(sentences=100).vocab == 36549

    def test_lengths_bounded(self):
        corpus = build_iwslt(sentences=20_000)
        assert corpus.lengths.min() >= 1
        assert corpus.lengths.max() <= IWSLT_MAX_LEN

    def test_sentence_length_statistics(self):
        corpus = build_iwslt(sentences=50_000)
        median = float(np.median(corpus.lengths))
        assert 13 <= median <= 19  # IWSLT-like

    def test_targets_track_sources(self):
        corpus = build_iwslt(sentences=20_000)
        long_enough = corpus.lengths >= 5
        ratios = corpus.tgt_lengths[long_enough] / corpus.lengths[long_enough]
        assert 1.0 <= float(np.mean(ratios)) <= 1.2

    def test_deterministic(self):
        a = build_iwslt(sentences=500, seed=1)
        b = build_iwslt(sentences=500, seed=1)
        assert a.lengths.tolist() == b.lengths.tolist()

    def test_seed_matters(self):
        a = build_iwslt(sentences=500, seed=1)
        b = build_iwslt(sentences=500, seed=2)
        assert a.lengths.tolist() != b.lengths.tolist()


class TestLibrispeech:
    def test_population_size(self):
        assert len(build_librispeech(utterances=5000)) == 5000

    def test_vocab_is_alphabet(self):
        assert build_librispeech(utterances=100).vocab == 29

    def test_frames_bounded(self):
        corpus = build_librispeech(utterances=20_000)
        assert corpus.lengths.min() >= FRAMES_PER_SECOND  # >= 1 second
        assert corpus.lengths.max() <= 835

    def test_total_duration_near_100_hours(self):
        corpus = build_librispeech()
        hours = corpus.lengths.sum() / FRAMES_PER_SECOND / 3600
        assert 60 <= hours <= 110

    def test_no_targets(self):
        assert not build_librispeech(utterances=100).has_targets

    def test_bimodal_durations(self):
        corpus = build_librispeech(utterances=30_000)
        short = (corpus.lengths < 350).mean()
        assert 0.2 <= short <= 0.5
