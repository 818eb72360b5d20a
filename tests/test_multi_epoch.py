"""Multi-epoch training-run tests (paper Fig 2 / Key Observation 4).

Epochs are "largely homogeneous": the dataset is constant, so while
iteration *order* varies per epoch, the totals and the identified
SeqPoints barely do — the structural reason one epoch suffices for
identification.
"""

import pytest

from repro.core.seqpoint import SeqPointSelector
from repro.data.batching import ShuffledBatching, SortaGradBatching
from repro.data.librispeech import build_librispeech
from repro.errors import ConfigurationError
from repro.models.ds2 import build_ds2
from repro.train.runner import TrainingRunSimulator


@pytest.fixture(scope="module")
def ds2_run(devices):
    corpus = build_librispeech(utterances=1920)
    sim = TrainingRunSimulator(
        build_ds2(), corpus, SortaGradBatching(64, pad_multiple=4), devices[1]
    )
    return sim, sim.run_training(epochs=3, include_eval=False)


class TestSortaGrad:
    def test_first_epoch_sorted(self, ds2_run):
        _, traces = ds2_run
        lengths = [r.seq_len for r in traces[0].build_records()]
        assert lengths == sorted(lengths)

    def test_later_epochs_lose_short_iterations(self, ds2_run):
        # Shuffled batches pad to the batch maximum, so almost every
        # iteration runs near the corpus maximum — short iterations
        # exist only in the sorted epoch.  (This padding waste is the
        # reason SortaGrad/bucketing pipelines exist.)
        _, traces = ds2_run
        sorted_min = min(r.seq_len for r in traces[0].build_records())
        shuffled_min = min(r.seq_len for r in traces[1].build_records())
        assert shuffled_min > 2 * sorted_min


class TestEpochHomogeneity:
    def test_shuffled_epochs_mutually_homogeneous(self, ds2_run):
        # Epochs under the *same* policy are homogeneous (Key obs. 4).
        _, traces = ds2_run
        assert traces[1].total_time_s == pytest.approx(
            traces[2].total_time_s, rel=0.05
        )

    def test_sorted_epoch_cheaper_than_shuffled(self, ds2_run):
        # The sorted epoch pads far less, so it runs faster — epoch
        # composition is policy-dependent even though the dataset is
        # constant.
        _, traces = ds2_run
        assert traces[0].total_time_s < traces[1].total_time_s

    def test_autotune_only_in_first_epochs(self, ds2_run):
        _, traces = ds2_run
        # Epoch 0 (sorted) exercises nearly every shape; later epochs
        # add at most a few new batch maxima.
        assert traces[0].autotune_s > 10 * max(
            traces[1].autotune_s, traces[2].autotune_s, 1e-12
        )

    def test_seqpoints_transfer_between_like_epochs(self, ds2_run):
        # Identify on shuffled epoch 1, project shuffled epoch 2: the
        # compositions match, so the projection lands within percents.
        _, traces = ds2_run
        result = SeqPointSelector().select(traces[1])
        projected = sum(p.weight * p.record.time_s for p in result.seqpoints)
        error = abs(projected - traces[2].total_time_s) / traces[2].total_time_s
        assert error < 0.05


class TestRunTraining:
    def test_epoch_count(self, ds2_run):
        _, traces = ds2_run
        assert len(traces) == 3
        assert [t.build_records()[0].epoch for t in traces] == [0, 1, 2]

    def test_invalid_epochs_rejected(self, ds2_run, devices):
        sim, _ = ds2_run
        with pytest.raises(ConfigurationError):
            sim.run_training(epochs=0)


class TestShuffledHomogeneity:
    def test_gnmt_epochs_similar_under_shuffle(self, devices):
        from repro.data.iwslt import build_iwslt
        from repro.models.gnmt import build_gnmt

        corpus = build_iwslt(sentences=1920)
        sim = TrainingRunSimulator(
            build_gnmt(), corpus, ShuffledBatching(64), devices[1]
        )
        traces = sim.run_training(epochs=2, include_eval=False)
        assert traces[0].total_time_s == pytest.approx(
            traces[1].total_time_s, rel=0.10
        )
