"""Unit tests for repro.train.runner."""

import numpy as np
import pytest

from repro.data.batching import ShuffledBatching, SortedBatching
from repro.data.dataset import SequenceDataset
from repro.data.iwslt import build_iwslt
from repro.data.librispeech import build_librispeech
from repro.errors import ConfigurationError
from repro.models.ds2 import build_ds2
from repro.models.gnmt import build_gnmt
from repro.train.runner import TrainingRunSimulator, _jitter_column


@pytest.fixture(scope="module")
def ds2_sim(devices):
    corpus = build_librispeech(utterances=640)
    return TrainingRunSimulator(
        build_ds2(), corpus, SortedBatching(64), devices[1]
    )


class TestRunEpoch:
    def test_iteration_count(self, ds2_sim):
        trace = ds2_sim.run_epoch_frame(include_eval=False)
        assert len(trace) == 640 // 64

    def test_sorted_runtimes_monotonic(self, ds2_sim):
        trace = ds2_sim.run_epoch_frame(include_eval=False)
        times = [r.time_s for r in trace.build_records()]
        assert times == sorted(times)

    def test_autotune_charged_once(self, devices):
        sim = TrainingRunSimulator(
            build_ds2(),
            build_librispeech(utterances=640),
            SortedBatching(64),
            devices[1],
        )
        first = sim.run_epoch_frame(epoch=0, include_eval=False)
        second = sim.run_epoch_frame(epoch=1, include_eval=False)
        assert first.autotune_s > 0
        # All shapes were tuned in epoch 0.
        assert second.autotune_s == 0.0

    def test_metadata_recorded(self, ds2_sim):
        trace = ds2_sim.run_epoch_frame(include_eval=False)
        assert trace.model_name == "ds2"
        assert trace.config_name == "config#1"
        assert trace.batch_size == 64

    def test_dataset_too_small_raises(self, devices):
        corpus = build_librispeech(utterances=256)
        sim = TrainingRunSimulator(
            build_ds2(), corpus, SortedBatching(512), devices[1]
        )
        with pytest.raises(ConfigurationError, match="too small"):
            sim.run_epoch_frame()


class TestEvalPhase:
    def test_eval_time_small_fraction(self, devices):
        corpus = build_librispeech(utterances=1280)
        train, evaluation = corpus.split(0.03, seed=1)
        sim = TrainingRunSimulator(
            build_ds2(), train, SortedBatching(64), devices[1],
            eval_dataset=evaluation,
        )
        trace = sim.run_epoch_frame()
        # Paper §IV-C1: evaluation is a few percent of epoch time.
        assert 0 < trace.eval_s < 0.10 * trace.total_time_s

    def test_eval_skipped_when_absent(self, ds2_sim):
        assert ds2_sim.run_epoch_frame(include_eval=True).eval_s == 0.0

    def test_eval_follows_epoch_order(self, devices):
        # The eval plan is batched by the policy at the *simulated*
        # epoch: a shuffled policy regroups the held-out set each
        # epoch, changing batch padding and therefore eval time.
        # Distinct lengths make the regrouping visible deterministically.
        train = build_librispeech(utterances=640)
        evaluation = SequenceDataset(
            "distinct-eval",
            100 + 7 * np.arange(48),
            vocab=29,
        )
        sim = TrainingRunSimulator(
            build_ds2(), train, ShuffledBatching(16), devices[1],
            eval_dataset=evaluation,
        )
        epoch0, epoch1 = sim.run_training(epochs=2)
        assert epoch0.eval_s > 0
        assert epoch0.eval_s != epoch1.eval_s

    def test_eval_epoch_invariant_under_sorted_order(self, devices):
        # Sorted batching is epoch-invariant, so eval time must be too.
        corpus = build_librispeech(utterances=1280)
        train, evaluation = corpus.split(0.10, seed=1)
        sim = TrainingRunSimulator(
            build_ds2(), train, SortedBatching(64), devices[1],
            eval_dataset=evaluation,
        )
        epoch0, epoch1 = sim.run_training(epochs=2)
        assert epoch0.eval_s > 0
        assert epoch0.eval_s == epoch1.eval_s


class TestNoise:
    def test_noise_perturbs_times(self, devices):
        corpus = build_iwslt(sentences=640)
        clean = TrainingRunSimulator(
            build_gnmt(), corpus, ShuffledBatching(64), devices[1]
        ).run_epoch_frame(include_eval=False)
        noisy = TrainingRunSimulator(
            build_gnmt(), corpus, ShuffledBatching(64), devices[1],
            noise_sigma=0.05,
        ).run_epoch_frame(include_eval=False)
        assert clean.total_time_s != noisy.total_time_s
        # but only slightly (5% sigma across 10 iterations).
        assert noisy.total_time_s == pytest.approx(clean.total_time_s, rel=0.2)

    def test_noise_deterministic_per_seed(self, devices):
        corpus = build_iwslt(sentences=640)

        def run(noise_seed):
            return TrainingRunSimulator(
                build_gnmt(), corpus, ShuffledBatching(64), devices[1],
                noise_sigma=0.05, noise_seed=noise_seed,
            ).run_epoch_frame(include_eval=False).total_time_s

        assert run(1) == run(1)
        assert run(1) != run(2)

    def _sim(self, devices, seed=0, noise_seed=None, sigma=0.05):
        return TrainingRunSimulator(
            build_gnmt(), build_iwslt(sentences=640), ShuffledBatching(64),
            devices[1], noise_sigma=sigma, seed=seed, noise_seed=noise_seed,
        )

    def test_noise_column_equals_per_iteration_draws(self, devices):
        sim = self._sim(devices, noise_seed=4101)
        column = sim._noise_column(2, 37)
        assert column.tolist() == [sim._noise(2, index) for index in range(37)]

    def test_noise_column_shared_across_data_seeds(self, devices):
        # Same hardware config (noise seed), different data order: the
        # second runner reuses the first runner's column.
        first = self._sim(devices, seed=1, noise_seed=4102)._noise_column(0, 50)
        hits = _jitter_column.cache_info().hits
        second = self._sim(devices, seed=2, noise_seed=4102)._noise_column(0, 50)
        assert _jitter_column.cache_info().hits == hits + 1
        assert second is first

    def test_noise_column_keyed_on_seed_sigma_and_epoch(self, devices):
        base = self._sim(devices, noise_seed=4103)._noise_column(0, 20)
        others = [
            self._sim(devices, noise_seed=4104)._noise_column(0, 20),
            self._sim(devices, noise_seed=4103, sigma=0.1)._noise_column(0, 20),
            self._sim(devices, noise_seed=4103)._noise_column(1, 20),
        ]
        for other in others:
            assert not np.array_equal(other, base)

    def test_noise_column_is_read_only(self, devices):
        column = self._sim(devices, noise_seed=4105)._noise_column(0, 10)
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1.0

    def test_negative_sigma_rejected(self, devices):
        corpus = build_iwslt(sentences=640)
        with pytest.raises(ConfigurationError):
            TrainingRunSimulator(
                build_gnmt(), corpus, ShuffledBatching(64), devices[1],
                noise_sigma=-0.1,
            )


class TestMeasureSeqLen:
    def test_matches_executor(self, ds2_sim):
        time_direct = ds2_sim.measure_seq_len(300)
        trace = ds2_sim.run_epoch_frame(include_eval=False)
        # measure_seq_len is noise-free and keyed only by SL.
        assert time_direct > 0
        assert ds2_sim.measure_seq_len(300) == time_direct
