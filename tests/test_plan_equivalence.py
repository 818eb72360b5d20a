"""Batched lowering→timing pipeline vs the scalar reference.

The equivalence matrix of the columnar-plan refactor: across models ×
shapes × hardware configs × noise seeds, the batched executor
(``SchedulePlan`` + ``run_batch`` + vectorized reductions), the
vectorized autotuner, and the vectorized GEMM dispatch race must all be
**bit-identical** to the scalar reference paths in ``tests/oracles`` —
not merely approximately equal.
"""

from __future__ import annotations

import pytest

from repro.api.registry import (
    DATASETS,
    build_batching,
    default_batching,
    default_dataset,
)
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.kernels.autotune import Autotuner
from repro.kernels.gemm import (
    GEMM_VARIANTS,
    _select,
    build_gemm,
    candidate_times,
)
from repro.hw.timing import time_work
from repro.models.ds2 import build_ds2
from repro.models.gnmt import build_gnmt
from repro.models.spec import IterationInputs
from repro.models.transformer import build_transformer
from repro.train.inference import InferenceRunSimulator
from repro.train.iteration import IterationExecutor
from repro.train.runner import TrainingRunSimulator

from oracles import ReferenceAutotuner, ScalarExecutor, scalar_pipeline, select_reference

MODEL_BUILDERS = {
    "gnmt": build_gnmt,
    "ds2": build_ds2,
    "transformer": build_transformer,
}

SHAPES = {
    "gnmt": [
        IterationInputs(batch=64, seq_len=25, tgt_len=23),
        IterationInputs(batch=64, seq_len=804, tgt_len=776),
        IterationInputs(batch=16, seq_len=100, tgt_len=100),
    ],
    "ds2": [
        IterationInputs(batch=32, seq_len=200),
        IterationInputs(batch=64, seq_len=1500),
    ],
    "transformer": [
        IterationInputs(batch=32, seq_len=64, tgt_len=64),
    ],
}

CONFIGS = (1, 2, 3, 4, 5)


def assert_results_identical(batched, scalar):
    assert batched.time_s == scalar.time_s
    assert batched.launches == scalar.launches
    assert batched.counters == scalar.counters
    assert batched.group_times == scalar.group_times
    assert batched.kernel_names == scalar.kernel_names
    assert batched.gemm_shapes == scalar.gemm_shapes


class TestExecutorEquivalenceMatrix:
    @pytest.mark.parametrize("network", sorted(MODEL_BUILDERS))
    @pytest.mark.parametrize("config_index", CONFIGS)
    def test_train_and_forward_bit_identical(self, network, config_index):
        device = GpuDevice(paper_config(config_index))
        batched = IterationExecutor(MODEL_BUILDERS[network](), device)
        scalar = ScalarExecutor(MODEL_BUILDERS[network](), device)
        for inputs in SHAPES[network]:
            assert_results_identical(batched.run(inputs), scalar.run(inputs))
            assert_results_identical(
                batched.run_forward(inputs), scalar.run_forward(inputs)
            )


class TestRunForwardUnique:
    """The serving fast path's bulk shape miss: all missing shapes
    through one ``run_batch``, bit-identical to shape-at-a-time."""

    @pytest.mark.parametrize("network", sorted(MODEL_BUILDERS))
    def test_bulk_misses_bit_identical(self, network):
        device = GpuDevice(paper_config(1))
        bulk = IterationExecutor(MODEL_BUILDERS[network](), device)
        reference = IterationExecutor(MODEL_BUILDERS[network](), device)
        shapes = SHAPES[network]
        # Duplicates interleaved: the gather must map repeats back to
        # the one result their shape produced.
        inputs_seq = [*shapes, shapes[0], *shapes]
        results = bulk.run_forward_unique(inputs_seq)
        assert len(results) == len(inputs_seq)
        for inputs, result in zip(inputs_seq, results):
            assert_results_identical(result, reference.run_forward(inputs))
        assert results[len(shapes)] is results[0]  # cached, not re-timed

    def test_single_miss_and_warm_cache(self):
        device = GpuDevice(paper_config(1))
        executor = IterationExecutor(build_gnmt(), device)
        reference = IterationExecutor(build_gnmt(), device)
        first = SHAPES["gnmt"][0]
        (solo,) = executor.run_forward_unique([first])
        assert_results_identical(solo, reference.run_forward(first))
        # Everything cached: no new shapes, same objects returned.
        again = executor.run_forward_unique([first, first])
        assert again[0] is solo and again[1] is solo

    def test_scalar_executor_falls_back(self):
        device = GpuDevice(paper_config(1))
        scalar = ScalarExecutor(build_gnmt(), device)
        reference = IterationExecutor(build_gnmt(), device)
        shapes = SHAPES["gnmt"]
        results = scalar.run_forward_unique(list(shapes))
        for inputs, result in zip(shapes, results):
            assert_results_identical(result, reference.run_forward(inputs))


class TestEpochEquivalenceMatrix:
    """Whole simulated epochs, including autotune charging, evaluation
    passes, and per-iteration measurement noise."""

    def _simulator(self, network, config_index, noise_seed, batched, scale=0.02):
        model = MODEL_BUILDERS[network]()
        dataset_name = default_dataset(network)
        corpus = DATASETS.create(dataset_name, scale=scale)
        train, evaluation = corpus.split(0.02, seed=7)
        simulator = TrainingRunSimulator(
            model=model,
            dataset=train,
            batching=build_batching(
                default_batching(network), 32, dataset=dataset_name
            ),
            device=GpuDevice(paper_config(config_index)),
            eval_dataset=evaluation,
            noise_sigma=0.02,
            seed=0,
            noise_seed=noise_seed,
        )
        return simulator if batched else scalar_pipeline(simulator)

    @pytest.mark.parametrize("network", ["gnmt", "ds2"])
    @pytest.mark.parametrize("config_index", CONFIGS)
    def test_epoch_bit_identical_across_configs(self, network, config_index):
        reference = self._simulator(network, config_index, 0, batched=False)
        vectorized = self._simulator(network, config_index, 0, batched=True)
        frame_ref = reference.run_epoch_frame(0)
        frame_vec = vectorized.run_epoch_frame(0)
        assert frame_vec.to_payload() == frame_ref.to_payload()

    @pytest.mark.parametrize("noise_seed", [0, 1, 17])
    def test_epoch_bit_identical_across_noise_seeds(self, noise_seed):
        reference = self._simulator("gnmt", 1, noise_seed, batched=False)
        vectorized = self._simulator("gnmt", 1, noise_seed, batched=True)
        assert (
            vectorized.run_epoch_frame(0).to_payload()
            == reference.run_epoch_frame(0).to_payload()
        )

    def test_multi_epoch_autotune_settling_identical(self):
        reference = self._simulator("gnmt", 1, 0, batched=False)
        vectorized = self._simulator("gnmt", 1, 0, batched=True)
        for epoch in range(2):
            assert (
                vectorized.run_epoch_frame(epoch).to_payload()
                == reference.run_epoch_frame(epoch).to_payload()
            )
        # Autotune settles after the shapes' first epoch in both paths.
        assert (
            vectorized._autotuner.total_cost_s
            == reference._autotuner.total_cost_s
        )

    def test_inference_pass_bit_identical(self):
        def serving(batched):
            corpus = DATASETS.create(default_dataset("gnmt"), scale=0.02)
            simulator = InferenceRunSimulator(
                model=MODEL_BUILDERS["gnmt"](),
                dataset=corpus,
                batching=build_batching(
                    default_batching("gnmt"), 16, dataset=default_dataset("gnmt")
                ),
                device=GpuDevice(paper_config(3)),
                noise_sigma=0.02,
            )
            return simulator if batched else scalar_pipeline(simulator)

        reference = serving(False).run_pass()
        vectorized = serving(True).run_pass()
        assert vectorized.to_payload() == reference.to_payload()


class TestGemmRaceEquivalence:
    PROBLEMS = [
        (29, 25728, 1600), (64, 64, 64), (1000, 128, 128),
        (17, 3, 911), (1, 1, 1), (4096, 2048, 512),
    ]

    @pytest.mark.parametrize("config_index", CONFIGS)
    def test_candidate_times_bit_identical_to_scalar(self, config_index):
        config = paper_config(config_index)
        for m, n, k in self.PROBLEMS:
            times = candidate_times(m, n, k, config)
            for row, variant in enumerate(GEMM_VARIANTS):
                reference, _, _ = time_work(
                    build_gemm(variant, m, n, k).work, config
                )
                assert times[row] == reference, (m, n, k, variant)

    @pytest.mark.parametrize("config_index", CONFIGS)
    def test_select_matches_reference_loop(self, config_index):
        config = paper_config(config_index)
        for m, n, k in self.PROBLEMS:
            assert _select(m, n, k, config) is select_reference(m, n, k, config)

    @pytest.mark.parametrize("config_index", CONFIGS)
    def test_autotune_charge_bit_identical(self, config_index):
        config = paper_config(config_index)
        scalar = ReferenceAutotuner(config)
        vectorized = Autotuner(config)
        for shape in self.PROBLEMS:
            assert vectorized.charge(*shape) == scalar.charge(*shape)
        assert vectorized.total_cost_s == scalar.total_cost_s
        # Re-charging is free in both modes.
        assert vectorized.charge(*self.PROBLEMS[0]) == 0.0
        assert scalar.charge(*self.PROBLEMS[0]) == 0.0


class TestPlanCacheSharing:
    def test_executors_share_lowering_for_one_model(self):
        """Two executors over one model instance (the engine's pattern:
        ``resolve`` memoises one model per scenario) compile each shape
        once process-wide."""
        from repro.models.plan import PLAN_CACHE

        model = build_gnmt()
        device = GpuDevice(paper_config(1))
        inputs = IterationInputs(batch=8, seq_len=333, tgt_len=331)
        first = IterationExecutor(model, device)
        second = IterationExecutor(model, device)
        before = PLAN_CACHE.stats()
        result_a = first.run(inputs)
        mid = PLAN_CACHE.stats()
        result_b = second.run(inputs)
        after = PLAN_CACHE.stats()
        assert mid["misses"] == before["misses"] + 1
        # The second executor re-uses the compiled plan: a hit, no miss.
        assert after["misses"] == mid["misses"]
        assert after["hits"] == mid["hits"] + 1
        assert_results_identical(result_a, result_b)

    def test_models_with_equal_param_counts_never_collide(self):
        """Regression: head count changes a transformer's kernel shapes
        but not its parameter count, so a structural key derived from
        ``param_count`` alone would serve one model's plans to the
        other.  The default per-instance key must keep them apart and
        each batched result equal to its own scalar reference."""
        wide = build_transformer(heads=12)
        narrow = build_transformer(heads=8)
        assert wide.param_count() == narrow.param_count()
        assert wide.plan_key() != narrow.plan_key()

        device = GpuDevice(paper_config(1))
        inputs = IterationInputs(batch=8, seq_len=96, tgt_len=96)
        wide_batched = IterationExecutor(wide, device).run(inputs)
        narrow_batched = IterationExecutor(narrow, device).run(inputs)
        narrow_scalar = ScalarExecutor(narrow, device).run(inputs)
        assert_results_identical(narrow_batched, narrow_scalar)
        assert wide_batched.time_s != narrow_batched.time_s

    def test_unpickled_model_draws_a_fresh_plan_token(self):
        """Plan tokens are process-local: a model shipped to another
        process must not collide there with a locally built model that
        happened to draw the same token number."""
        import pickle

        model = build_transformer(heads=12)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.plan_key() != model.plan_key()
        assert "_plan_token" not in model.__getstate__()
