"""Scalar reference implementations the shipped columnar paths are
checked against.

Each layer of ``repro`` ships one path: batched lowering and timing,
one streamed compile and one segmented fold per executor call,
shape-memoized epochs, column-wise batch formation, shape-memoized
serving, length-column corpora.  The per-schedule, per-invocation,
per-plan, per-iteration, per-request, per-batch and per-sample loops
those paths replaced live here, unchanged in substance, as the ground
truth of the bit-identity tests and the baseline of the speedup
benches (``benchmarks/`` put ``tests/`` on ``sys.path`` to import
them).
"""

from .data import Sample, split_samples
from .kernels import (
    ReferenceAutotuner,
    candidate_variants,
    charge_reference,
    select_reference,
)
from .plan import compile_plan_reference
from .reduction import reduce_plan, reduce_plans, sequential_sum
from .traffic import form_batches_scalar, serve_scalar
from .train import (
    ScalarExecutor,
    epoch_records_reference,
    run_epoch_reference,
    run_pass_reference,
    scalar_pipeline,
)
from .trace_v1 import save_v1

__all__ = [
    "ReferenceAutotuner",
    "Sample",
    "ScalarExecutor",
    "candidate_variants",
    "charge_reference",
    "compile_plan_reference",
    "epoch_records_reference",
    "form_batches_scalar",
    "reduce_plan",
    "reduce_plans",
    "run_epoch_reference",
    "run_pass_reference",
    "save_v1",
    "scalar_pipeline",
    "select_reference",
    "sequential_sum",
    "serve_scalar",
    "split_samples",
]
