"""Shared experiment setup: the paper's two scenarios, memoised.

A *scenario* is everything §VI fixes per network: the model, the
corpus, the batching pipeline (GNMT: pooled bucketing; DS2: SortaGrad's
sorted first epoch with time padded to a multiple of 4 frames), and
batch size 64.

Since the :mod:`repro.api` redesign this module is a thin wrapper over
the declarative engine: ``scenario``/``runner``/``epoch_trace`` resolve
through the same registries and share the same process-wide trace cache
as ``AnalysisEngine`` requests and the ``repro analyze`` CLI, so every
entry point produces identical numbers for identical setups.

``scale`` shrinks the corpus proportionally (for fast tests); 1.0 is
the paper-sized population.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.api.engine import EVAL_FRACTION, NOISE_SIGMA, default_engine
from repro.api.registry import build_batching
from repro.api.spec import DEFAULT_BATCH_SIZE, AnalysisSpec
from repro.data.batching import BatchingPolicy
from repro.data.dataset import SequenceDataset
from repro.models.spec import Model
from repro.train.frame import TraceFrame
from repro.train.runner import TrainingRunSimulator

__all__ = [
    "Scenario",
    "scenario",
    "runner",
    "epoch_trace",
    "NETWORKS",
    "BATCH_SIZE",
    "EVAL_FRACTION",
    "NOISE_SIGMA",
]

#: The two networks the paper evaluates end to end.
NETWORKS = ("gnmt", "ds2")
BATCH_SIZE = DEFAULT_BATCH_SIZE

# EVAL_FRACTION and NOISE_SIGMA remain importable from here; they are
# defined (and documented) next to the engine's resolution path.


@dataclass(frozen=True)
class Scenario:
    """One network's full experimental setup."""

    network: str
    model: Model
    train_data: SequenceDataset
    eval_data: SequenceDataset

    def batching(self) -> BatchingPolicy:
        spec = _spec(self.network)
        return build_batching(spec.batching, BATCH_SIZE, dataset=spec.dataset)


def _spec(network: str, config_index: int = 1, scale: float = 1.0) -> AnalysisSpec:
    """The default-scenario spec (validates network and scale)."""
    return AnalysisSpec(network=network, config=config_index, scale=scale)


@lru_cache(maxsize=None)
def scenario(network: str, scale: float = 1.0) -> Scenario:
    """Build (and cache) a network's scenario."""
    resolved = default_engine().resolve(_spec(network, scale=scale))
    return Scenario(
        network=network,
        model=resolved.model,
        train_data=resolved.train_data,
        eval_data=resolved.eval_data,
    )


@lru_cache(maxsize=None)
def runner(
    network: str, config_index: int, scale: float = 1.0
) -> TrainingRunSimulator:
    """Training simulator for a network on one Table II config."""
    return default_engine().runner_for(_spec(network, config_index, scale))


@lru_cache(maxsize=None)
def epoch_trace(
    network: str, config_index: int, scale: float = 1.0
) -> TraceFrame:
    """One simulated training epoch (memoised ground truth)."""
    return default_engine().trace_for(_spec(network, config_index, scale))
