"""Data-layer reference: the per-sample corpus representation.

Corpora used to be tuples of frozen ``Sample`` objects, validated one
at a time and split through a set-membership loop.  The columnar
:class:`~repro.data.dataset.SequenceDataset` must split into exactly
the same samples, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Sample:
    """One training example's length metadata."""

    length: int
    tgt_length: int | None = None

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigurationError(f"sample length must be positive: {self.length}")
        if self.tgt_length is not None and self.tgt_length <= 0:
            raise ConfigurationError(
                f"target length must be positive: {self.tgt_length}"
            )


def split_samples(
    samples: tuple[Sample, ...], eval_fraction: float, seed: int
) -> tuple[tuple[Sample, ...], tuple[Sample, ...]]:
    """The per-sample train/eval split: ``(train, eval)`` tuples."""
    if not 0.0 < eval_fraction < 1.0:
        raise ConfigurationError(
            f"eval_fraction must lie in (0, 1), got {eval_fraction}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    eval_count = max(1, int(len(samples) * eval_fraction))
    eval_idx = set(order[:eval_count].tolist())
    train = tuple(sample for i, sample in enumerate(samples) if i not in eval_idx)
    evaluation = tuple(sample for i, sample in enumerate(samples) if i in eval_idx)
    return train, evaluation
