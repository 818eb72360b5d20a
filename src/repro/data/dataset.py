"""Dataset container: a corpus as sequence-length columns.

A :class:`SequenceDataset` is all SeqPoint ever sees of a corpus: each
sample's length (and target-side length for seq2seq) and the vocabulary
size (which must be preserved when sampling — the paper's Key
Observation 6).  The lengths are read-only int64 columns that the
dataset owns; its constructor is the one place they are validated, so
builders, :meth:`SequenceDataset.split` and hand-built corpora all meet
the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SequenceDataset"]


def _length_column(name: str, label: str, values) -> np.ndarray:
    """``values`` as an owned, read-only, positive int64 column."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise ConfigurationError(f"{name}: {label} must be a 1-D column, got shape {array.shape}")
    if array.size and array.dtype.kind not in "iu":
        raise ConfigurationError(f"{name}: {label} must be integers, got dtype {array.dtype}")
    column = array.astype(np.int64)
    if column.size and column.min() <= 0:
        raise ConfigurationError(f"{name}: {label} must be positive, got {column.min()}")
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class SequenceDataset:
    """A corpus as a population of sample lengths (compared by identity)."""

    name: str
    #: Source-side length per sample.
    lengths: np.ndarray
    vocab: int
    #: Human-readable modality, e.g. "speech-frames" or "text-tokens".
    unit: str = "tokens"
    #: Target-side length per sample; ``None`` without a target side.
    tgt_lengths: np.ndarray | None = None

    def __post_init__(self) -> None:
        lengths = _length_column(self.name, "sample lengths", self.lengths)
        if not lengths.size:
            raise ConfigurationError(f"{self.name}: dataset has no samples")
        if self.vocab <= 0:
            raise ConfigurationError(f"{self.name}: vocab must be positive")
        object.__setattr__(self, "lengths", lengths)
        if self.tgt_lengths is not None:
            targets = _length_column(self.name, "target lengths", self.tgt_lengths)
            if targets.size != lengths.size:
                raise ConfigurationError(
                    f"{self.name}: {targets.size} target lengths for {lengths.size} samples"
                )
            object.__setattr__(self, "tgt_lengths", targets)

    def __len__(self) -> int:
        return int(self.lengths.size)

    @property
    def has_targets(self) -> bool:
        return self.tgt_lengths is not None

    def length_histogram(self) -> dict[int, int]:
        """Number of samples per unique length (the Fig 7 statistic)."""
        values, counts = np.unique(self.lengths, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def split(self, eval_fraction: float, seed: int) -> tuple[SequenceDataset, SequenceDataset]:
        """Deterministic train/eval split (eval is the paper's ~2-3%);
        both parts keep the samples' original order."""
        if not 0.0 < eval_fraction < 1.0:
            raise ConfigurationError(f"eval_fraction must lie in (0, 1), got {eval_fraction}")
        order = np.random.default_rng(seed).permutation(len(self))
        is_eval = np.zeros(len(self), dtype=bool)
        is_eval[order[: max(1, int(len(self) * eval_fraction))]] = True
        return tuple(
            SequenceDataset(
                f"{self.name}-{suffix}",
                self.lengths[mask],
                self.vocab,
                self.unit,
                None if self.tgt_lengths is None else self.tgt_lengths[mask],
            )
            for suffix, mask in (("train", ~is_eval), ("eval", is_eval))
        )
