"""Synthetic datasets with paper-calibrated sequence-length statistics.

The paper trains on IWSLT'15 (GNMT) and LibriSpeech-100h (DS2).  The
corpora themselves are not needed — SeqPoint consumes only the stream
of per-iteration sequence lengths — so this package synthesises sample
populations whose length *distributions* match the published shapes
(paper Fig 7): log-normal sentence lengths for IWSLT, a short/long
duration mixture for LibriSpeech.  A corpus is a :class:`SequenceDataset`
of read-only int64 length columns, validated once in its constructor.
"""

from repro.data.batching import (
    BatchingPolicy,
    PooledBucketing,
    ShuffledBatching,
    SortaGradBatching,
    SortedBatching,
)
from repro.data.dataset import SequenceDataset
from repro.data.distributions import LengthDistribution, LogNormalLengths, MixtureLengths
from repro.data.iwslt import build_iwslt
from repro.data.librispeech import build_librispeech

__all__ = [
    "BatchingPolicy",
    "PooledBucketing",
    "ShuffledBatching",
    "SortaGradBatching",
    "SortedBatching",
    "SequenceDataset",
    "LengthDistribution",
    "LogNormalLengths",
    "MixtureLengths",
    "build_iwslt",
    "build_librispeech",
]
