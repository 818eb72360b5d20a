"""IWSLT'15-like machine-translation corpus (GNMT's dataset).

IWSLT 2015 English-Vietnamese has ~133k sentence pairs with classically
log-normal sentence lengths (median around 16 tokens, a long tail to
~200) and a target side slightly longer than the source on average.
The synthetic population reproduces those statistics; the vocabulary is
pinned to 36549 — the classifier dimension the paper's Table I shows.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import SequenceDataset
from repro.data.distributions import LogNormalLengths
from repro.models.gnmt import GNMT_VOCAB
from repro.util.rng import derive_seed, make_rng

__all__ = ["build_iwslt", "IWSLT_SENTENCES", "IWSLT_MAX_LEN"]

IWSLT_SENTENCES = 133_000
IWSLT_MAX_LEN = 200
_TGT_RATIO_MEAN = 1.1
_TGT_RATIO_STD = 0.12


def build_iwslt(
    sentences: int = IWSLT_SENTENCES, seed: int = 2015
) -> SequenceDataset:
    """Synthesise the IWSLT'15-like training corpus."""
    length_rng = make_rng(derive_seed(seed, "iwslt", "src"))
    ratio_rng = make_rng(derive_seed(seed, "iwslt", "ratio"))

    distribution = LogNormalLengths(
        median=16.0, sigma=0.62, min_len=1, max_len=IWSLT_MAX_LEN
    )
    src = distribution.sample(length_rng, sentences)

    ratios = ratio_rng.normal(_TGT_RATIO_MEAN, _TGT_RATIO_STD, size=sentences)
    tgt = np.clip(np.rint(src * ratios), 1, IWSLT_MAX_LEN).astype(np.int64)

    return SequenceDataset(
        name="iwslt15", lengths=src, vocab=GNMT_VOCAB, unit="tokens",
        tgt_lengths=tgt,
    )
