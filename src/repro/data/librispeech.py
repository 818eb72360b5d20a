"""LibriSpeech-100h-like speech corpus (DS2's dataset).

LibriSpeech train-clean-100 has 28.5k utterances totalling ~100 hours:
a mode of long read-speech segments (10-17 s, where chapter audio is
chunked near the corpus cap) plus a shorter-utterance mode from
sentence-final fragments.  Utterance lengths are *spectrogram frames* at a
20 ms hop (50 frames/s, the paper-era DS2 front-end); DS2's strided
convolutions halve them, so an SL-804 batch reaches the GRU stack as
402 steps — Table I's ``N = 64*402``.
"""

from __future__ import annotations

from repro.data.dataset import SequenceDataset
from repro.data.distributions import LogNormalLengths, MixtureLengths
from repro.models.ds2 import DS2_ALPHABET
from repro.util.rng import derive_seed, make_rng

__all__ = ["build_librispeech", "LIBRISPEECH_UTTERANCES", "FRAMES_PER_SECOND"]

LIBRISPEECH_UTTERANCES = 28_539
FRAMES_PER_SECOND = 50
#: LibriSpeech caps utterances near 16.7 s → ~835 frames.
_MAX_FRAMES = 835
_MIN_FRAMES = 50


def build_librispeech(
    utterances: int = LIBRISPEECH_UTTERANCES, seed: int = 2015
) -> SequenceDataset:
    """Synthesise the LibriSpeech-100h-like training corpus."""
    rng = make_rng(derive_seed(seed, "librispeech", "frames"))
    distribution = MixtureLengths.of(
        # Short fragments: a couple of seconds.
        (0.30, LogNormalLengths(
            median=4.2 * FRAMES_PER_SECOND, sigma=0.50,
            min_len=_MIN_FRAMES, max_len=_MAX_FRAMES,
        )),
        # Chunked read speech: clustered under the corpus cap.
        (0.70, LogNormalLengths(
            median=13.0 * FRAMES_PER_SECOND, sigma=0.22,
            min_len=_MIN_FRAMES, max_len=_MAX_FRAMES,
        )),
    )
    return SequenceDataset(
        name="librispeech-100h",
        lengths=distribution.sample(rng, utterances),
        vocab=DS2_ALPHABET,
        unit="frames",
    )
