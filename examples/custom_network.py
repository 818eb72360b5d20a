"""Apply SeqPoint to your own sequence model (paper §VII-B).

The methodology needs nothing GNMT- or DS2-specific: any model that
lowers iterations to kernels works.  This script defines a compact
sentiment-classifier-style SQNN (embedding -> 2 x biLSTM -> classifier)
over a synthetic review corpus, and runs the whole SeqPoint pipeline
on it.

Run:  python examples/custom_network.py
"""

from repro import (
    GpuDevice,
    SeqPointSelector,
    ShuffledBatching,
    TrainingRunSimulator,
    paper_config,
    project_epoch_time,
)
from repro.data.dataset import SequenceDataset
from repro.data.distributions import LogNormalLengths
from repro.models.layers.dense import DenseLayer
from repro.models.layers.embedding import EmbeddingLayer
from repro.models.layers.losses import SoftmaxCrossEntropyLayer
from repro.models.layers.recurrent import LSTMLayer
from repro.models.sequential import SequentialModel
from repro.util.rng import make_rng
from repro.util.units import format_duration

# --- 1. define the network -------------------------------------------
VOCAB, HIDDEN, CLASSES = 30_000, 512, 2


class SentimentLstm(SequentialModel):
    """Embedding -> two bidirectional LSTMs -> 2-way classifier."""

    def __init__(self):
        layers = [
            EmbeddingLayer("embedding", vocab=VOCAB, hidden=HIDDEN),
            LSTMLayer("lstm0", HIDDEN, HIDDEN, bidirectional=True),
            LSTMLayer("lstm1", 2 * HIDDEN, HIDDEN, bidirectional=True),
            DenseLayer("classifier", 2 * HIDDEN, CLASSES),
        ]
        super().__init__(
            "sentiment-lstm", layers, SoftmaxCrossEntropyLayer("ce", CLASSES)
        )


# --- 2. define the corpus (review lengths: log-normal, 4..400 tokens) --
lengths = LogNormalLengths(median=60, sigma=0.7, min_len=4, max_len=400).sample(
    make_rng(11), 8_000
)
corpus = SequenceDataset(
    name="reviews",
    lengths=lengths,
    vocab=VOCAB,
)

# --- 3. run the SeqPoint pipeline --------------------------------------
model = SentimentLstm()
baseline = TrainingRunSimulator(
    model, corpus, ShuffledBatching(32), GpuDevice(paper_config(1))
)
trace = baseline.run_epoch_frame(include_eval=False)
result = SeqPointSelector().select(trace)

print(f"{model.name}: {model.param_count() / 1e6:.0f}M parameters")
print(f"epoch: {len(trace)} iterations "
      f"({len(trace.unique_seq_lens())} unique SLs), "
      f"total {format_duration(trace.total_time_s)}")
print(f"SeqPoints: {sorted(result.selection.seq_lens)} "
      f"(identification error {result.identification_error_pct:.2f}%)")

# --- 4. project onto a candidate design (half the CUs) -----------------
candidate = TrainingRunSimulator(
    model, corpus, ShuffledBatching(32), GpuDevice(paper_config(3))
)
projected = project_epoch_time(result.selection, candidate)
actual = candidate.run_epoch_frame(include_eval=False).total_time_s
print(f"\n16-CU projection: {format_duration(projected)} vs actual "
      f"{format_duration(actual)} "
      f"({abs(projected - actual) / actual * 100:.2f}% error) — "
      f"from only {result.selection.iterations_to_profile} iterations")
