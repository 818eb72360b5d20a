"""§VII-B: SeqPoint generalises beyond the paper's two networks.

Runs the full pipeline on a Transformer encoder (attention family) and
a ConvS2S-style model (convolutional family) over an IWSLT-like
corpus: identification on config #1, time projection onto config #3.
The paper argues any network whose computation varies with SL benefits;
these two cover the remaining families it names.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.projection import project_epoch_time
from repro.core.seqpoint import SeqPointSelector
from repro.data.batching import PooledBucketing
from repro.data.iwslt import build_iwslt
from repro.experiments.base import ExperimentResult
from repro.experiments.setups import BATCH_SIZE, NOISE_SIGMA
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.models.convs2s import build_convs2s
from repro.models.spec import Model
from repro.models.transformer import build_transformer
from repro.train.runner import TrainingRunSimulator
from repro.util.stats import percent_error

__all__ = ["run", "generality_outcome"]

#: Kept smaller than the headline experiments: these are breadth checks.
_SENTENCES_AT_FULL_SCALE = 40_000


def _build(network: str) -> Model:
    if network == "transformer":
        # A 6-layer encoder keeps the breadth check quick.
        return build_transformer(layers=6)
    return build_convs2s()


@lru_cache(maxsize=None)
def generality_outcome(network: str, scale: float = 1.0) -> dict[str, float]:
    """Identification stats and cross-config error for one network."""
    corpus = build_iwslt(
        sentences=max(256, int(_SENTENCES_AT_FULL_SCALE * scale)), seed=77
    )
    model = _build(network)

    def simulator(config_index: int) -> TrainingRunSimulator:
        return TrainingRunSimulator(
            model, corpus, PooledBucketing(BATCH_SIZE),
            GpuDevice(paper_config(config_index)),
            noise_sigma=NOISE_SIGMA, noise_seed=config_index,
        )

    base = simulator(1)
    trace = base.run_epoch_frame(include_eval=False)
    result = SeqPointSelector().select(trace)

    other = simulator(3)
    actual = other.run_epoch_frame(include_eval=False).total_time_s
    projected = project_epoch_time(result.selection, other)
    return {
        "iterations": float(len(trace)),
        "unique_sls": float(len(trace.unique_seq_lens())),
        "seqpoints": float(len(result.selection)),
        "ident_error_pct": result.identification_error_pct,
        "config3_error_pct": percent_error(projected, actual),
    }


def run(scale: float = 1.0) -> ExperimentResult:
    rows = []
    for network in ("transformer", "convs2s"):
        outcome = generality_outcome(network, scale)
        rows.append(
            [
                network,
                int(outcome["iterations"]),
                int(outcome["unique_sls"]),
                int(outcome["seqpoints"]),
                round(outcome["ident_error_pct"], 3),
                round(outcome["config3_error_pct"], 3),
            ]
        )
    return ExperimentResult(
        experiment_id="generality",
        title="SeqPoint on other SQNN families (§VII-B)",
        headers=[
            "network", "iterations", "unique_sls", "seqpoints",
            "ident_error_pct", "config3_proj_error_pct",
        ],
        rows=rows,
        notes=[
            "paper: any network whose computation varies with input SL "
            "(attention, convolutional, recurrent families) benefits"
        ],
    )
