"""Fig 6: kernel runtime distribution differs with sequence length.

Per-group shares of device time (GEMM-1 = batched projections /
classifier, GEMM-2 = per-step recurrent and attention GEMMs, plus
scalar-op / reduce / conv / memops / embedding) for a short and a long
iteration of each network.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.experiments.setups import BATCH_SIZE, scenario
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.profiling.profiler import Profiler

__all__ = ["run", "GROUP_ORDER"]

GROUP_ORDER = (
    "GEMM-1", "GEMM-2", "conv", "scalar-op", "reduce", "embedding", "memops"
)


def run(scale: float = 1.0) -> ExperimentResult:
    device = GpuDevice(paper_config(1))
    rows: list[list[object]] = []
    for network in ("gnmt", "ds2"):
        setup = scenario(network, scale)
        lengths = np.unique(setup.train_data.lengths).tolist()
        short = lengths[int(0.10 * (len(lengths) - 1))]
        long_ = lengths[int(0.95 * (len(lengths) - 1))]
        profiler = Profiler(setup.model, device)
        for label, seq_len in (("sl-1", short), ("sl-2", long_)):
            shares = profiler.profile_seq_len(
                seq_len, batch=BATCH_SIZE
            ).profile.runtime_share_by_group()
            rows.append(
                [network, label, seq_len]
                + [round(shares.get(group, 0.0), 4) for group in GROUP_ORDER]
            )
    return ExperimentResult(
        experiment_id="fig06",
        title="Kernel-group runtime shares at two sequence lengths",
        headers=["network", "iter", "seq_len", *GROUP_ORDER],
        rows=rows,
        notes=["paper: GEMM-1/GEMM-2/reduce contributions shift with SL"],
    )
