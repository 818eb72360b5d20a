"""Fig 5: the set of unique kernels differs across sequence lengths.

For pairs of iterations, the breakdown of unique kernel names into
common / only-in-1 / only-in-2 — near pairs share almost everything,
far pairs diverge by up to ~20-30% (kernel-variant selection shifts
with problem sizes).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.experiments.setups import BATCH_SIZE, scenario
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.profiling.comparison import kernel_overlap
from repro.profiling.profiler import Profiler

__all__ = ["run", "sl_pairs"]


def sl_pairs(network: str, scale: float = 1.0) -> list[tuple[int, int]]:
    """Two SL pairs per network, as the paper plots."""
    lengths = np.unique(scenario(network, scale).train_data.lengths).tolist()
    low = lengths[int(0.10 * (len(lengths) - 1))]
    mid = lengths[int(0.50 * (len(lengths) - 1))]
    high = lengths[int(0.95 * (len(lengths) - 1))]
    return [(low, mid), (mid, high)]


def run(scale: float = 1.0) -> ExperimentResult:
    device = GpuDevice(paper_config(1))
    rows: list[list[object]] = []
    for network in ("gnmt", "ds2"):
        profiler = Profiler(scenario(network, scale).model, device)
        for sl_a, sl_b in sl_pairs(network, scale):
            profile_a = profiler.profile_seq_len(sl_a, batch=BATCH_SIZE).profile
            profile_b = profiler.profile_seq_len(sl_b, batch=BATCH_SIZE).profile
            overlap = kernel_overlap(profile_a, profile_b)
            rows.append(
                [
                    network,
                    f"sl{sl_a} vs sl{sl_b}",
                    overlap.common,
                    overlap.only_in_first,
                    overlap.only_in_second,
                    f"{overlap.exclusive_fraction:.0%}",
                ]
            )
    return ExperimentResult(
        experiment_id="fig05",
        title="Unique-kernel overlap between iteration pairs",
        headers=["network", "pair", "common", "only-in-1", "only-in-2", "exclusive"],
        rows=rows,
        notes=["paper: up to ~20% of unique kernels appear in only one iteration"],
    )
