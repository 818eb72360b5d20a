"""Fig 9: iteration runtime vs sequence length is near-linear.

Sweeps SL across each network's observed range on config #1 and reports
runtime normalised to the shortest iteration, plus a linear-fit quality
note (the near-linearity is what lets a bin's mean runtime stand for the
whole bin).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.experiments.setups import runner, scenario

__all__ = ["run", "sweep"]

_POINTS = 12


def sweep(network: str, scale: float = 1.0) -> list[tuple[int, float]]:
    """(seq_len, time_s) samples across the network's SL range."""
    lengths = np.unique(scenario(network, scale).train_data.lengths).tolist()
    picks = [
        lengths[int(q * (len(lengths) - 1))]
        for q in np.linspace(0.0, 1.0, _POINTS)
    ]
    sim = runner(network, 1, scale)
    return [(sl, sim.measure_seq_len(sl)) for sl in sorted(set(picks))]


def run(scale: float = 1.0) -> ExperimentResult:
    rows: list[list[object]] = []
    notes: list[str] = []
    for network in ("gnmt", "ds2"):
        samples = sweep(network, scale)
        base = samples[0][1]
        for seq_len, time_s in samples:
            rows.append([network, seq_len, round(time_s / base, 3)])
        xs = np.array([sl for sl, _ in samples], dtype=float)
        ys = np.array([t for _, t in samples])
        slope, intercept = np.polyfit(xs, ys, 1)
        fitted = slope * xs + intercept
        r2 = 1.0 - np.sum((ys - fitted) ** 2) / np.sum((ys - ys.mean()) ** 2)
        notes.append(f"{network}: linear fit R^2 = {r2:.4f}")
    notes.append("paper: runtime grows near-linearly with SL for both networks")
    return ExperimentResult(
        experiment_id="fig09",
        title="Normalized iteration runtime vs sequence length (config #1)",
        headers=["network", "seq_len", "normalized_time"],
        rows=rows,
        notes=notes,
    )
