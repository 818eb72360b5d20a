"""§V-C generalisation: projecting statistics other than runtime.

The paper notes the mechanism "can use any other statistic (or
collection of statistics) that varies with SL".  This experiment
projects whole-epoch *hardware counters* — VALU instructions, DRAM read
traffic, DRAM write traffic — from the runtime-identified SeqPoints and
compares against the logged epoch totals.
"""

from __future__ import annotations

from repro.core.projection import project_total
from repro.experiments.base import ExperimentResult
from repro.experiments.selectors import seqpoint_result
from repro.experiments.setups import epoch_trace
from repro.util.stats import percent_error

__all__ = ["run", "counter_errors"]

_COUNTERS = ("valu_insts", "dram_read_bytes", "dram_write_bytes")


def counter_errors(network: str, scale: float = 1.0) -> dict[str, float]:
    """Counter name -> projection error % on the identification config."""
    frame = epoch_trace(network, 1, scale)
    selection = seqpoint_result(network, scale).selection
    errors: dict[str, float] = {}
    for counter in _COUNTERS:
        actual = float(frame.counter_column(counter).sum())
        projected = project_total(
            selection, lambda point: getattr(point.record.counters, counter)
        )
        errors[counter] = percent_error(projected, actual)
    return errors


def run(scale: float = 1.0) -> ExperimentResult:
    rows = []
    for network in ("gnmt", "ds2"):
        errors = counter_errors(network, scale)
        rows.append(
            [network] + [round(errors[counter], 3) for counter in _COUNTERS]
        )
    return ExperimentResult(
        experiment_id="counter_projection",
        title="Projecting hardware counters from runtime-identified "
        "SeqPoints (error %)",
        headers=["network", *_COUNTERS],
        rows=rows,
        notes=[
            "paper §V-C: runtime is a good enough proxy — points picked "
            "by runtime also project other SL-dependent statistics"
        ],
    )
