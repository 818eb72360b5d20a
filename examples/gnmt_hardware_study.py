"""Hardware study: project GNMT speedups across the Table II configs.

The paper's headline use case (Figs 12 and 16): a hardware architect
wants training-time and speedup estimates for candidate GPU designs
without re-running full training on each.  SeqPoints are identified
once on the baseline, then each candidate executes only those
iterations.  The script compares SeqPoint against the paper's
baselines (frequent / median / worst / prior).

Run:  python examples/gnmt_hardware_study.py
"""

from repro import (
    FrequentSelector,
    GpuDevice,
    MedianSelector,
    PooledBucketing,
    PriorSelector,
    SeqPointSelector,
    TrainingRunSimulator,
    WorstSelector,
    build_gnmt,
    build_iwslt,
    paper_config,
    project_epoch_time,
    project_uplift_pct,
    uplift_pct,
)
from repro.util.stats import geomean, percent_error
from repro.util.tables import render_table

BATCH_SIZE = 64

model = build_gnmt()
corpus = build_iwslt(sentences=12_000)
runners = {
    index: TrainingRunSimulator(
        model, corpus, PooledBucketing(BATCH_SIZE), GpuDevice(paper_config(index))
    )
    for index in range(1, 6)
}
print("simulating ground-truth epochs on all five configurations...")
traces = {index: sim.run_epoch_frame(include_eval=False) for index, sim in runners.items()}

# Identify every selection on the baseline config only.
trace1 = traces[1]
selections = {
    "worst": WorstSelector().select(trace1),
    "frequent": FrequentSelector().select(trace1),
    "median": MedianSelector().select(trace1),
    "prior": PriorSelector().select(trace1),
    "seqpoint": SeqPointSelector().select(trace1).selection,
}

# --- training-time projections (the Fig 12 view) ---------------------
rows = []
errors = {method: [] for method in selections}
for index in range(1, 6):
    row = [f"config#{index}"]
    for method, selection in selections.items():
        projected = project_epoch_time(selection, runners[index])
        error = percent_error(projected, traces[index].total_time_s)
        errors[method].append(error)
        row.append(f"{error:.2f}")
    rows.append(row)
rows.append(
    ["geomean"] + [f"{geomean(errors[m]):.2f}" for m in selections]
)
print()
print(render_table(
    ["config", *selections], rows,
    title="GNMT training-time projection error % (cf. paper Fig 12)",
))

# --- speedup projections (the Fig 16 view) ----------------------------
rows = []
for index in range(2, 6):
    actual = uplift_pct(traces[index].throughput, traces[1].throughput)
    row = [f"#{index}->#1", f"{actual:.1f}%"]
    for method, selection in selections.items():
        projected = project_uplift_pct(selection, runners[index], runners[1])
        row.append(f"{abs(projected - actual):.2f}")
    rows.append(row)
print()
print(render_table(
    ["transition", "actual", *selections], rows,
    title="GNMT speedup-projection error, percentage points (cf. paper Fig 16)",
))
print(f"\nSeqPoint executed {selections['seqpoint'].iterations_to_profile} "
      f"iterations per config; prior executed "
      f"{selections['prior'].iterations_to_profile}.")
