"""Profiling-cost study: how much profiling time SeqPoint saves on DS2.

Reproduces the §VI-F accounting: profiling a full DS2 epoch under a
kernel-level profiler (8x overhead) versus profiling only the
SeqPoints — serially, and in parallel on one machine per SeqPoint.
Also shows the DS2-specific SortaGrad artifact: the first epoch is
sorted by utterance length, which is what hands the `prior` baseline a
low-variance (but biased) window.

Run:  python examples/ds2_profiling_cost.py
"""

from repro import (
    GpuDevice,
    PriorSelector,
    ProfilingCostModel,
    SeqPointSelector,
    SortedBatching,
    TrainingRunSimulator,
    build_ds2,
    build_librispeech,
    paper_config,
)
from repro.util.units import format_duration

BATCH_SIZE = 64

model = build_ds2()
corpus = build_librispeech(utterances=12_000)
simulator = TrainingRunSimulator(
    model, corpus,
    SortedBatching(BATCH_SIZE, pad_multiple=4),  # SortaGrad first epoch
    GpuDevice(paper_config(1)),
)
trace = simulator.run_epoch_frame(include_eval=False)
print(f"DS2 epoch: {len(trace)} iterations, "
      f"{len(trace.unique_seq_lens())} unique padded lengths "
      f"({len(trace.unique_seq_lens()) / len(trace):.0%} of iterations — "
      f"the paper's 'up to half' observation)")
print(f"epoch training time: {format_duration(trace.total_time_s)}")
print(f"autotune phase (first epoch only): {format_duration(trace.autotune_s)}")

result = SeqPointSelector().select(trace)
print(f"\nSeqPoints: {len(result.selection)} iterations "
      f"(identification error {result.identification_error_pct:.2f}%)")

cost_model = ProfilingCostModel(overhead_multiplier=8.0)
speedups = cost_model.speedups(trace, result.selection)
print(f"profiling the full epoch:      "
      f"{format_duration(speedups.full_epoch_s)}")
print(f"profiling only the SeqPoints:  "
      f"{format_duration(speedups.selection_serial_s)} "
      f"({speedups.serial_speedup:.0f}x faster)")
print(f"one machine per SeqPoint:      "
      f"{format_duration(speedups.selection_parallel_s)} "
      f"({speedups.parallel_speedup:.0f}x faster)")

prior = PriorSelector().select(trace)
print(f"\nfor comparison, prior profiles {prior.iterations_to_profile} "
      f"iterations — {prior.iterations_to_profile / len(result.selection):.1f}x "
      f"more than SeqPoint")
window = prior.seq_lens
print(f"prior's contiguous window covers SLs {min(window)}..{max(window)} "
      f"of the epoch's {trace.unique_seq_lens()[0]}.."
      f"{trace.unique_seq_lens()[-1]} (sorted epoch -> narrow, biased slice)")
