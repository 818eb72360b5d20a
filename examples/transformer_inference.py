"""SeqPoint beyond the paper's networks: Transformer serving (§VII-B/E).

Characterises an *inference* deployment of a Transformer encoder: a
request stream with log-normal prompt lengths, served at batch 8.
Self-attention makes per-request work partly quadratic in SL, so the
request length distribution matters even more than for RNNs.  SeqPoint
identifies representative request batches and projects serving capacity
on a cheaper GPU configuration.

Run:  python examples/transformer_inference.py
"""

from repro import (
    GpuDevice,
    InferenceRunSimulator,
    PooledBucketing,
    SeqPointSelector,
    build_transformer,
    paper_config,
)
from repro.core.projection import project_total
from repro.data.dataset import SequenceDataset
from repro.data.distributions import LogNormalLengths
from repro.util.rng import make_rng
from repro.util.units import format_duration

# --- a prompt-length population: median 48 tokens, long tail to 512 ---
lengths = LogNormalLengths(median=48, sigma=0.8, min_len=4, max_len=512).sample(
    make_rng(3), 4_000
)
requests = SequenceDataset(
    name="prompts",
    lengths=lengths,
    vocab=30_522,
)

model = build_transformer(layers=6)
serving = InferenceRunSimulator(
    model, requests, PooledBucketing(8), GpuDevice(paper_config(1))
)
trace = serving.run_pass()
print(f"served {trace.samples} requests in {len(trace)} batches "
      f"({len(trace.unique_seq_lens())} unique padded lengths), "
      f"total {format_duration(trace.total_time_s)}")

result = SeqPointSelector().select(trace)
print(f"SeqPoints: {len(result.selection)} request batches "
      f"(identification error {result.identification_error_pct:.2f}%)")
for point in result.seqpoints:
    print(f"  SL {point.seq_len:>4}  weight {point.weight:>6.0f}  "
          f"latency {format_duration(point.record.time_s)}")

# Capacity planning: how much slower would serving be on the 852 MHz part?
cheap = InferenceRunSimulator(
    model, requests, PooledBucketing(8), GpuDevice(paper_config(2))
)
projected = project_total(
    result.selection,
    lambda p: cheap.measure_seq_len(p.seq_len, p.tgt_len),
)
actual = cheap.run_pass().total_time_s
print(f"\n852 MHz projection: {format_duration(projected)} vs actual "
      f"{format_duration(actual)} "
      f"({abs(projected - actual) / actual * 100:.2f}% error)")
print(f"slowdown vs baseline: {projected / trace.total_time_s:.2f}x — "
      f"estimated from {result.selection.iterations_to_profile} batches")
