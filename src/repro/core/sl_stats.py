"""Per-sequence-length statistics of a training trace.

Step 1 of the paper's mechanism: "calculate statistic *stat* per unique
sequence length".  For each unique SL the epoch exercised we keep its
iteration count (the weight source), its mean runtime (the clustered
statistic), and a representative iteration record (the actual iteration
a profiler would re-run).

The computation is a vectorized group-by over the trace's columnar
frame (``np.unique`` + ``np.bincount``) and is memoised on the frame,
so a sweep of selectors over one trace pays for the grouping once.  The
accumulation order matches the original per-record scan, keeping every
statistic bit-identical to the interpreted implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import TraceError
from repro.train.frame import IterationRecord, TraceFrame

__all__ = ["SlStat", "SlStatistics"]


@dataclass(frozen=True)
class SlStat:
    """Statistics of all iterations at one unique sequence length."""

    seq_len: int
    iterations: int
    mean_time_s: float
    total_time_s: float
    #: The logged iteration whose runtime is closest to the mean — the
    #: concrete iteration to re-execute when this SL is selected.
    representative: IterationRecord

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise TraceError(f"SL {self.seq_len}: no iterations")


@dataclass(frozen=True)
class SlStatistics:
    """All per-SL statistics of one epoch, ordered by sequence length."""

    stats: tuple[SlStat, ...]

    @classmethod
    def from_trace(cls, frame: TraceFrame) -> "SlStatistics":
        """Group a trace by unique sequence length."""
        if len(frame) == 0:
            raise TraceError("cannot compute SL statistics of an empty trace")
        return frame.cached("sl_statistics", lambda: cls._from_frame(frame))

    @classmethod
    def _from_frame(cls, frame: TraceFrame) -> "SlStatistics":
        seq_lens, inverse, counts = np.unique(
            frame.seq_len, return_inverse=True, return_counts=True
        )
        inverse = inverse.reshape(-1)
        # bincount accumulates in array order, matching the sequential
        # per-group sums of the original scan bit for bit.
        totals = np.bincount(
            inverse, weights=frame.time_s, minlength=seq_lens.size
        )
        return cls.from_grouped(frame, seq_lens, counts, totals, inverse)

    @classmethod
    def from_grouped(
        cls,
        frame: TraceFrame,
        seq_lens: np.ndarray,
        counts: np.ndarray,
        totals: np.ndarray,
        inverse: np.ndarray,
    ) -> "SlStatistics":
        """Build statistics from an already computed grouping.

        The one representative-search implementation shared by the
        batch group-by above and the incremental accumulator
        (:class:`repro.stream.stats.StreamingSlStatistics`), so their
        asserted bit-identity cannot drift: ``seq_lens`` are the sorted
        unique SLs, ``counts``/``totals`` their per-group aggregates
        (accumulated in iteration order), and ``inverse`` maps each of
        ``frame``'s iterations onto its group.
        """
        times = frame.time_s
        means = totals / counts
        # Representative per SL: first record attaining the minimal
        # |time - mean| (ties resolved by iteration order, as min() did).
        deviation = np.abs(times - means[inverse])
        order = np.lexsort((np.arange(times.size), deviation, inverse))
        group_starts = np.searchsorted(
            inverse[order], np.arange(seq_lens.size)
        )
        representatives = order[group_starts]
        return cls(
            stats=tuple(
                SlStat(
                    seq_len=int(seq_lens[group]),
                    iterations=int(counts[group]),
                    mean_time_s=float(means[group]),
                    total_time_s=float(totals[group]),
                    representative=frame.record(int(representatives[group])),
                )
                for group in range(seq_lens.size)
            )
        )

    def __len__(self) -> int:
        return len(self.stats)

    def __iter__(self):
        return iter(self.stats)

    # -- column views (cached; SlStatistics is immutable) -------------

    @cached_property
    def seq_lens_column(self) -> np.ndarray:
        return np.fromiter(
            (stat.seq_len for stat in self.stats), np.int64, len(self.stats)
        )

    @cached_property
    def iterations_column(self) -> np.ndarray:
        return np.fromiter(
            (stat.iterations for stat in self.stats),
            np.int64,
            len(self.stats),
        )

    @property
    def total_time_s(self) -> float:
        return sum(stat.total_time_s for stat in self.stats)

    @property
    def total_iterations(self) -> int:
        return sum(stat.iterations for stat in self.stats)

    @property
    def min_seq_len(self) -> int:
        return self.stats[0].seq_len

    @property
    def max_seq_len(self) -> int:
        return self.stats[-1].seq_len

    def for_seq_len(self, seq_len: int) -> SlStat:
        for stat in self.stats:
            if stat.seq_len == seq_len:
                return stat
        raise TraceError(f"no iterations at sequence length {seq_len}")
