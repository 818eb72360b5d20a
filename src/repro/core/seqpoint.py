"""The SeqPoint selector: the paper's Fig 10 mechanism end to end.

Given a logged epoch trace:

1. compute the per-unique-SL statistic (runtime);
2. if there are at most ``max_unique`` (paper: n = 10) unique SLs,
   every one becomes a SeqPoint weighted by its frequency;
3. otherwise bin SLs into ``k`` (initially 5) contiguous ranges, pick
   per bin the SL closest to the bin's average runtime, weight it by
   bin size;
4. project the epoch runtime as the weighted sum (Equation 1) and
   compare against the logged epoch runtime;
5. grow ``k`` and repeat until the error drops below the user
   threshold ``e`` (or every unique SL is its own bin).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.binning import bin_stats
from repro.core.projection import project_logged_time
from repro.core.selection import SelectedPoint, Selection, select_from_bin
from repro.core.sl_stats import SlStatistics
from repro.errors import SelectionError
from repro.train.frame import TraceFrame
from repro.util.stats import percent_error

__all__ = ["SeqPointSelector", "SeqPointResult"]


@dataclass(frozen=True)
class SeqPointResult:
    """Outcome of SeqPoint identification on one trace."""

    selection: Selection
    #: Bins used; 0 means the no-binning path (few unique SLs).
    k: int
    #: Identification-config projection error that stopped the loop.
    identification_error_pct: float
    projected_total_s: float
    actual_total_s: float

    @property
    def seqpoints(self) -> tuple[SelectedPoint, ...]:
        return self.selection.points

    def __len__(self) -> int:
        return len(self.selection)


class SeqPointSelector:
    """Identifies SeqPoints from one training epoch's trace."""

    METHOD = "seqpoint"

    def __init__(
        self,
        max_unique: int = 10,
        initial_bins: int = 5,
        error_threshold_pct: float = 1.0,
        max_bins: int | None = None,
    ):
        # Validate types eagerly: these kwargs arrive verbatim from
        # specs and the CLI, and a bad type must fail at construction
        # (a clean ConfigurationError) rather than mid-selection.
        for name, value in (
            ("max_unique", max_unique),
            ("initial_bins", initial_bins),
            ("max_bins", max_bins),
        ):
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise SelectionError(f"{name} must be an int, got {value!r}")
        if not isinstance(error_threshold_pct, (int, float)) or isinstance(
            error_threshold_pct, bool
        ):
            raise SelectionError(
                f"error_threshold_pct must be a number, "
                f"got {error_threshold_pct!r}"
            )
        if max_unique < 1:
            raise SelectionError("max_unique must be at least 1")
        if initial_bins < 1:
            raise SelectionError("initial_bins must be at least 1")
        if error_threshold_pct <= 0:
            raise SelectionError("error_threshold_pct must be positive")
        if max_bins is not None and max_bins < initial_bins:
            raise SelectionError("max_bins cannot be below initial_bins")
        self.max_unique = max_unique
        self.initial_bins = initial_bins
        self.error_threshold_pct = error_threshold_pct
        self.max_bins = max_bins

    def _all_unique(self, statistics: SlStatistics) -> Selection:
        points = tuple(
            SelectedPoint(record=stat.representative, weight=float(stat.iterations))
            for stat in statistics
        )
        return Selection(method=self.METHOD, points=points)

    def _evaluate(
        self, selection: Selection, actual_total_s: float
    ) -> tuple[float, float]:
        projected = project_logged_time(selection)
        return projected, percent_error(projected, actual_total_s)

    def select(self, trace: TraceFrame) -> SeqPointResult:
        """Run the full identification loop on ``trace``.

        The per-SL grouping is computed once per frame and shared with
        any other selector run on the same trace.
        """
        statistics = SlStatistics.from_trace(trace)
        actual = statistics.total_time_s

        if len(statistics) <= self.max_unique:
            selection = self._all_unique(statistics)
            projected, error = self._evaluate(selection, actual)
            return SeqPointResult(
                selection=selection,
                k=0,
                identification_error_pct=error,
                projected_total_s=projected,
                actual_total_s=actual,
            )

        ceiling = min(
            self.max_bins if self.max_bins is not None else len(statistics),
            len(statistics),
        )
        k = min(self.initial_bins, ceiling)
        while True:
            bins = bin_stats(statistics, k)
            selection = Selection(
                method=self.METHOD,
                points=tuple(select_from_bin(b) for b in bins),
            )
            projected, error = self._evaluate(selection, actual)
            if error < self.error_threshold_pct or k >= ceiling:
                return SeqPointResult(
                    selection=selection,
                    k=k,
                    identification_error_pct=error,
                    projected_total_s=projected,
                    actual_total_s=actual,
                )
            k += 1
