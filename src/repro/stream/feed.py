"""Feed adapters: things that produce iteration chunks for a stream.

A *feed* is any iterable of chunks, where each chunk is either

* a :class:`FrameSlice` — a columnar window ``frame[start:stop)`` (the
  fast path for replayed traces), or
* an iterable of :class:`~repro.train.frame.IterationRecord` (the
  generic path for genuinely live producers).

:class:`TraceReplayFeed` replays a logged :class:`TraceFrame` — or a
trace artefact of any schema version — as such a stream, so
every cached epoch can exercise the online identification path exactly
as a live training run would.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import TraceError
from repro.train.frame import TraceFrame

__all__ = ["FrameSlice", "TraceReplayFeed", "replay"]


@dataclass(frozen=True)
class FrameSlice:
    """One columnar chunk of a feed: ``frame[start:stop)``."""

    frame: TraceFrame
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.stop <= len(self.frame):
            raise TraceError(
                f"slice [{self.start}, {self.stop}) outside the "
                f"{len(self.frame)}-iteration frame"
            )

    def __len__(self) -> int:
        return self.stop - self.start


class TraceReplayFeed:
    """Replay a logged trace as a stream of :class:`FrameSlice` chunks.

    ``chunk_size`` models the arrival granularity — 1 replays iteration
    by iteration; larger values mimic a producer that reports in
    batches.  The feed is re-iterable (each ``iter()`` starts over) and
    knows its epoch length, which live feeds generally would not.
    """

    def __init__(self, frame: TraceFrame, chunk_size: int = 1):
        if chunk_size <= 0:
            raise TraceError(f"chunk_size must be positive, got {chunk_size}")
        self.frame = frame
        if len(self.frame) == 0:
            raise TraceError("cannot replay an empty trace")
        self.chunk_size = chunk_size

    @classmethod
    def load(cls, path: str | Path, chunk_size: int = 1) -> "TraceReplayFeed":
        """Replay a trace artefact (any schema version)."""
        return cls(TraceFrame.load(path), chunk_size=chunk_size)

    def __len__(self) -> int:
        """Epoch length in iterations (known only because this is a replay)."""
        return len(self.frame)

    def __iter__(self) -> Iterator[FrameSlice]:
        total = len(self.frame)
        for start in range(0, total, self.chunk_size):
            yield FrameSlice(
                frame=self.frame,
                start=start,
                stop=min(start + self.chunk_size, total),
            )


def replay(frame: TraceFrame, chunk_size: int = 1) -> TraceReplayFeed:
    """Shorthand for :class:`TraceReplayFeed`."""
    return TraceReplayFeed(frame, chunk_size=chunk_size)
