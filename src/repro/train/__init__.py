"""Training-run simulation: epochs of iterations on a simulated GPU."""

from repro.train.frame import IterationProfile, IterationRecord, TraceFrame
from repro.train.inference import InferenceRunSimulator
from repro.train.iteration import IterationExecutor, IterationResult
from repro.train.runner import TrainingRunSimulator

__all__ = [
    "IterationExecutor",
    "IterationProfile",
    "IterationResult",
    "InferenceRunSimulator",
    "TraceFrame",
    "TrainingRunSimulator",
    "IterationRecord",
]
