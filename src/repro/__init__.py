"""SeqPoint reproduction: representative iterations of sequence-based
neural networks (Pati et al., ISPASS 2020), on a simulated GPU substrate.

Public API tour
---------------

The declarative front door — describe an analysis as data, let the
engine resolve, simulate, select, and project::

    from repro import AnalysisEngine, AnalysisSpec, ProjectionSpec

    spec = AnalysisSpec(network="gnmt", scale=0.1)
    result = AnalysisEngine().run(spec, ProjectionSpec(targets=(1, 3)))
    print(result.identification_error_pct)
    print(result.to_dict())          # JSON-serializable throughout

Specs round-trip through JSON (``AnalysisSpec.from_dict``), components
are addressed by name through registries (``repro.api.MODELS`` and
friends), batches of specs fan out with ``AnalysisEngine.run_many``,
and identification epochs are shared through a content-addressed trace
cache — the same spec analysed twice simulates once.  The ``repro
analyze`` CLI is the same engine from the shell.

The imperative layer underneath remains fully public.

Hardware (paper Table II)::

    from repro import GpuDevice, paper_config
    device = GpuDevice(paper_config(1))

Networks and data (paper §VI-B)::

    from repro import build_gnmt, build_iwslt, PooledBucketing
    model, corpus = build_gnmt(), build_iwslt()

Simulate an epoch and identify SeqPoints (paper Fig 10)::

    from repro import TrainingRunSimulator, SeqPointSelector
    runner = TrainingRunSimulator(model, corpus, PooledBucketing(64), device)
    trace = runner.run_epoch_frame()
    result = SeqPointSelector().select(trace)

Project behaviour on other hardware (paper Figs 11-16)::

    from repro import project_epoch_time
    other = TrainingRunSimulator(model, corpus, PooledBucketing(64),
                                 GpuDevice(paper_config(3)))
    predicted = project_epoch_time(result.selection, other)
"""

from repro.api import (
    AnalysisEngine,
    AnalysisResult,
    AnalysisSpec,
    ProjectionSpec,
    StreamingAnalysisResult,
    TraceCache,
    TrafficAnalysisResult,
    default_engine,
)
from repro.core import (
    FrequentSelector,
    KMeansSelector,
    MedianSelector,
    PriorSelector,
    Selection,
    SeqPointResult,
    SeqPointSelector,
    SlStatistics,
    WorstSelector,
    project_epoch_time,
    project_throughput,
    project_total,
    project_uplift_pct,
    uplift_pct,
)
from repro.data import (
    PooledBucketing,
    ShuffledBatching,
    SortedBatching,
    build_iwslt,
    build_librispeech,
)
from repro.hw import GpuDevice, HardwareConfig, PAPER_CONFIGS, paper_config
from repro.models import (
    IterationInputs,
    build_cnn,
    build_convs2s,
    build_ds2,
    build_gnmt,
    build_transformer,
)
from repro.profiling import Profiler, ProfilingCostModel
from repro.profiling.export import export_selection, load_manifest
from repro.stream import (
    StreamSpec,
    StreamingIdentifier,
    StreamingSlStatistics,
    TraceReplayFeed,
)
from repro.traffic import TrafficSimulator, TrafficSpec
from repro.train import TraceFrame, TrainingRunSimulator
from repro.train.inference import InferenceRunSimulator

__version__ = "1.2.0"

__all__ = [
    "AnalysisEngine",
    "AnalysisResult",
    "AnalysisSpec",
    "ProjectionSpec",
    "StreamingAnalysisResult",
    "StreamSpec",
    "TrafficAnalysisResult",
    "TrafficSimulator",
    "TrafficSpec",
    "StreamingIdentifier",
    "StreamingSlStatistics",
    "TraceReplayFeed",
    "TraceCache",
    "default_engine",
    "FrequentSelector",
    "KMeansSelector",
    "MedianSelector",
    "PriorSelector",
    "Selection",
    "SeqPointResult",
    "SeqPointSelector",
    "SlStatistics",
    "WorstSelector",
    "project_epoch_time",
    "project_throughput",
    "project_total",
    "project_uplift_pct",
    "uplift_pct",
    "PooledBucketing",
    "ShuffledBatching",
    "SortedBatching",
    "build_iwslt",
    "build_librispeech",
    "GpuDevice",
    "HardwareConfig",
    "PAPER_CONFIGS",
    "paper_config",
    "IterationInputs",
    "build_cnn",
    "build_convs2s",
    "build_ds2",
    "build_gnmt",
    "build_transformer",
    "Profiler",
    "ProfilingCostModel",
    "export_selection",
    "load_manifest",
    "TraceFrame",
    "TrainingRunSimulator",
    "InferenceRunSimulator",
    "__version__",
]
