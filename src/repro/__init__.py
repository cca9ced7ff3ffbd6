"""repro: data-driven decision making with time series and spatio-temporal data.

A full implementation of the "Data-Governance-Analytics-Decision"
paradigm from the ICDE 2025 tutorial by Yang, Liang, Guo and Jensen:

* :mod:`repro.datatypes` -- the data foundations (paper Sec. II-A),
* :mod:`repro.datasets` -- seeded synthetic workloads standing in for the
  paper's proprietary traces,
* :mod:`repro.governance` -- imputation, uncertainty quantification and
  multi-modal fusion (Sec. II-B),
* :mod:`repro.analytics` -- forecasting, anomaly detection and
  classification with the five desired characteristics (Sec. II-C),
* :mod:`repro.decision` -- decision making under uncertainty,
  multi-objective, personalized and learning-based strategies (Sec. II-D),
* :mod:`repro.core` -- the end-to-end pipeline of Figure 1,
* :mod:`repro.serve` -- the request-facing serving layer (batching,
  deadlines, admission control),
* :mod:`repro.benchmarking` -- the unified evaluation harness.
"""

from . import (
    analytics,
    benchmarking,
    core,
    datasets,
    datatypes,
    decision,
    governance,
    observability,
    serve,
)
from .core import (
    CollectingTracer,
    ContractViolation,
    DecisionPipeline,
    FaultInjector,
    IncrementalSession,
    ProcessExecutor,
    RunDeadlineExceeded,
    SerialExecutor,
    StageCache,
    StageFailure,
    StageTimeout,
    ThreadExecutor,
)
from .datatypes import (
    CorrelatedTimeSeries,
    GpsPoint,
    ImageSequence,
    RoadNetwork,
    TimeSeries,
    Trajectory,
)
from .observability import MetricsRegistry, SpanTracer
from .serve import DecisionServer

__version__ = "1.12.0"

__all__ = [
    "CollectingTracer",
    "ContractViolation",
    "CorrelatedTimeSeries",
    "DecisionPipeline",
    "DecisionServer",
    "FaultInjector",
    "GpsPoint",
    "IncrementalSession",
    "MetricsRegistry",
    "ProcessExecutor",
    "RunDeadlineExceeded",
    "SerialExecutor",
    "SpanTracer",
    "StageCache",
    "StageFailure",
    "StageTimeout",
    "ThreadExecutor",
    "ImageSequence",
    "RoadNetwork",
    "TimeSeries",
    "Trajectory",
    "analytics",
    "benchmarking",
    "core",
    "datasets",
    "datatypes",
    "decision",
    "governance",
    "observability",
    "serve",
    "__version__",
]
