"""Community detection via label propagation with staged scheduling."""

from .coloring import Coloring, color_from_labels, greedy_color
from .graphs import Graph, GraphParseError, LoadReport, load_edge_list, load_gml
from .harness import (
    ExperimentSummary,
    TestSetting,
    TrialResult,
    run_experiment,
    run_experiments,
    run_trial,
)
from .partition import (
    Community,
    Partition,
    extract_communities,
    modularity,
    partition_stats,
)
from .propagation import (
    LabelState,
    RunConfig,
    RunMetrics,
    RunStatus,
    StopCriterion,
    TieStrategy,
    TimingModel,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Coloring",
    "Community",
    "ExperimentSummary",
    "Graph",
    "GraphParseError",
    "LabelState",
    "LoadReport",
    "Partition",
    "RunConfig",
    "RunMetrics",
    "RunStatus",
    "StopCriterion",
    "TestSetting",
    "TieStrategy",
    "TimingModel",
    "TrialResult",
    "color_from_labels",
    "extract_communities",
    "greedy_color",
    "load_edge_list",
    "load_gml",
    "modularity",
    "partition_stats",
    "run",
    "run_experiment",
    "run_experiments",
    "run_trial",
    "__version__",
]
