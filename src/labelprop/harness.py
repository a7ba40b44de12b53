"""Seeded repeated-trial experiments over (timing, network, tie) settings.

A trial randomizes the initial labeling, runs propagation until stop
criterion C1 fires (no non-tie change in the last step), extracts
communities, and scores them.  C1 trusts each update's own tie flag, so
it can stop at a labeling that labels_locally_maximal rejects: 8 of the
400 seeded karate trials of the bench's karate-sweep workload do (see
StopCriterion).  One hundred independent trials per setting (the
protocol's default) give the mean/deviation aggregates used to compare
quality, timing, and stability across configurations.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from .coloring import color_from_labels
from .graphs import Graph
from .partition import extract_communities, modularity, partition_stats
from .propagation import (
    RunConfig,
    RunStatus,
    StopCriterion,
    TieStrategy,
    TimingModel,
    run,
)
from .rng import Stream, mix64

__all__ = [
    "TestSetting",
    "TrialResult",
    "MetricSummary",
    "ExperimentSummary",
    "trial_seed",
    "run_trial",
    "run_experiment",
    "trials_csv",
]

_TAG_TRIAL = 0x3
_TAG_INIT = 0x4


@dataclass(frozen=True)
class TestSetting:
    """One (timing, network, tie) cell of the evaluation protocol."""

    __test__ = False  # not a pytest class, despite the name

    timing: TimingModel
    network: "Graph | str"
    tie: TieStrategy
    trials: int = 100
    base_seed: int = 0
    step_cap: int = 1000

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    def resolve_network(self) -> tuple[Graph, str]:
        """Return (graph, display name), loading files/fixtures lazily and
        refusing a graph with no vertices, as the loaders refuse empty files."""
        if isinstance(self.network, Graph):
            if not self.network.n:
                raise ValueError("an experiment needs a graph with vertices; this one has none")
            return self.network, f"graph<n={self.network.n}>"
        from .cli import load_graph  # cli imports this module

        graph, _, name = load_graph(self.network)
        return graph, name


@dataclass(frozen=True)
class TrialResult:
    trial_index: int
    seed: int
    modularity: float
    steps: int
    stages: int
    community_count: int
    largest_community: int
    converged: bool

    def __post_init__(self) -> None:
        if self.stages < self.steps:
            raise ValueError("stages can never undercount steps")


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregates over one setting's trials.

    Aggregates use the population (divide by N) deviation over the fixed
    trial count.  If any trial hit the step cap, its modularity is left
    out of the modularity aggregate and `non_converged` says how many
    such trials there were; every other metric covers all trials.  On an
    edgeless graph modularity is undefined: every trial's is NaN and is
    left out, so the modularity aggregate is NaN, as for a setting with no
    converged trial.
    """

    timing: TimingModel
    tie: TieStrategy
    network: str
    trials: int
    base_seed: int
    modularity: MetricSummary
    steps: MetricSummary
    stages: MetricSummary
    communities: MetricSummary
    largest_community: MetricSummary
    convergence_rate: float
    non_converged: int
    results: tuple[TrialResult, ...]


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Per-trial seed: a splitmix64 fold of (base_seed, trial_index)."""
    return mix64(base_seed, _TAG_TRIAL, trial_index)


def _run_one(graph: Graph, setting: TestSetting, trial_index: int) -> TrialResult:
    seed = trial_seed(setting.base_seed, trial_index)
    init = tuple(Stream(mix64(seed, _TAG_INIT)).permutation(graph.n))
    coloring = None
    if setting.timing is TimingModel.SEMI_SYNCHRONOUS:
        coloring = color_from_labels(graph, init)
    config = RunConfig(
        timing=setting.timing,
        tie=setting.tie,
        stop=StopCriterion.C1,
        seed=seed,
        step_cap=setting.step_cap,
        initial_labels=init,
    )
    state, metrics = run(graph, config, coloring)
    partition = extract_communities(graph, state.labels)
    stats = partition_stats(partition)
    return TrialResult(
        trial_index=trial_index,
        seed=seed,
        modularity=modularity(graph, partition) if graph.m else float("nan"),
        steps=metrics.steps,
        stages=metrics.stages,
        community_count=stats.count,
        largest_community=stats.largest,
        converged=state.status is RunStatus.CONVERGED,
    )


def run_trial(setting: TestSetting, trial_index: int) -> TrialResult:
    """Run one seeded trial of a setting.

    The trial draws its own initial label permutation from the derived
    seed; for semi-synchronous timing the stage schedule is the greedy
    coloring over increasing initial labels, so the schedule varies with
    the labeling exactly as the protocol prescribes.
    """
    graph, _ = setting.resolve_network()
    return _run_one(graph, setting, trial_index)


def _summarize(values: list[float]) -> MetricSummary:
    if not values:
        return MetricSummary(mean=float("nan"), std=float("nan"))
    return MetricSummary(
        mean=statistics.fmean(values),
        std=statistics.pstdev(values),
    )


def run_experiment(setting: TestSetting) -> ExperimentSummary:
    """Run all trials of a setting in trial-index order and aggregate."""
    graph, name = setting.resolve_network()
    results = [_run_one(graph, setting, i) for i in range(setting.trials)]

    converged = [r for r in results if r.converged]
    return ExperimentSummary(
        timing=setting.timing,
        tie=setting.tie,
        network=name,
        trials=setting.trials,
        base_seed=setting.base_seed,
        modularity=_summarize([r.modularity for r in converged] if graph.m else []),
        steps=_summarize([float(r.steps) for r in results]),
        stages=_summarize([float(r.stages) for r in results]),
        communities=_summarize([float(r.community_count) for r in results]),
        largest_community=_summarize([float(r.largest_community) for r in results]),
        convergence_rate=len(converged) / setting.trials,
        non_converged=setting.trials - len(converged),
        results=tuple(results),
    )


def trials_csv(summary: ExperimentSummary) -> str:
    lines = ["trial,seed,modularity,steps,stages,communities,largest,converged"]
    for r in summary.results:
        lines.append(
            f"{r.trial_index},{r.seed},{r.modularity!r},{r.steps},{r.stages},"
            f"{r.community_count},{r.largest_community},{str(r.converged).lower()}"
        )
    return "\n".join(lines) + "\n"
