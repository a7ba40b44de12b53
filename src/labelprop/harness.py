"""Seeded repeated-trial experiments over (timing, network, tie) settings.

A trial randomizes the initial labeling, runs propagation until stop
criterion C1 fires (no non-tie change in the last step), extracts
communities, and scores them.  C1 trusts each update's own tie flag, so
it can stop at a labeling that labels_locally_maximal rejects: 8 of the
400 seeded karate trials of the bench's karate-sweep workload do (see
StopCriterion).  One hundred independent trials per setting (the
protocol's default) give the mean/deviation aggregates used to compare
quality, timing, and stability across configurations.

A setting's network is a loaded Graph (fixtures.graph, load_edge_list,
load_gml); resolving a fixture name or a file path is the command line's
job (cli.load_graph).  A summary names its graph ``graph<n=N>``.

Each trial is a pure function of (graph, setting, trial index), so
run_experiments splits the trials of all its settings, in setting order
and then trial order, over w processes, one per usable core: it forks
w - 1 children, child k runs trials k, k + w, k + 2w, ... and pipes its
results back pickled, and the caller runs trials 0, w, 2w, ... itself.
Results are byte-identical however the trials are split.  One usable
core (``taskset -c 0``), one trial, a platform without ``os.fork`` or a
caller with a second thread alive (forking a threaded process can
deadlock) run every trial in the caller.
"""

from __future__ import annotations

import os
import pickle
import signal
import statistics
import threading
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
    "run_experiment",
    "run_experiments",
    "trials_csv",
]

_TAG_TRIAL = 0x3
_TAG_INIT = 0x4


@dataclass(frozen=True)
class TestSetting:
    """One (timing, network, tie) cell of the evaluation protocol."""

    __test__ = False  # not a pytest class, despite the name

    timing: TimingModel
    network: Graph
    tie: TieStrategy
    trials: int = 100
    base_seed: int = 0
    step_cap: int = 1000

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


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
    """Run one seeded trial: its initial label permutation is drawn from
    the derived seed, and a semi-synchronous trial stages by the greedy
    coloring over increasing initial labels."""
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


def _summarize(values: list[float]) -> MetricSummary:
    if not values:
        return MetricSummary(mean=float("nan"), std=float("nan"))
    return MetricSummary(
        mean=statistics.fmean(values),
        std=statistics.pstdev(values),
    )


_Job = tuple[Graph, TestSetting, int]


def _workers(jobs: int) -> int:
    """How many processes share `jobs` trials: one per usable core, or
    one when the caller cannot fork safely."""
    if jobs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(cores, jobs)


def _run_share(jobs: list[_Job], worker: int, workers: int):
    """Run jobs[worker::workers] in order, stopping at the first that
    raises; return the results and (job position, exception) or None."""
    results = []
    for position in range(worker, len(jobs), workers):
        try:
            results.append(_run_one(*jobs[position]))
        except Exception as exc:
            return results, (position, exc)
    return results, None


def _run_jobs(jobs: list[_Job]) -> list[TrialResult]:
    """Run every job, split over the usable cores; results in job order.

    If trials raise, the exception of the first failing job in job order
    propagates, as it would with every trial run in the caller.
    """
    workers = _workers(len(jobs))
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    payloads: list[bytes] = []
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child never returns into the caller's stack
                status = 1
                try:
                    os.close(read)
                    share = _run_share(jobs, worker, workers)
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(share, pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, read))
        shares = [_run_share(jobs, 0, workers)]
        for _, read in children:
            with os.fdopen(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        statuses = []
        for k, (pid, read) in enumerate(children):
            os.close(read)
            if k >= len(payloads):  # the caller stopped before reading it
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), payload, status in zip(children, payloads, statuses):
        if status != 0:
            raise ChildProcessError(
                f"trial worker {pid} ended with exit status {status} instead of sending its results"
            )
        shares.append(pickle.loads(payload))
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [shares[p % workers][0][p // workers] for p in range(len(jobs))]


def run_experiments(settings: list[TestSetting]) -> list[ExperimentSummary]:
    """Run all trials of every setting and aggregate each setting's.

    The trials, in setting order and then trial-index order, are split
    over the usable cores (see the module docstring); each summary lists
    its setting's trials in trial-index order whatever the split.
    """
    for setting in settings:
        # refused here, as the loaders refuse an empty file
        if not setting.network.n:
            raise ValueError("an experiment needs a graph with vertices; this one has none")
        # Every trial colors or sweeps the graph: build a loaded graph's
        # neighbor tuples once, here, so that forked children inherit them.
        setting.network.adjacency
    jobs = [
        (setting.network, setting, index)
        for setting in settings
        for index in range(setting.trials)
    ]
    results = _run_jobs(jobs)
    summaries = []
    start = 0
    for setting in settings:
        graph = setting.network
        trials = results[start:start + setting.trials]
        start += setting.trials
        converged = [r for r in trials if r.converged]
        summaries.append(ExperimentSummary(
            timing=setting.timing,
            tie=setting.tie,
            network=f"graph<n={graph.n}>",
            trials=setting.trials,
            base_seed=setting.base_seed,
            modularity=_summarize([r.modularity for r in converged] if graph.m else []),
            steps=_summarize([float(r.steps) for r in trials]),
            stages=_summarize([float(r.stages) for r in trials]),
            communities=_summarize([float(r.community_count) for r in trials]),
            largest_community=_summarize([float(r.largest_community) for r in trials]),
            convergence_rate=len(converged) / setting.trials,
            non_converged=setting.trials - len(converged),
            results=tuple(trials),
        ))
    return summaries


def run_experiment(setting: TestSetting) -> ExperimentSummary:
    """Run all trials of one setting and aggregate (see run_experiments)."""
    return run_experiments([setting])[0]


def trials_csv(summary: ExperimentSummary) -> str:
    lines = ["trial,seed,modularity,steps,stages,communities,largest,converged"]
    for r in summary.results:
        lines.append(
            f"{r.trial_index},{r.seed},{r.modularity!r},{r.steps},{r.stages},"
            f"{r.community_count},{r.largest_community},{str(r.converged).lower()}"
        )
    return "\n".join(lines) + "\n"
