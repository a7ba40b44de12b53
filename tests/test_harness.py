import itertools
import os
import threading
import time
from pathlib import Path

import pytest

from labelprop import fixtures, harness
from labelprop.coloring import color_from_labels
from labelprop.graphs import Graph
from labelprop.harness import (
    TestSetting,
    TrialResult,
    run_experiment,
    run_experiments,
    trial_seed,
    trials_csv,
)
from labelprop.propagation import (
    RunConfig,
    StopCriterion,
    TieStrategy,
    TimingModel,
    run,
)
from labelprop.partition import extract_communities, modularity, partition_stats


C4 = fixtures.graph("c4")
KARATE = fixtures.graph("karate")


def setting(**overrides):
    base = dict(
        timing=TimingModel.SEMI_SYNCHRONOUS,
        network=C4,
        tie=TieStrategy.MAX,
        trials=20,
        base_seed=42,
    )
    base.update(overrides)
    return TestSetting(**base)


def trial(s, index):
    return harness._run_one(s.network, s, index)


def test_trial_seeds_distinct_and_deterministic():
    seeds = [trial_seed(42, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [trial_seed(42, i) for i in range(100)]
    assert trial_seed(43, 0) != trial_seed(42, 0)


def test_c4_semi_sync_any_trial_collapses_in_two_steps():
    s = setting()
    for index in range(25):
        r = trial(s, index)
        assert r.modularity == 0.0
        assert r.steps == 2
        assert r.community_count == 1
        assert r.largest_community == 4
        assert r.converged
        assert r.stages == 2 * 2  # the 4-cycle always greedy-colors with 2 colors


def test_bridge_precmax_trials_hit_only_the_two_enumerated_outcomes():
    # exhaustive enumeration of initial labelings shows exactly two
    # reachable outcomes: the two triangles (most labelings) or one
    # flooded community when the top label crosses the bridge on a tie
    g = fixtures.graph("triangles-bridge")
    outcomes = {(5 / 14, 2, 3): 0, (0.0, 1, 6): 0}
    for perm in itertools.permutations(range(6)):
        coloring = color_from_labels(g, perm)
        config = RunConfig(
            timing=TimingModel.SEMI_SYNCHRONOUS,
            tie=TieStrategy.PREC_MAX,
            stop=StopCriterion.C1,
            seed=0,
            initial_labels=perm,
        )
        state, _ = run(g, config, coloring)
        p = extract_communities(g, state.labels)
        stats = partition_stats(p)
        key = (modularity(g, p), stats.count, stats.largest)
        outcomes[key] += 1  # raises KeyError on any third outcome
    assert outcomes[(5 / 14, 2, 3)] == 640
    assert outcomes[(0.0, 1, 6)] == 80


def test_async_karate_trials_all_converge():
    s = setting(timing=TimingModel.ASYNCHRONOUS, network=KARATE,
                tie=TieStrategy.RANDOM, trials=100)
    summary = run_experiment(s)
    assert summary.convergence_rate == 1.0
    assert summary.non_converged == 0
    assert all(r.steps <= 1000 for r in summary.results)


def test_trial_result_stage_accounting():
    async_result = trial(
        setting(timing=TimingModel.ASYNCHRONOUS, network=KARATE, tie=TieStrategy.MAX), 3
    )
    assert async_result.stages == async_result.steps * 34
    semi_result = trial(setting(network=KARATE), 3)
    assert semi_result.stages % semi_result.steps == 0
    assert semi_result.stages >= semi_result.steps


def test_trial_result_rejects_stage_undercount():
    with pytest.raises(ValueError):
        TrialResult(trial_index=0, seed=1, modularity=0.0, steps=5, stages=4,
                    community_count=1, largest_community=1, converged=True)


def test_experiment_reproducible():
    s = setting(network=KARATE, tie=TieStrategy.PREC, trials=30)
    a = run_experiment(s)
    c = run_experiment(s)
    assert a == c
    assert a.setting is s


def test_single_trial_has_zero_std():
    summary = run_experiment(setting(network=KARATE, trials=1, tie=TieStrategy.RANDOM))
    assert summary.modularity.std == 0.0
    assert summary.steps.std == 0.0
    assert summary.stages.std == 0.0
    assert summary.communities.std == 0.0
    assert summary.largest_community.std == 0.0


def test_setting_validation():
    with pytest.raises(ValueError):
        setting(trials=0)


@pytest.mark.parametrize("timing", list(TimingModel))
def test_experiments_refuse_a_graph_with_no_vertices(timing):
    empty = setting(timing=timing, network=Graph(0, 0, ()), trials=1)
    refusal = r"^an experiment needs a graph with vertices; this one has none$"
    with pytest.raises(ValueError, match=refusal):
        run_experiment(empty)


def test_trials_csv_shape():
    summary = run_experiment(setting(trials=2))
    lines = trials_csv(summary).splitlines()
    assert lines[0] == "trial,seed,modularity,steps,stages,communities,largest,converged"
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    assert lines[1].endswith(",true")


def test_semi_sync_beats_async_on_stages_for_karate():
    semi = run_experiment(setting(network=KARATE, tie=TieStrategy.MAX, trials=30))
    asyn = run_experiment(
        setting(timing=TimingModel.ASYNCHRONOUS, network=KARATE,
                tie=TieStrategy.MAX, trials=30)
    )
    assert semi.stages.mean < asyn.stages.mean


# --- the trial split over cores ---------------------------------------------

# 8 settings x 7 trials: 56 jobs, which 3 workers do not divide, and a
# per-setting trial count that neither 2 nor 3 divides.
SPLIT_SETTINGS = [
    setting(timing=timing, network=KARATE, tie=tie, trials=7)
    for timing in (TimingModel.ASYNCHRONOUS, TimingModel.SEMI_SYNCHRONOUS)
    for tie in TieStrategy
]


@pytest.fixture
def cores(monkeypatch):
    """Pin the usable core count; afterwards, require that no child is
    left unreaped."""

    def pin(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    yield pin
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Spy on os.fork: the pids of the children forked."""
    pids = []
    real = os.fork

    def spy():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def _serial(settings):
    return [[trial(s, i) for i in range(s.trials)] for s in settings]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_split_over_cores_gives_the_serial_results(count, cores, forks):
    cores(1)
    serial = run_experiments(SPLIT_SETTINGS)
    assert forks == []
    cores(count)
    split = run_experiments(SPLIT_SETTINGS)
    assert len(forks) == count - 1
    assert split == serial
    assert [trials_csv(s) for s in split] == [trials_csv(s) for s in serial]
    assert [list(s.results) for s in split] == _serial(SPLIT_SETTINGS)
    assert [run_experiment(s) for s in SPLIT_SETTINGS[:2]] == split[:2]


def test_a_second_thread_keeps_every_trial_in_the_caller(cores, forks):
    cores(2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        summaries = run_experiments(SPLIT_SETTINGS[:2])
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert [list(s.results) for s in summaries] == _serial(SPLIT_SETTINGS[:2])


@pytest.mark.parametrize("case", ["one job", "no fork", "no affinity call"])
def test_split_fallbacks(case, cores, forks, monkeypatch):
    cores(2)
    settings = SPLIT_SETTINGS[:1]
    if case == "one job":
        settings = [setting(network=KARATE, trials=1)]
    elif case == "no fork":
        monkeypatch.delattr(os, "fork")
    else:  # fall back on the cpu count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    summaries = run_experiments(settings)
    assert len(forks) == (case == "no affinity call")
    assert [list(s.results) for s in summaries] == _serial(settings)


@pytest.mark.parametrize(
    "failing, first",
    [({3}, 3), ({3, 4}, 3), ({2, 3}, 2)],
    ids=["in a child", "child before caller", "caller before child"],
)
def test_the_first_failing_trial_raises_in_the_caller(failing, first, cores, forks, monkeypatch):
    # with 2 workers, trials 0, 2, 4 run in the caller and 1, 3, 5 in the child
    real = harness._run_one

    def flaky(graph, s, index):
        if index in failing:
            raise ValueError(f"trial {index} failed")
        return real(graph, s, index)

    cores(2)
    monkeypatch.setattr(harness, "_run_one", flaky)
    with pytest.raises(ValueError, match=rf"^trial {first} failed$"):
        run_experiment(setting(network=KARATE, trials=6))
    assert len(forks) == 1


def test_a_child_that_dies_before_writing_is_named(cores, forks, monkeypatch):
    caller = os.getpid()
    real = harness._run_one

    def dying(graph, s, index):
        if os.getpid() != caller:
            os._exit(3)
        return real(graph, s, index)

    cores(2)
    monkeypatch.setattr(harness, "_run_one", dying)
    with pytest.raises(ChildProcessError) as info:
        run_experiment(setting(network=KARATE, trials=4))
    [pid] = forks
    assert str(info.value) == (
        f"trial worker {pid} ended with exit status 3 instead of sending its results"
    )


class _Interrupt(BaseException):
    pass


def test_an_interrupted_caller_kills_and_reaps_its_children(cores, forks, monkeypatch):
    caller = os.getpid()

    def stalling(graph, s, index):
        if os.getpid() != caller:
            time.sleep(60)
        raise _Interrupt

    cores(3)
    monkeypatch.setattr(harness, "_run_one", stalling)
    start = time.monotonic()
    with pytest.raises(_Interrupt):
        run_experiment(setting(network=KARATE, trials=3))
    assert time.monotonic() - start < 30
    assert len(forks) == 2


def test_a_failed_fork_reaps_the_children_already_forked(cores, forks, monkeypatch):
    spy = os.fork

    def second_fails():
        if forks:
            raise BlockingIOError("fork refused")
        return spy()

    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("needs /proc/self/fd to count open descriptors")
    cores(3)
    monkeypatch.setattr(os, "fork", second_fails)
    before = len(list(fds.iterdir()))
    with pytest.raises(BlockingIOError, match="^fork refused$"):
        run_experiment(setting(network=KARATE, trials=3))
    assert len(forks) == 1
    assert len(list(fds.iterdir())) == before  # both pipes closed
