import itertools
from pathlib import Path

import pytest

from labelprop import fixtures
from labelprop.coloring import color_from_labels
from labelprop.graphs import Graph
from labelprop.harness import (
    TestSetting,
    TrialResult,
    run_experiment,
    run_trial,
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


def setting(**overrides):
    base = dict(
        timing=TimingModel.SEMI_SYNCHRONOUS,
        network="c4",
        tie=TieStrategy.MAX,
        trials=20,
        base_seed=42,
    )
    base.update(overrides)
    return TestSetting(**base)


def test_trial_seeds_distinct_and_deterministic():
    seeds = [trial_seed(42, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [trial_seed(42, i) for i in range(100)]
    assert trial_seed(43, 0) != trial_seed(42, 0)


def test_c4_semi_sync_any_trial_collapses_in_two_steps():
    s = setting()
    for index in range(25):
        r = run_trial(s, index)
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
    s = setting(timing=TimingModel.ASYNCHRONOUS, network="karate",
                tie=TieStrategy.RANDOM, trials=100)
    summary = run_experiment(s)
    assert summary.convergence_rate == 1.0
    assert summary.non_converged == 0
    assert all(r.steps <= 1000 for r in summary.results)


def test_trial_result_stage_accounting():
    async_result = run_trial(
        setting(timing=TimingModel.ASYNCHRONOUS, network="karate", tie=TieStrategy.MAX), 3
    )
    assert async_result.stages == async_result.steps * 34
    semi_result = run_trial(setting(network="karate"), 3)
    assert semi_result.stages % semi_result.steps == 0
    assert semi_result.stages >= semi_result.steps


def test_trial_result_rejects_stage_undercount():
    with pytest.raises(ValueError):
        TrialResult(trial_index=0, seed=1, modularity=0.0, steps=5, stages=4,
                    community_count=1, largest_community=1, converged=True)


def test_experiment_reproducible():
    s = setting(network="karate", tie=TieStrategy.PREC, trials=30)
    a = run_experiment(s)
    c = run_experiment(s)
    assert a == c


def test_single_trial_has_zero_std():
    summary = run_experiment(setting(network="karate", trials=1, tie=TieStrategy.RANDOM))
    assert summary.modularity.std == 0.0
    assert summary.steps.std == 0.0
    assert summary.stages.std == 0.0
    assert summary.communities.std == 0.0
    assert summary.largest_community.std == 0.0


def test_setting_validation():
    with pytest.raises(ValueError):
        setting(trials=0)


def test_network_resolution_variants(tmp_path: Path):
    by_name = run_trial(setting(), 0)
    by_graph = run_trial(setting(network=fixtures.graph("c4")), 0)
    path = tmp_path / "square.edgelist"
    path.write_text(fixtures.fixture_text("c4"))
    by_path = run_trial(setting(network=str(path)), 0)
    assert by_name == by_graph == by_path


def test_network_load_errors_propagate(tmp_path: Path):
    with pytest.raises(FileNotFoundError):
        run_trial(setting(network=str(tmp_path / "missing.edgelist")), 0)


def test_trials_csv_shape():
    summary = run_experiment(setting(trials=2))
    lines = trials_csv(summary).splitlines()
    assert lines[0] == "trial,seed,modularity,steps,stages,communities,largest,converged"
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    assert lines[1].endswith(",true")


def test_semi_sync_beats_async_on_stages_for_karate():
    semi = run_experiment(setting(network="karate", tie=TieStrategy.MAX, trials=30))
    asyn = run_experiment(
        setting(timing=TimingModel.ASYNCHRONOUS, network="karate",
                tie=TieStrategy.MAX, trials=30)
    )
    assert semi.stages.mean < asyn.stages.mean
