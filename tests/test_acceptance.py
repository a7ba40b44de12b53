"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Criterion 9 is a statistical tendency and reports
PASS/WARN without ever failing the build.
"""

import json
import random
import time
import warnings
from itertools import combinations

import pytest

from labelprop import fixtures
from labelprop.coloring import Coloring, color_from_labels, greedy_color
from labelprop.graphs import Graph
from labelprop.harness import TestSetting, run_experiment
from labelprop.partition import extract_communities, modularity
from labelprop.propagation import (
    DecisionRng,
    RunConfig,
    RunStatus,
    StopCriterion,
    TieStrategy,
    TimingModel,
    initial_state,
    run,
    semi_sync_step,
    sync_step,
)
from labelprop.rng import Stream, mix64

from helpers import partition_from_membership
from oracles import modularity_bruteforce, random_graph

BASE_SEED = 2026
KARATE = fixtures.graph("karate")


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(n, random_graph(rng, n, p))


def _report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_staged_convergence_with_growing_potential():
    started = time.perf_counter()
    rnd = random.Random(101)
    graphs = []
    while len(graphs) < 500:
        n = rnd.randint(2, 12)
        graphs.append(_random_graph(rnd, n, rnd.uniform(0.3, 0.7)))

    runs = 0
    for index, graph in enumerate(graphs):
        for tie in TieStrategy:
            for seed_index in range(5):
                seed = mix64(index, seed_index)
                init = tuple(Stream(seed).permutation(graph.n))
                config = RunConfig(
                    timing=TimingModel.SEMI_SYNCHRONOUS,
                    tie=tie,
                    stop=StopCriterion.C1,
                    seed=seed,
                    step_cap=graph.m + 2,
                    initial_labels=init,
                )
                state, metrics = run(graph, config, color_from_labels(graph, init))
                assert metrics.status is RunStatus.CONVERGED, "staged run must terminate"
                trace = (state.f_start,) + state.f_trace
                for i in range(1, len(trace) - 1):
                    assert trace[i] > trace[i - 1], (
                        f"f not strictly increasing at non-final step {i}: {trace}"
                    )
                runs += 1
    elapsed = time.perf_counter() - started
    assert runs == 500 * 4 * 5
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"{runs} staged runs converged, potential strictly grew ({elapsed:.1f}s)")


def test_criterion_2_sync_max_cycles_never_exceed_two():
    rnd = random.Random(202)
    for _ in range(500):
        n = rnd.randint(2, 10)
        graph = _random_graph(rnd, n, rnd.uniform(0.2, 0.8))
        init = list(range(n))
        rnd.shuffle(init)
        state = initial_state(graph, init)
        rng = DecisionRng(0)
        seen = {hash(state.labels): 0}
        for step in range(1, 10_000):
            state = sync_step(graph, state, TieStrategy.MAX, rng)
            key = hash(state.labels)
            if key in seen:
                cycle = step - seen[key]
                assert cycle in (1, 2), f"cycle of length {cycle} on {sorted(graph.edges())}"
                break
            seen[key] = step
        else:
            pytest.fail("no cycle detected within 10000 synchronous steps")
    _report(2, "500 sync max-tie runs: every cycle has length 1 or 2")


def test_criterion_3_oscillation_witness_exact_traces():
    g = fixtures.graph("c4")
    rng = DecisionRng(0)

    state = initial_state(g)
    orbit = []
    for _ in range(4):
        state = sync_step(g, state, TieStrategy.MAX, rng)
        orbit.append(state.labels)
    assert orbit == [(3, 2, 3, 2), (2, 3, 2, 3), (3, 2, 3, 2), (2, 3, 2, 3)]

    coloring = greedy_color(g, [0, 1, 2, 3])
    assert coloring.classes == ((0, 2), (1, 3))
    staged = semi_sync_step(g, initial_state(g), coloring, TieStrategy.MAX, rng)
    assert staged.labels == (3, 3, 3, 3)
    assert staged.step == 1
    _report(3, "sync enters the period-2 orbit; staged reaches all-3 in one step")


def test_criterion_4_modularity_matches_bruteforce_oracle():
    rnd = random.Random(404)
    compared = 0
    while compared < 200:
        n = rnd.randint(2, 8)
        edges = random_graph(rnd, n, rnd.uniform(0.2, 0.9))
        if not edges:
            continue
        graph = Graph.from_edges(n, edges)
        labels = [rnd.randint(0, n) for _ in range(n)]
        partition = extract_communities(graph, labels)
        expected = float(modularity_bruteforce(n, edges, partition.community_of))
        assert abs(modularity(graph, partition) - expected) <= 1e-12
        compared += 1

    bridge = fixtures.graph("triangles-bridge")
    triangles = partition_from_membership(bridge, [0, 0, 0, 1, 1, 1])
    assert modularity(bridge, triangles) == 5 / 14
    whole = partition_from_membership(bridge, [0] * 6)
    assert modularity(bridge, whole) == 0.0
    _report(4, f"{compared} partitions match the brute-force oracle to 1e-12; "
               "bridge scores 5/14 and 0 exactly")


def test_criterion_5_karate_quality_band():
    started = time.perf_counter()
    means = {}
    for tie in TieStrategy:
        summary = run_experiment(
            TestSetting(
                timing=TimingModel.SEMI_SYNCHRONOUS,
                network=KARATE,
                tie=tie,
                trials=100,
                base_seed=BASE_SEED,
            )
        )
        assert summary.convergence_rate == 1.0
        assert 0.30 <= summary.modularity.mean <= 0.45, (
            f"{tie.value}: mean modularity {summary.modularity.mean:.4f} out of band"
        )
        worst = max(r.modularity for r in summary.results)
        assert worst <= 0.45, f"{tie.value}: trial modularity {worst:.4f} above 0.45"
        means[tie.value] = summary.modularity.mean
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 5 took {elapsed:.1f}s"
    pretty = ", ".join(f"{k}={v:.3f}" for k, v in means.items())
    _report(5, f"karate means in [0.30, 0.45]: {pretty} ({elapsed:.1f}s)")


def test_criterion_6_staged_timing_beats_async():
    semi = run_experiment(
        TestSetting(
            timing=TimingModel.SEMI_SYNCHRONOUS,
            network=KARATE,
            tie=TieStrategy.MAX,
            trials=100,
            base_seed=BASE_SEED,
        )
    )
    asyn = run_experiment(
        TestSetting(
            timing=TimingModel.ASYNCHRONOUS,
            network=KARATE,
            tie=TieStrategy.MAX,
            trials=100,
            base_seed=BASE_SEED,
        )
    )
    assert semi.stages.mean < asyn.stages.mean
    ratio = asyn.stages.mean / semi.stages.mean
    assert ratio >= 2.0, f"stage ratio {ratio:.2f} below 2"
    assert semi.steps.mean <= 20.0
    _report(6, f"stages: staged {semi.stages.mean:.1f} vs async {asyn.stages.mean:.1f} "
               f"(ratio {ratio:.1f}), staged steps {semi.steps.mean:.2f}")


def test_criterion_7_coloring_bound_on_karate():
    g = fixtures.graph("karate")
    assert g.max_degree() == 17
    rnd = random.Random(707)
    for _ in range(1000):
        labels = list(range(g.n))
        rnd.shuffle(labels)
        coloring = color_from_labels(g, labels)
        coloring.check_proper(g)
        assert coloring.num_colors <= 18
    _report(7, "1000 random labelings: colorings proper with at most 18 colors")


def test_criterion_8_determinism_and_parallel_equivalence():
    rnd = random.Random(808)
    diffs = 0
    for check in range(100):
        n = rnd.randint(2, 12)
        graph = _random_graph(rnd, n, rnd.uniform(0.2, 0.8))
        init = list(range(n))
        rnd.shuffle(init)
        timing = rnd.choice(list(TimingModel))
        tie = rnd.choice(list(TieStrategy))
        config = RunConfig(
            timing=timing,
            tie=tie,
            stop=StopCriterion.C1,
            seed=rnd.getrandbits(63),
            step_cap=64,
            initial_labels=tuple(init),
        )
        coloring = None
        if timing is TimingModel.SEMI_SYNCHRONOUS:
            coloring = color_from_labels(graph, init)

        reference, _ = run(graph, config, coloring)
        reference_bytes = json.dumps(reference.labels).encode()

        candidates = [run(graph, config, coloring)[0]]
        if coloring is not None:
            shuffled_classes = []
            for cls in coloring.classes:
                cls = list(cls)
                rnd.shuffle(cls)
                shuffled_classes.append(tuple(cls))
            permuted = Coloring(color_of=coloring.color_of, classes=tuple(shuffled_classes))
            candidates.append(run(graph, config, permuted)[0])

        for candidate in candidates:
            if json.dumps(candidate.labels).encode() != reference_bytes:
                diffs += 1
    assert diffs == 0, f"{diffs} label diffs across execution modes"
    _report(8, "100 randomized checks: byte-identical labels across repeated runs "
               "and within-stage orders")


def test_criterion_9_stability_tendency_soft():
    def std_for(tie):
        return run_experiment(
            TestSetting(
                timing=TimingModel.SEMI_SYNCHRONOUS,
                network=KARATE,
                tie=tie,
                trials=100,
                base_seed=BASE_SEED,
            )
        ).modularity.std

    prec = std_for(TieStrategy.PREC)
    max_ = std_for(TieStrategy.MAX)
    if prec <= max_:
        _report(9, f"stability ordering holds: std(prec)={prec:.4f} <= std(max)={max_:.4f}")
    else:
        warnings.warn(
            f"stability tendency violated for this seed: std(prec)={prec:.4f} "
            f"> std(max)={max_:.4f}",
            stacklevel=1,
        )
        print(f"\nACCEPTANCE 9: WARN - std(prec)={prec:.4f} > std(max)={max_:.4f}")
