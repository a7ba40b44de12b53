import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelprop import fixtures, graphs, propagation
from labelprop.coloring import Coloring, color_from_labels, greedy_color
from labelprop.graphs import Graph
from labelprop.propagation import (
    DecisionRng,
    LabelState,
    MonotoneViolation,
    RunConfig,
    RunStatus,
    StopCriterion,
    TieStrategy,
    TimingModel,
    _argmax_labels,
    _pick,
    async_step,
    initial_state,
    labels_locally_maximal,
    monochromatic_edge_count,
    neighbor_frequencies,
    run,
    semi_sync_step,
    stage_count,
    sync_step,
)
from labelprop.rng import Stream

from helpers import numpy_imports
from oracles import (
    random_graph,
    reference_async_step,
    reference_f,
    reference_run,
    reference_semi_sync_step,
    reference_sync_step,
    staged_precmax_oracle,
)
from strategies import proper_colorings

RNG = DecisionRng(12345)

# diamond graph: two triangles sharing the edge 0-1; the smallest
# non-bipartite witness of the period-2 oscillation under sync max-ties
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def every_tie():
    return list(TieStrategy)


def seeded_graph(seed, n, p):
    return Graph.from_edges(n, random_graph(random.Random(seed), n, p))


# --- neighbor_frequencies ---------------------------------------------------


def test_frequencies_star_center():
    g = fixtures.graph("star4")
    assert neighbor_frequencies(g, 0, [0, 7, 7, 9]) == {7: 2, 9: 1}


def test_frequencies_c4_vertex0():
    g = fixtures.graph("c4")
    assert neighbor_frequencies(g, 0, [0, 1, 2, 3]) == {1: 1, 3: 1}


def test_frequencies_karate_hub_all_distinct():
    g = fixtures.graph("karate")
    freqs = neighbor_frequencies(g, 0, list(range(g.n)))
    assert len(freqs) == 16
    assert set(freqs.values()) == {1}


def test_frequencies_isolated_vertex_empty():
    g = Graph.from_edges(3, [(0, 1)])
    assert neighbor_frequencies(g, 2, [5, 5, 5]) == {}


def test_frequencies_counts_sum_to_degree():
    g = fixtures.graph("karate")
    labels = [v % 3 for v in range(g.n)]
    for v in range(g.n):
        assert sum(neighbor_frequencies(g, v, labels).values()) == g.degree(v)


# --- tie resolution ------------------------------------------------------------


def pick(freqs, current, tie, stream=None):
    return _pick(_argmax_labels(freqs), current, tie, stream)


@pytest.mark.parametrize("tie", every_tie())
def test_pick_unique_argmax(tie):
    assert pick({5: 3, 9: 1}, current=0, tie=tie, stream=Stream(0)) == 5


def test_pick_prec_keeps_current():
    assert pick({5: 2, 9: 2}, current=9, tie=TieStrategy.PREC) == 9


def test_pick_max_takes_highest():
    assert pick({5: 2, 9: 2}, current=3, tie=TieStrategy.MAX) == 9


def test_pick_prec_max_composition():
    # prec does not apply (3 not maximal), so the max rule decides
    assert pick({5: 2, 9: 2}, current=3, tie=TieStrategy.PREC_MAX) == 9
    assert pick({5: 2, 9: 2}, current=5, tie=TieStrategy.PREC_MAX) == 5


def test_pick_empty_table_rejected():
    with pytest.raises(ValueError):
        pick({}, current=0, tie=TieStrategy.MAX)


def test_pick_random_needs_stream():
    with pytest.raises(ValueError):
        pick({1: 1, 2: 1}, current=1, tie=TieStrategy.RANDOM, stream=None)


def test_pick_random_is_roughly_uniform():
    counts = Counter(
        pick({1: 1, 2: 1, 5: 1}, current=9, tie=TieStrategy.RANDOM, stream=Stream(i))
        for i in range(3000)
    )
    assert set(counts) == {1, 2, 5}
    for label in counts:
        assert abs(counts[label] / 3000 - 1 / 3) < 0.05


@settings(max_examples=200)
@given(
    st.dictionaries(st.integers(0, 20), st.integers(1, 5), min_size=1),
    st.integers(0, 20),
    st.sampled_from(every_tie()),
    st.integers(0, 2**63),
)
def test_pick_always_returns_argmax_member(freqs, current, tie, seed):
    best = max(freqs.values())
    chosen = pick(freqs, current, tie, Stream(seed))
    assert freqs[chosen] == best


# --- step operations ---------------------------------------------------------


def test_sync_step_c4_oscillation_pair():
    g = fixtures.graph("c4")
    s = LabelState(labels=(3, 2, 3, 2), step=0, f_start=0, f_trace=())
    s = sync_step(g, s, TieStrategy.MAX, RNG)
    assert s.labels == (2, 3, 2, 3)
    s = sync_step(g, s, TieStrategy.MAX, RNG)
    assert s.labels == (3, 2, 3, 2)


def test_sync_step_fixed_point_on_consensus():
    g = fixtures.graph("karate")
    s = initial_state(g, [4] * g.n)
    s = sync_step(g, s, TieStrategy.RANDOM, RNG)
    assert s.labels == tuple([4] * g.n)
    assert not s.last_changed


def test_sync_step_c4_identity_max():
    g = fixtures.graph("c4")
    s = sync_step(g, initial_state(g), TieStrategy.MAX, RNG)
    assert s.labels == (3, 2, 3, 2)


def test_async_step_consensus_unchanged():
    g = fixtures.graph("c4")
    s = initial_state(g, [9, 9, 9, 9])
    s = async_step(g, s, TieStrategy.MAX, RNG)
    assert s.labels == (9, 9, 9, 9)


def test_async_step_c4_identity_natural_order():
    g = fixtures.graph("c4")
    s = async_step(g, initial_state(g), TieStrategy.MAX, RNG, order=[0, 1, 2, 3])
    assert s.labels == (3, 3, 3, 3)  # v1 hits the {3,2} tie and max takes 3
    assert s.step == 1


def test_async_step_path3_pinned_order():
    g = fixtures.graph("path3")
    s = async_step(g, initial_state(g), TieStrategy.MAX, RNG, order=[1, 0, 2])
    assert s.labels == (2, 2, 2)


@pytest.mark.parametrize("bad", [-1, 0.5, 1.0, "1"])
def test_initial_state_refuses_labels_that_are_not_non_negative_integers(bad):
    g = fixtures.graph("path3")
    with pytest.raises(ValueError, match=r"^labels must be non-negative integers$"):
        initial_state(g, [0, bad, 2])
    with pytest.raises(ValueError, match=r"^labels must be non-negative integers$"):
        run(g, RunConfig(timing=TimingModel.SYNCHRONOUS, tie=TieStrategy.MAX,
                         stop=StopCriterion.C1, seed=0, initial_labels=(bad, 1, 2)))


def test_async_step_rejects_bad_order():
    g = fixtures.graph("path3")
    for order in ([0, 1], [0, 0, 2]):
        with pytest.raises(ValueError, match=r"^order must be a permutation of 0\.\.2$"):
            async_step(g, initial_state(g), TieStrategy.MAX, RNG, order=order)


def test_semi_sync_step_c4_converges_where_sync_oscillates():
    g = fixtures.graph("c4")
    col = greedy_color(g, [0, 1, 2, 3])
    s = semi_sync_step(g, initial_state(g), col, TieStrategy.MAX, RNG)
    assert s.labels == (3, 3, 3, 3)


def test_semi_sync_step_consensus_f_equals_m():
    g = fixtures.graph("triangles-bridge")
    col = color_from_labels(g, list(range(g.n)))
    s = initial_state(g, [2] * g.n)
    s = semi_sync_step(g, s, col, TieStrategy.RANDOM, RNG)
    assert s.labels == tuple([2] * g.n)
    assert s.f_trace == (g.m,)


def test_semi_sync_bridge_identity_matches_oracle():
    g = fixtures.graph("triangles-bridge")
    init = list(range(6))
    expected_labels, expected_steps = staged_precmax_oracle(6, list(g.edges()), init)
    cfg = RunConfig(
        timing=TimingModel.SEMI_SYNCHRONOUS,
        tie=TieStrategy.PREC_MAX,
        stop=StopCriterion.C1,
        seed=11,
        initial_labels=tuple(init),
    )
    state, metrics = run(g, cfg, color_from_labels(g, init))
    assert state.labels == tuple(expected_labels)
    assert metrics.steps == expected_steps
    assert state.labels == (2, 2, 2, 5, 5, 5)  # constant inside each triangle


def test_semi_sync_step_rejects_improper_coloring():
    g = fixtures.graph("path3")
    bad = Coloring(color_of=(0, 0, 1), classes=((0, 1), (2,)))
    with pytest.raises(ValueError):
        semi_sync_step(g, initial_state(g), bad, TieStrategy.MAX, RNG)


def test_isolated_vertices_keep_labels():
    g = Graph.from_edges(4, [(0, 1)])
    col = greedy_color(g, [0, 1, 2, 3])
    for tie in every_tie():
        cfg = RunConfig(
            timing=TimingModel.SEMI_SYNCHRONOUS, tie=tie, seed=5, initial_labels=(7, 7, 3, 9)
        )
        state, _ = run(g, cfg, col)
        assert state.labels[2] == 3
        assert state.labels[3] == 9
        assert state.status is RunStatus.CONVERGED


# --- stop criteria -----------------------------------------------------------


def test_run_c1_stops_when_nothing_changes():
    g = fixtures.graph("c4")
    cfg = RunConfig(timing=TimingModel.SYNCHRONOUS, tie=TieStrategy.MAX,
                    stop=StopCriterion.C1, initial_labels=(1, 1, 1, 1))
    state, metrics = run(g, cfg)
    assert (state.stop_reason, metrics.steps, state.last_changed) == ("c1", 1, frozenset())


def test_run_c1_does_not_stop_on_non_tie_changes():
    # sync max on (3,2,3,2): every change has a unique argmax, every step
    g = fixtures.graph("c4")
    cfg = RunConfig(timing=TimingModel.SYNCHRONOUS, tie=TieStrategy.MAX,
                    stop=StopCriterion.C1, step_cap=5, initial_labels=(3, 2, 3, 2))
    state, metrics = run(g, cfg)
    assert (state.status, state.stop_reason, metrics.steps) == (
        RunStatus.CAP_EXCEEDED, "step-cap", 5
    )
    assert state.last_changed == {0, 1, 2, 3}
    assert not state.last_tie_changed


def test_run_c1_stops_on_tie_only_changes():
    # sync max on c4's distinct labels: every vertex sees a two-way tie
    g = fixtures.graph("c4")
    cfg = RunConfig(timing=TimingModel.SYNCHRONOUS, tie=TieStrategy.MAX, stop=StopCriterion.C1)
    state, metrics = run(g, cfg)
    assert (state.stop_reason, metrics.steps, state.labels) == ("c1", 1, (3, 2, 3, 2))
    assert state.last_changed == state.last_tie_changed == {0, 1, 2, 3}


def test_run_c2_stops_on_an_unchanged_step():
    g = fixtures.graph("c4")
    cfg = RunConfig(timing=TimingModel.SYNCHRONOUS, tie=TieStrategy.MAX, stop=StopCriterion.C2,
                    initial_labels=(5, 5, 5, 5))
    state, metrics = run(g, cfg)
    assert (state.status, state.stop_reason, metrics.steps) == (
        RunStatus.CONVERGED, "c2-period-1", 1
    )


def test_run_c2_runs_on_while_labelings_differ():
    # sync max on c4 from distinct labels: (0, 1, 2, 3), (3, 2, 3, 2) and
    # (2, 3, 2, 3) are three distinct labelings
    g = fixtures.graph("c4")
    cfg = RunConfig(timing=TimingModel.SYNCHRONOUS, tie=TieStrategy.MAX, stop=StopCriterion.C2,
                    step_cap=2)
    state, metrics = run(g, cfg)
    assert (state.status, state.stop_reason, metrics.steps) == (
        RunStatus.CAP_EXCEEDED, "step-cap", 2
    )


@pytest.mark.parametrize(
    "tie, period, steps", [(TieStrategy.PREC, 2, 8), (TieStrategy.MAX, 1, 6)]
)
def test_run_c2_stops_at_the_first_repeat_on_karate(tie, period, steps):
    g = fixtures.graph("karate")
    cfg = RunConfig(timing=TimingModel.SYNCHRONOUS, tie=tie, stop=StopCriterion.C2)
    state, metrics = run(g, cfg)
    assert (state.stop_reason, metrics.steps) == (f"c2-period-{period}", steps)
    # replay the labelings with full steps: the last repeats the one
    # `period` steps back and none repeats one or two steps back before it
    s = initial_state(g)
    history = [s.labels]
    for _ in range(steps):
        s = sync_step(g, s, tie, DecisionRng(cfg.seed))
        history.append(s.labels)
    assert state.labels == history[-1]
    assert history[-1] == history[-1 - period] and (period == 1 or history[-1] != history[-2])
    assert not any(history[i] in history[max(0, i - 2):i] for i in range(1, steps))


# --- monochromatic edge count -------------------------------------------------


def test_mono_count_all_distinct():
    g = fixtures.graph("karate")
    assert monochromatic_edge_count(g, list(range(g.n))) == 0


def test_mono_count_consensus_karate():
    g = fixtures.graph("karate")
    assert monochromatic_edge_count(g, [1] * g.n) == 78


def test_mono_count_c4_alternating():
    g = fixtures.graph("c4")
    assert monochromatic_edge_count(g, (3, 2, 3, 2)) == 0


# --- run --------------------------------------------------------------------


def test_run_semi_sync_c4_two_steps():
    g = fixtures.graph("c4")
    col = greedy_color(g, [0, 1, 2, 3])
    cfg = RunConfig(timing=TimingModel.SEMI_SYNCHRONOUS, tie=TieStrategy.MAX, seed=1)
    state, metrics = run(g, cfg, col)
    assert state.labels == (3, 3, 3, 3)
    assert metrics.steps == 2
    assert metrics.stages == 4
    assert state.stop_reason == "c1"


def test_run_sync_c4_c2_period_two():
    g = fixtures.graph("c4")
    cfg = RunConfig(
        timing=TimingModel.SYNCHRONOUS, tie=TieStrategy.MAX, stop=StopCriterion.C2, seed=1
    )
    state, metrics = run(g, cfg)
    assert state.status is RunStatus.CONVERGED
    assert state.stop_reason == "c2-period-2"
    assert metrics.steps == 3


@pytest.mark.parametrize("timing", list(TimingModel))
@pytest.mark.parametrize("stop", list(StopCriterion))
def test_run_consensus_converges_in_one_step(timing, stop):
    g = fixtures.graph("triangles-bridge")
    coloring = color_from_labels(g, list(range(g.n))) if timing is TimingModel.SEMI_SYNCHRONOUS else None
    cfg = RunConfig(timing=timing, tie=TieStrategy.RANDOM, stop=stop, seed=9,
                    initial_labels=tuple([5] * g.n))
    state, metrics = run(g, cfg, coloring)
    assert state.status is RunStatus.CONVERGED
    assert metrics.steps == 1


def test_run_requires_coloring_only_for_semi_sync():
    g = fixtures.graph("c4")
    col = greedy_color(g, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        run(g, RunConfig(timing=TimingModel.SEMI_SYNCHRONOUS, tie=TieStrategy.MAX))
    with pytest.raises(ValueError):
        run(g, RunConfig(timing=TimingModel.SYNCHRONOUS, tie=TieStrategy.MAX), col)


def test_run_cap_exceeded_is_reported_not_raised():
    g = fixtures.graph("c4")
    cfg = RunConfig(
        timing=TimingModel.SYNCHRONOUS,
        tie=TieStrategy.RANDOM,
        stop=StopCriterion.NO_CHANGE,
        seed=3,
        step_cap=1,
    )
    state, metrics = run(g, cfg)
    assert state.status is RunStatus.CAP_EXCEEDED
    assert state.stop_reason == "step-cap"
    assert metrics.steps == 1


def test_run_validates_config_inputs():
    g = fixtures.graph("c4")
    with pytest.raises(ValueError):
        RunConfig(timing=TimingModel.SYNCHRONOUS, tie=TieStrategy.MAX, step_cap=0)
    with pytest.raises(ValueError):
        run(g, RunConfig(timing=TimingModel.SYNCHRONOUS, tie=TieStrategy.MAX,
                         initial_labels=(1, 2)))


def test_run_is_deterministic_per_config():
    g = fixtures.graph("karate")
    for timing in list(TimingModel):
        coloring = color_from_labels(g, list(range(g.n))) if timing is TimingModel.SEMI_SYNCHRONOUS else None
        cfg = RunConfig(timing=timing, tie=TieStrategy.RANDOM, seed=77)
        first, _ = run(g, cfg, coloring)
        second, _ = run(g, cfg, coloring)
        assert first.labels == second.labels


# --- oscillation witnesses ----------------------------------------------------


def test_bipartite_oscillation_witness_c4():
    g = fixtures.graph("c4")
    s = initial_state(g)
    orbit = []
    for _ in range(5):
        s = sync_step(g, s, TieStrategy.MAX, RNG)
        orbit.append(s.labels)
    assert orbit == [
        (3, 2, 3, 2),
        (2, 3, 2, 3),
        (3, 2, 3, 2),
        (2, 3, 2, 3),
        (3, 2, 3, 2),
    ]


def test_non_bipartite_oscillation_witness_diamond():
    # triangles make the diamond non-bipartite, yet sync max-ties still
    # enters a two-step orbit from distinct initial labels
    s = initial_state(DIAMOND)
    seen = {s.labels: 0}
    for step in range(1, 10):
        s = sync_step(DIAMOND, s, TieStrategy.MAX, RNG)
        if s.labels in seen:
            assert step - seen[s.labels] == 2
            break
        seen[s.labels] = step
    else:
        pytest.fail("no cycle found")
    assert s.labels in {(3, 3, 1, 1), (1, 1, 3, 3)}


def test_diamond_semi_sync_does_not_oscillate():
    col = color_from_labels(DIAMOND, [0, 1, 2, 3])
    cfg = RunConfig(timing=TimingModel.SEMI_SYNCHRONOUS, tie=TieStrategy.MAX, seed=4)
    state, metrics = run(DIAMOND, cfg, col)
    assert state.status is RunStatus.CONVERGED


# --- convergence guarantees (module-scale property checks) --------------------


def test_staged_runs_terminate_with_growing_potential():
    rnd = random.Random(99)
    for _ in range(150):
        n = rnd.randint(2, 12)
        g = seeded_graph(rnd.getrandbits(32), n, rnd.uniform(0.3, 0.7))
        init = list(range(n))
        rnd.shuffle(init)
        tie = rnd.choice(every_tie())
        cfg = RunConfig(
            timing=TimingModel.SEMI_SYNCHRONOUS,
            tie=tie,
            stop=StopCriterion.C1,
            seed=rnd.getrandbits(63),
            step_cap=g.m + 2,
            initial_labels=tuple(init),
        )
        state, metrics = run(g, cfg, color_from_labels(g, init))
        assert state.status is RunStatus.CONVERGED
        assert metrics.steps <= g.m + 1
        trace = (metrics.f_start,) + metrics.f_trace
        for i in range(1, len(trace) - 1):
            assert trace[i] > trace[i - 1]


def test_sync_max_family_cycles_at_most_two():
    rnd = random.Random(4242)
    for _ in range(150):
        n = rnd.randint(2, 10)
        g = seeded_graph(rnd.getrandbits(32), n, rnd.uniform(0.2, 0.8))
        init = list(range(n))
        rnd.shuffle(init)
        for tie in (TieStrategy.MAX, TieStrategy.PREC_MAX):
            s = initial_state(g, init)
            seen = {s.labels: 0}
            for step in range(1, 200):
                s = sync_step(g, s, tie, RNG)
                if s.labels in seen:
                    assert step - seen[s.labels] in (1, 2)
                    break
                seen[s.labels] = step
            else:
                pytest.fail("no repeat within 200 sync steps")


def test_monotone_violation_raised_on_cooked_trace():
    # fabricate a state claiming a non-tie change while f dropped: the
    # guard inside run() is exercised through its helper
    from labelprop.propagation import _check_monotone

    bad = LabelState(
        labels=(0, 0),
        step=2,
        f_start=1,
        f_trace=(1, 0),
        last_changed=frozenset({0}),
        last_tie_changed=frozenset(),
    )
    with pytest.raises(MonotoneViolation):
        _check_monotone(bad, bad.last_changed - bad.last_tie_changed)


def test_locally_maximal_freeze_under_prec_family():
    rnd = random.Random(31337)
    checked = 0
    for _ in range(400):
        n = rnd.randint(2, 10)
        g = seeded_graph(rnd.getrandbits(32), n, rnd.uniform(0.2, 0.8))
        init = list(range(n))
        rnd.shuffle(init)
        tie = rnd.choice([TieStrategy.PREC, TieStrategy.PREC_MAX])
        col = color_from_labels(g, init)
        cfg = RunConfig(
            timing=TimingModel.SEMI_SYNCHRONOUS, tie=tie, seed=rnd.getrandbits(63),
            initial_labels=tuple(init),
        )
        state, _ = run(g, cfg, col)
        if not labels_locally_maximal(g, state.labels):
            continue
        checked += 1
        after = semi_sync_step(g, state, col, tie, DecisionRng(cfg.seed))
        assert after.labels == state.labels
    assert checked > 100  # the predicate holds for most converged runs


# --- execution-order independence ---------------------------------------------


def shuffled_within_classes(coloring, rnd):
    classes = []
    for cls in coloring.classes:
        cls = list(cls)
        rnd.shuffle(cls)
        classes.append(tuple(cls))
    return Coloring(color_of=coloring.color_of, classes=tuple(classes))


def test_within_stage_order_is_irrelevant():
    g = fixtures.graph("karate")
    rnd = random.Random(5)
    init = list(range(g.n))
    rnd.shuffle(init)
    col = color_from_labels(g, init)
    for tie in every_tie():
        cfg = RunConfig(timing=TimingModel.SEMI_SYNCHRONOUS, tie=tie, seed=21,
                        initial_labels=tuple(init))
        base, _ = run(g, cfg, col)
        for _ in range(5):
            permuted = shuffled_within_classes(col, rnd)
            other, _ = run(g, cfg, permuted)
            assert other.labels == base.labels


# --- stage accounting ----------------------------------------------------------


def test_stage_count_rules():
    assert stage_count(TimingModel.SEMI_SYNCHRONOUS, steps=2, n=4, num_colors=2) == 4
    assert stage_count(TimingModel.ASYNCHRONOUS, steps=3, n=34) == 102
    assert stage_count(TimingModel.SYNCHRONOUS, steps=7, n=100) == 7
    with pytest.raises(ValueError):
        stage_count(TimingModel.SEMI_SYNCHRONOUS, steps=2, n=4)


# --- differential against the reference step code -------------------------------


@st.composite
def propagation_cases(draw):
    """A small graph (isolated vertices likely), initial labels that may
    repeat, and a vertex permutation (coloring order or pinned async order)."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    labels = draw(
        st.one_of(
            st.permutations(range(n)),
            st.lists(st.integers(0, n), min_size=n, max_size=n),
        )
    )
    order = draw(st.permutations(range(n)))
    return Graph.from_edges(n, edges), tuple(labels), order


def _state_fields(state):
    return (state.labels, state.f_trace, state.last_changed, state.last_tie_changed)


@settings(max_examples=400, deadline=None)
@given(
    propagation_cases(),
    st.sampled_from(list(TimingModel)),
    st.sampled_from(every_tie()),
    st.sampled_from(list(StopCriterion)),
    st.integers(0, 2**63),
    st.integers(1, 40),
)
def test_run_matches_reference(case, timing, tie, stop, seed, cap):
    g, init, order = case
    coloring = greedy_color(g, order) if timing is TimingModel.SEMI_SYNCHRONOUS else None
    cfg = RunConfig(timing=timing, tie=tie, stop=stop, seed=seed, step_cap=cap,
                    initial_labels=init)
    state, metrics = run(g, cfg, coloring)
    ref = reference_run(g.adjacency, timing.value, tie.value, stop.value, DecisionRng(seed),
                        cap, init, coloring.classes if coloring else None)
    assert _state_fields(state) == (
        ref["labels"], ref["f_trace"], ref["last_changed"], ref["last_tie_changed"]
    )
    assert (state.step, state.f_start, state.status.value, state.stop_reason) == (
        ref["steps"], ref["f_start"], ref["status"], ref["stop_reason"]
    )
    assert (metrics.steps, metrics.stages, metrics.f_start, metrics.f_trace,
            metrics.status.value, metrics.stop_reason) == (
        ref["steps"], ref["stages"], ref["f_start"], ref["f_trace"],
        ref["status"], ref["stop_reason"],
    )


@settings(max_examples=300, deadline=None)
@given(
    propagation_cases(),
    st.sampled_from([TimingModel.ASYNCHRONOUS, TimingModel.SEMI_SYNCHRONOUS]),
    st.sampled_from([TieStrategy.PREC, TieStrategy.PREC_MAX]),
    st.integers(0, 2**63),
)
def test_prec_family_converges_within_the_theorem_bound(case, timing, tie, seed):
    # every change raises f, which is at most m, and run checks each step
    g, init, order = case
    coloring = greedy_color(g, order) if timing is TimingModel.SEMI_SYNCHRONOUS else None
    bound = g.m - monochromatic_edge_count(g, init) + 1
    cfg = RunConfig(timing=timing, tie=tie, stop=StopCriterion.NO_CHANGE, seed=seed,
                    step_cap=bound, initial_labels=init)
    state, metrics = run(g, cfg, coloring)
    assert (state.status, state.stop_reason) == (RunStatus.CONVERGED, "no-change")
    assert labels_locally_maximal(g, state.labels)


@pytest.mark.parametrize(
    "kernel", ["off", pytest.param("on", marks=pytest.mark.skipif(not numpy_imports(), reason="needs numpy"))]
)
@settings(max_examples=200, deadline=None)
@given(case=propagation_cases(), data=st.data(), tie=st.sampled_from(every_tie()),
       seed=st.integers(0, 2**63))
def test_semi_sync_theorem_holds_under_any_proper_coloring(kernel, case, data, tie, seed):
    # the convergence proof needs only that no two vertices of a stage are
    # adjacent: run's f check never fires, C1 (and NO_CHANGE under the Prec
    # family) stops within m - f_start + 1 steps, and the Prec family stops
    # at a locally maximal labeling, whatever the proper coloring
    g, init, _ = case
    coloring = data.draw(proper_colorings(g))
    prec_family = tie in (TieStrategy.PREC, TieStrategy.PREC_MAX)
    bound = g.m - monochromatic_edge_count(g, init) + 1
    cfg = RunConfig(timing=TimingModel.SEMI_SYNCHRONOUS, tie=tie,
                    stop=StopCriterion.NO_CHANGE if prec_family else StopCriterion.C1,
                    seed=seed, step_cap=bound, initial_labels=init)
    with pytest.MonkeyPatch.context() as mp:
        if kernel == "on":
            mp.setattr(graphs, "ARRAY_MIN_EDGES", 0)
        state, _ = run(g, cfg, coloring)
    assert state.status is RunStatus.CONVERGED
    if prec_family:
        assert state.stop_reason == "no-change"
        assert labels_locally_maximal(g, state.labels)


@pytest.mark.parametrize("timing", [TimingModel.ASYNCHRONOUS, TimingModel.SEMI_SYNCHRONOUS])
def test_run_raises_when_prec_max_leaves_a_maximal_label(monkeypatch, timing):
    # a Prec-Max that moves from a maximal label to a larger one can leave
    # f flat on a changing step; run must refuse it
    pick = propagation._pick

    def largest(cands, current, tie, stream):
        return cands[-1] if tie is TieStrategy.PREC_MAX else pick(cands, current, tie, stream)

    monkeypatch.setattr(propagation, "_pick", largest)
    g = fixtures.graph("karate")
    rnd = random.Random(0)
    with pytest.raises(MonotoneViolation):
        for seed in range(200):
            init = list(range(g.n))
            rnd.shuffle(init)
            coloring = color_from_labels(g, init) if timing is TimingModel.SEMI_SYNCHRONOUS else None
            run(g, RunConfig(timing=timing, tie=TieStrategy.PREC_MAX, stop=StopCriterion.NO_CHANGE,
                             seed=seed, initial_labels=tuple(init)), coloring)


@settings(max_examples=200, deadline=None)
@given(propagation_cases(), st.sampled_from(every_tie()), st.integers(0, 2**63),
       st.booleans())
def test_step_functions_match_reference(case, tie, seed, pin_order):
    g, init, order = case
    rng = DecisionRng(seed)
    coloring = greedy_color(g, order)
    pinned = order if pin_order else None
    steppers = [
        (
            lambda s: sync_step(g, s, tie, rng),
            lambda labels, k: reference_sync_step(g.adjacency, labels, k, tie.value, rng),
        ),
        (
            lambda s: async_step(g, s, tie, rng, pinned),
            lambda labels, k: reference_async_step(g.adjacency, labels, k, tie.value, rng, pinned),
        ),
        (
            lambda s: semi_sync_step(g, s, coloring, tie, rng),
            lambda labels, k: reference_semi_sync_step(
                g.adjacency, labels, k, coloring.classes, tie.value, rng
            ),
        ),
    ]
    for step, reference in steppers:
        state = initial_state(g, init)
        labels, f_trace = init, ()
        for k in range(1, 4):
            state = step(state)
            labels, changed, tie_changed = reference(labels, k)
            f_trace += (reference_f(g.adjacency, labels),)
            assert state.step == k
            assert _state_fields(state) == (labels, f_trace, changed, tie_changed)
            assert (state.status, state.stop_reason) == (RunStatus.RUNNING, None)


# --- active set and incremental f -----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(propagation_cases(), st.sampled_from(list(TimingModel)), st.sampled_from(every_tie()),
       st.integers(0, 2**63))
def test_incremental_f_matches_recount(case, timing, tie, seed):
    g, init, order = case
    coloring = greedy_color(g, order) if timing is TimingModel.SEMI_SYNCHRONOUS else None
    cfg = RunConfig(timing=timing, tie=tie, stop=StopCriterion.NO_CHANGE, seed=seed,
                    step_cap=20, initial_labels=init)
    states = []  # every state run()'s step functions return
    with pytest.MonkeyPatch.context() as mp:
        for name in ("sync_step", "async_step", "semi_sync_step"):
            def recorded(*args, _step=getattr(propagation, name), **kwargs):
                states.append(_step(*args, **kwargs))
                return states[-1]
            mp.setattr(propagation, name, recorded)
        _, metrics = run(g, cfg, coloring)
    assert len(states) == metrics.steps
    assert metrics.f_trace == tuple(monochromatic_edge_count(g, s.labels) for s in states)


def test_incremental_f_counts_an_edge_between_changed_vertices_once():
    # sync Max moves both ends of the edge 0-1 onto label 2 in one step
    g = fixtures.graph("c4")
    s = sync_step(g, initial_state(g, (0, 1, 2, 2)), TieStrategy.MAX, RNG)
    assert s.labels == (2, 2, 2, 2)
    assert s.last_changed == {0, 1}
    assert (s.f_start, s.f_trace) == (1, (4,))


class CountingRow(tuple):
    """A neighbor row that counts the loops over it."""

    reads = 0

    def __iter__(self):
        CountingRow.reads += 1
        return super().__iter__()


@pytest.mark.parametrize("timing", list(TimingModel))
def test_sweep_reads_each_changed_vertex_row_once(monkeypatch, timing):
    # an evaluation counts a row's labels; a move flags its neighbors and
    # moves f in one more loop over the row, and nothing else reads it
    plain = fixtures.graph("karate")
    g = Graph(plain.n, plain.m, tuple(CountingRow(row) for row in plain.adjacency))
    stages = {
        TimingModel.SYNCHRONOUS: (range(g.n),),
        TimingModel.SEMI_SYNCHRONOUS: greedy_color(plain, range(g.n)).classes,
        TimingModel.ASYNCHRONOUS: list(zip(RNG.step_permutation(1, g.n))),
    }[timing]
    labels = tuple(range(g.n))
    active = bytearray(v % 3 != 0 for v in range(g.n))
    evaluated = []
    count = propagation.neighbor_frequencies

    def counted(graph, v, labels):
        evaluated.append(v)
        return count(graph, v, labels)

    expected_flags = bytearray(active)
    expected = propagation._sweep(plain, labels, stages, TieStrategy.MAX, RNG, 1, expected_flags)
    monkeypatch.setattr(propagation, "neighbor_frequencies", counted)
    monkeypatch.setattr(CountingRow, "reads", 0)
    swept = propagation._sweep(g, labels, stages, TieStrategy.MAX, RNG, 1, active)
    new_labels, f_delta, changed, _ = swept
    assert (swept, active) == (expected, expected_flags)
    assert f_delta == reference_f(plain.adjacency, new_labels) - reference_f(plain.adjacency, labels)
    if timing is TimingModel.SYNCHRONOUS:
        assert any(u in changed for v in changed for u in plain.adjacency[v])
    assert changed and CountingRow.reads == len(evaluated) + len(changed)


@pytest.mark.parametrize("timing", [TimingModel.SEMI_SYNCHRONOUS, TimingModel.ASYNCHRONOUS])
def test_active_set_skips_settled_vertices(monkeypatch, timing):
    g = seeded_graph(2024, 300, 0.02)
    coloring = greedy_color(g, range(g.n)) if timing is TimingModel.SEMI_SYNCHRONOUS else None
    cfg = RunConfig(timing=timing, tie=TieStrategy.PREC_MAX, seed=3)
    evaluated = []
    count = propagation.neighbor_frequencies

    def counted(graph, v, labels):
        evaluated.append(v)
        return count(graph, v, labels)

    monkeypatch.setattr(propagation, "neighbor_frequencies", counted)
    state, metrics = run(g, cfg, coloring)
    assert state.status is RunStatus.CONVERGED and metrics.steps > 2
    assert len(evaluated) < metrics.steps * g.n


@pytest.mark.parametrize("timing", list(TimingModel))
@pytest.mark.parametrize("tie", [TieStrategy.RANDOM, TieStrategy.PREC])
def test_active_set_draws_the_reference_tie_streams(monkeypatch, timing, tie):
    g = fixtures.graph("karate")
    draws = Counter()
    tie_stream = DecisionRng.tie_stream

    def counted(self, step, stage, vertex):
        draws[step, stage, vertex] += 1
        return tie_stream(self, step, stage, vertex)

    monkeypatch.setattr(DecisionRng, "tie_stream", counted)
    for seed in range(5):
        init = tuple(random.Random(seed).sample(range(g.n), g.n))
        semi = timing is TimingModel.SEMI_SYNCHRONOUS
        coloring = color_from_labels(g, init) if semi else None
        cfg = RunConfig(timing=timing, tie=tie, stop=StopCriterion.NO_CHANGE, seed=seed,
                        step_cap=30, initial_labels=init)
        draws.clear()
        run(g, cfg, coloring)
        ours = draws.copy()
        draws.clear()
        reference_run(g.adjacency, timing.value, tie.value, cfg.stop.value, DecisionRng(seed),
                      cfg.step_cap, init, coloring.classes if semi else None)
        assert ours and ours == draws


# --- update-rule conformance -----------------------------------------------------


@pytest.mark.parametrize("timing", list(TimingModel))
@pytest.mark.parametrize("tie", every_tie())
@settings(max_examples=50, deadline=None)
@given(case=propagation_cases(), seed=st.integers(0, 2**63))
def test_every_update_lands_in_argmax(timing, tie, case, seed):
    """run()'s counts equal an independent recount, and every label it
    picks has the maximal count, on every evaluation the active set makes."""
    g, init, order = case
    coloring = greedy_color(g, order) if timing is TimingModel.SEMI_SYNCHRONOUS else None
    cfg = RunConfig(timing=timing, tie=tie, stop=StopCriterion.NO_CHANGE, seed=seed,
                    step_cap=20, initial_labels=init)
    count, choose = propagation.neighbor_frequencies, propagation._pick
    pending = []  # the counts of the vertex being updated
    picks = 0

    def recounted(graph, v, labels):
        counts = count(graph, v, labels)
        assert counts == Counter(labels[u] for u in graph.adjacency[v])
        pending.append(counts)
        return counts

    def checked(cands, current, rule, stream):
        nonlocal picks
        chosen = choose(cands, current, rule, stream)
        counts = pending.pop()
        assert not pending
        assert counts.get(chosen, 0) == max(counts.values())
        picks += 1
        return chosen

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "neighbor_frequencies", recounted)
        mp.setattr(propagation, "_pick", checked)
        run(g, cfg, coloring)
    assert not pending
    assert picks >= sum(1 for neigh in g.adjacency if neigh)  # step 1 evaluates them all


# --- differential against networkx ------------------------------------------------


def test_semi_sync_prec_max_matches_networkx():
    # networkx's label_propagation_communities is the paper's semi-synchronous
    # Prec-Max algorithm: it colors with greedy_color, starts from distinct
    # labels in node order and stops once every label is maximal, which
    # under Prec-Max is the labeling after which a step changes nothing
    nx = pytest.importorskip("networkx")
    for seed in range(200):
        G = nx.gnm_random_graph(60, 150, seed=seed)
        assert list(G) == list(range(60))
        colors = nx.coloring.greedy_color(G)
        stage_of = {}  # networkx's color -> stage, in its first-appearance order
        for color in colors.values():
            stage_of.setdefault(color, len(stage_of))
        color_of = tuple(stage_of[colors[v]] for v in range(60))
        classes = tuple(tuple(v for v in range(60) if color_of[v] == c) for c in range(len(stage_of)))
        cfg = RunConfig(timing=TimingModel.SEMI_SYNCHRONOUS, tie=TieStrategy.PREC_MAX,
                        stop=StopCriterion.NO_CHANGE)
        state, _ = run(Graph.from_edges(60, list(G.edges())), cfg, Coloring(color_of, classes))
        # label groups, not connected components: networkx does not split a
        # disconnected group that shares a label
        groups = {}
        for v, label in enumerate(state.labels):
            groups.setdefault(label, set()).add(v)
        ours = sorted(sorted(group) for group in groups.values())
        theirs = sorted(sorted(c) for c in nx.community.label_propagation_communities(G))
        assert ours == theirs, f"gnm(60, 150, seed={seed})"


def test_async_prec_matches_networkx(monkeypatch):
    # networkx's asyn_lpa_communities is the async algorithm of Raghavan,
    # Albert and Kumara (Phys. Rev. E 76, 036106, 2007): each pass shuffles
    # the nodes, keeps a maximal label, else draws one with seed.choice, and
    # stops after a pass that changes nothing.  From distinct labels in node
    # order that is async Prec stopped by NO_CHANGE, and a seed that replays
    # run's draws makes it take run's path, draw for draw
    nx = pytest.importorskip("networkx")

    class Recording(nx.Graph):
        node = None  # the node whose neighbors networkx read last

        def __getitem__(self, node):
            self.node = node
            return super().__getitem__(node)

    class Replay(random.Random):
        def __init__(self, rng, graph):
            super().__init__(0)
            self.rng, self.graph = rng, graph
            self.steps = self.choices = 0
            self.position = {}

        def shuffle(self, nodes):  # a pass is run's next step
            self.steps += 1
            nodes[:] = self.rng.step_permutation(self.steps, len(nodes))
            self.position = {v: i for i, v in enumerate(nodes)}

        def choice(self, labels):  # the tie stream of the node's stage
            self.choices += 1
            v = self.graph.node
            labels = sorted(labels)
            return labels[self.rng.tie_stream(self.steps, self.position[v], v).below(len(labels))]

    changes = []  # per step of run, its label changes
    step = propagation._step

    def counting(*args):
        state = step(*args)
        changes.append(len(state.last_changed))
        return state

    monkeypatch.setattr(propagation, "_step", counting)
    with_isolated = 0
    for seed in range(400):
        rnd = random.Random(seed)
        n = rnd.randint(1, 60)
        m = rnd.randint(0, min(3 * n, n * (n - 1) // 2))
        G = Recording(nx.gnm_random_graph(n, m, seed=seed))
        assert list(G) == list(range(n))
        with_isolated += any(not G[v] for v in G)
        changes.clear()
        cfg = RunConfig(timing=TimingModel.ASYNCHRONOUS, tie=TieStrategy.PREC,
                        stop=StopCriterion.NO_CHANGE, seed=seed)
        state, metrics = run(Graph.from_edges(n, list(G.edges())), cfg)
        assert state.stop_reason == "no-change"
        groups = {}
        for v, label in enumerate(state.labels):
            groups.setdefault(label, set()).add(v)
        ours = sorted(sorted(group) for group in groups.values())
        replay = Replay(DecisionRng(seed), G)
        theirs = sorted(sorted(c) for c in nx.community.asyn_lpa_communities(G, seed=replay))
        case = f"gnm({n}, {m}, seed={seed})"
        assert ours == theirs, case
        # networkx's call pattern, which the replay relies on: one shuffle per
        # step, and a choice exactly when a node's label is not maximal, so
        # per label change, even where one label is maximal
        assert replay.steps == metrics.steps == len(changes), case
        assert replay.choices == sum(changes), case
    assert with_isolated >= 100
