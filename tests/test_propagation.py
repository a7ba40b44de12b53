import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelprop import fixtures
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
    async_step,
    check_c1,
    check_c2,
    initial_state,
    labels_locally_maximal,
    monochromatic_edge_count,
    neighbor_frequencies,
    resolve,
    run,
    semi_sync_step,
    stage_count,
    sync_step,
)
from labelprop.rng import Stream

from oracles import (
    random_graph,
    reference_async_step,
    reference_f,
    reference_run,
    reference_semi_sync_step,
    reference_sync_step,
    staged_precmax_oracle,
)

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


# --- resolve ---------------------------------------------------------------


@pytest.mark.parametrize("tie", every_tie())
def test_resolve_unique_argmax(tie):
    assert resolve({5: 3, 9: 1}, current=0, tie=tie, stream=Stream(0)) == 5


def test_resolve_prec_keeps_current():
    assert resolve({5: 2, 9: 2}, current=9, tie=TieStrategy.PREC) == 9


def test_resolve_max_takes_highest():
    assert resolve({5: 2, 9: 2}, current=3, tie=TieStrategy.MAX) == 9


def test_resolve_prec_max_composition():
    # prec does not apply (3 not maximal), so the max rule decides
    assert resolve({5: 2, 9: 2}, current=3, tie=TieStrategy.PREC_MAX) == 9
    assert resolve({5: 2, 9: 2}, current=5, tie=TieStrategy.PREC_MAX) == 5


def test_resolve_empty_table_rejected():
    with pytest.raises(ValueError):
        resolve({}, current=0, tie=TieStrategy.MAX)


def test_resolve_random_needs_stream():
    with pytest.raises(ValueError):
        resolve({1: 1, 2: 1}, current=1, tie=TieStrategy.RANDOM, stream=None)


def test_resolve_random_is_roughly_uniform():
    counts = Counter(
        resolve({1: 1, 2: 1, 5: 1}, current=9, tie=TieStrategy.RANDOM, stream=Stream(i))
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
def test_resolve_always_returns_argmax_member(freqs, current, tie, seed):
    best = max(freqs.values())
    chosen = resolve(freqs, current, tie, Stream(seed))
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


def test_async_step_rejects_bad_order():
    g = fixtures.graph("path3")
    with pytest.raises(ValueError):
        async_step(g, initial_state(g), TieStrategy.MAX, RNG, order=[0, 1])


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


def test_check_c1_no_changes():
    g = fixtures.graph("c4")
    assert check_c1(g, (1, 2, 3, 4), (1, 2, 3, 4), frozenset())


def test_check_c1_rejects_non_tie_change():
    g = fixtures.graph("c4")
    # sync max on (3,2,3,2): every change has a unique argmax
    assert not check_c1(g, (3, 2, 3, 2), (2, 3, 2, 3), frozenset())


def test_check_c1_accepts_all_tie_changes():
    g = fixtures.graph("c4")
    assert check_c1(g, (3, 2, 3, 2), (2, 3, 2, 3), frozenset({0, 1, 2, 3}))


def test_check_c2_immediate_repeat():
    assert check_c2([(1, 1), (1, 1)])


def test_check_c2_period_two_orbit():
    history = [(3, 2, 3, 2), (2, 3, 2, 3), (3, 2, 3, 2)]
    assert check_c2(history)


def test_check_c2_three_distinct():
    assert not check_c2([(1, 2), (2, 1), (1, 1)])


def test_check_c2_reports_the_period():
    assert check_c2([(1, 2), (1, 2)]) == 1
    assert check_c2([(1, 2), (2, 1), (1, 2)]) == 2
    assert check_c2([(1, 2), (2, 1), (1, 1)]) == 0
    assert check_c2([(2, 1), (1, 1)]) == 0


def test_check_c2_needs_history():
    with pytest.raises(ValueError):
        check_c2([(1, 2)])


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
        _check_monotone(bad)


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


# --- update-rule conformance -----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**63), st.sampled_from(every_tie()))
def test_every_update_lands_in_argmax(graph_seed, run_seed, tie):
    rnd = random.Random(graph_seed)
    n = rnd.randint(2, 9)
    g = Graph.from_edges(n, random_graph(rnd, n, 0.5))
    init = list(range(n))
    rnd.shuffle(init)
    state = initial_state(g, init)
    rng = DecisionRng(run_seed)
    for _ in range(3):
        before = state.labels
        state = sync_step(g, state, tie, rng)
        for v in state.last_changed:
            freqs = neighbor_frequencies(g, v, before)
            assert freqs[state.labels[v]] == max(freqs.values())


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
