"""The numpy array kernel against the pure sweep, its reference.

run() takes the kernel for sync and semi-sync steps on graphs of at least
propagation.ARRAY_MIN_EDGES edges; the tests move that threshold to pick
the path, and shrink the kernel's batches to a few edges so that a stage
spans several of them.
"""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

import labelprop
from labelprop import _arrays, propagation
from labelprop.coloring import greedy_color
from labelprop.graphs import Graph
from labelprop.propagation import (
    DecisionRng,
    RunConfig,
    StopCriterion,
    TieStrategy,
    TimingModel,
    run,
)

from oracles import random_graph

STAGED_TIMINGS = [TimingModel.SYNCHRONOUS, TimingModel.SEMI_SYNCHRONOUS]


@st.composite
def kernel_cases(draw):
    """A graph (isolated vertices likely), initial labels that may repeat,
    may reach 2**32 and now and then hold one label beyond int64, and a
    coloring order."""
    n = draw(st.integers(1, 24))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
    labels = draw(
        st.one_of(
            st.permutations(range(n)),
            st.lists(st.integers(0, n), min_size=n, max_size=n),
        )
    )
    scale = draw(st.sampled_from([1, 2**32 + 1]))
    labels = [label * scale for label in labels]
    if draw(st.integers(0, 7)) == 0:
        labels[draw(st.integers(0, n - 1))] = 2**63 + draw(st.integers(0, n))
    order = draw(st.permutations(range(n)))
    return Graph.from_edges(n, edges), tuple(labels), order


def _outcome(state, metrics):
    # frozensets compare as sets; their iteration order (and so a repr)
    # depends on insertion order, which differs between the two paths
    return (state.labels, state.step, state.f_start, state.f_trace, state.status,
            state.stop_reason, state.last_changed, state.last_tie_changed, metrics)


@settings(max_examples=400, deadline=None)
@given(
    kernel_cases(),
    st.sampled_from(STAGED_TIMINGS),
    st.sampled_from(list(TieStrategy)),
    st.sampled_from(list(StopCriterion)),
    st.integers(0, 2**63),
    st.integers(1, 30),
    st.sampled_from([1, 3, 16, 1 << 14]),
)
def test_kernel_matches_sweep(case, timing, tie, stop, seed, cap, batch):
    g, init, order = case
    coloring = greedy_color(g, order) if timing is TimingModel.SEMI_SYNCHRONOUS else None
    cfg = RunConfig(timing=timing, tie=tie, stop=stop, seed=seed, step_cap=cap,
                    initial_labels=init)
    draws = Counter()
    tie_stream = DecisionRng.tie_stream

    def counted_draw(self, step, stage, vertex):
        draws[step, stage, vertex] += 1
        return tie_stream(self, step, stage, vertex)

    kernel_ran = []
    kernel_step = _arrays.step

    def counted_step(*args):
        stepped = kernel_step(*args)
        kernel_ran.append(stepped is not None)
        return stepped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DecisionRng, "tie_stream", counted_draw)
        mp.setattr(propagation, "ARRAY_MIN_EDGES", g.m + 1)
        swept = _outcome(*run(g, cfg, coloring))
        swept_draws = draws.copy()
        draws.clear()
        mp.setattr(propagation, "ARRAY_MIN_EDGES", 0)
        mp.setattr(_arrays, "_BATCH_EDGES", batch)
        mp.setattr(_arrays, "step", counted_step)
        arrayed = _outcome(*run(g, cfg, coloring))
    assert arrayed == swept
    assert draws == swept_draws
    assert len(kernel_ran) == swept[1]
    if max(init) < 2**63:
        assert all(kernel_ran)
    else:  # beyond int64: the sweep takes at least the first step
        assert not kernel_ran[0]


def test_kernel_matches_sweep_on_a_graph_above_the_batch_size():
    g = Graph.from_edges(400, random_graph(random.Random(8), 400, 0.05))
    for timing, tie in itertools.product(STAGED_TIMINGS, TieStrategy):
        coloring = greedy_color(g, range(g.n)) if timing is TimingModel.SEMI_SYNCHRONOUS else None
        cfg = RunConfig(timing=timing, tie=tie, stop=StopCriterion.NO_CHANGE, seed=5, step_cap=50)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagation, "ARRAY_MIN_EDGES", g.m + 1)
            swept = _outcome(*run(g, cfg, coloring))
            mp.setattr(propagation, "ARRAY_MIN_EDGES", 0)
            mp.setattr(_arrays, "_BATCH_EDGES", 500)
            assert _outcome(*run(g, cfg, coloring)) == swept


def test_without_numpy_run_sweeps(monkeypatch):
    g = Graph.from_edges(40, random_graph(random.Random(3), 40, 0.15))
    cases = []
    for timing, tie in itertools.product(STAGED_TIMINGS, TieStrategy):
        coloring = greedy_color(g, range(g.n)) if timing is TimingModel.SEMI_SYNCHRONOUS else None
        cases.append((RunConfig(timing=timing, tie=tie, seed=9), coloring))
    expected = [_outcome(*run(g, cfg, coloring)) for cfg, coloring in cases]
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "labelprop._arrays")
    monkeypatch.delattr(labelprop, "_arrays")
    monkeypatch.setattr(propagation, "ARRAY_MIN_EDGES", 0)
    assert [_outcome(*run(g, cfg, coloring)) for cfg, coloring in cases] == expected
    assert "labelprop._arrays" not in sys.modules


_NO_NUMPY_SCRIPT = """
import contextlib, io, sys
from labelprop import cli, fixtures
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["experiment", "karate", "--all-ties", "--both-timings", "--trials", "3"]) == 0
    for name in fixtures.names():
        for timing in ("sync", "async", "semi-sync"):
            assert cli.main(["run", name, "--timing", timing, "--tie", "max", "--stop", "c2"]) in (0, 2)
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_fixtures_never_import_numpy():
    # karate-sized runs stay below the kernel's threshold: importing numpy
    # would cost them more time and memory than the kernel saves
    src = str(Path(labelprop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
