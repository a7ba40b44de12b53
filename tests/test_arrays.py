"""The numpy passes of _arrays against the Python loops, their reference.

Graphs of at least graphs.ARRAY_MIN_EDGES edges (edge lines, for a
loader) take the array versions of the loaders' assembly, the sync and
semi-sync steps, the list of same-label edges (which the f count, the
coloring's edge check and community extraction read) and extraction's
union-find; the tests move that threshold to pick the
path, and shrink the batches to a few edges so that a pass spans several
of them.
"""

import itertools
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

import labelprop
from labelprop import _arrays, graphs, propagation
from labelprop.coloring import Coloring, greedy_color
from labelprop.graphs import Graph, GraphParseError, load_edge_list, load_gml
from labelprop.partition import extract_communities
from labelprop.propagation import (
    DecisionRng,
    RunConfig,
    StopCriterion,
    TieStrategy,
    TimingModel,
    monochromatic_edge_count,
    run,
)

from helpers import dump_edge_list
from oracles import random_graph
from strategies import edge_list_documents, edge_list_graphs, gml_documents

STAGED_TIMINGS = [TimingModel.SYNCHRONOUS, TimingModel.SEMI_SYNCHRONOUS]


@st.composite
def kernel_cases(draw):
    """A graph (isolated vertices likely), initial labels that may repeat,
    may reach 2**32 and now and then hold one label beyond int64 or one
    that is not an integer (which run() refuses), and a coloring order."""
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
    odd = draw(st.integers(0, 7))
    if odd == 0:
        labels[draw(st.integers(0, n - 1))] = 2**63 + draw(st.integers(0, n))
    elif odd == 1:
        labels[draw(st.integers(0, n - 1))] += 0.5
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
    if not all(type(label) is int for label in init):
        with pytest.raises(ValueError, match=r"^labels must be non-negative integers$"):
            run(g, cfg, coloring)
        return
    draws = Counter()
    tie_stream = DecisionRng.tie_stream

    def counted_draw(self, step, stage, vertex):
        draws[step, stage, vertex] += 1
        return tie_stream(self, step, stage, vertex)

    kernel_steps = []
    kernel_step = _arrays.step

    def counted_step(*args):
        kernel_steps.append(args[5])
        return kernel_step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DecisionRng, "tie_stream", counted_draw)
        mp.setattr(graphs, "ARRAY_MIN_EDGES", g.m + 1)
        swept = _outcome(*run(g, cfg, coloring))
        swept_draws = draws.copy()
        draws.clear()
        mp.setattr(graphs, "ARRAY_MIN_EDGES", 0)
        mp.setattr(_arrays, "_BATCH_EDGES", batch)
        mp.setattr(_arrays, "step", counted_step)
        arrayed = _outcome(*run(g, cfg, coloring))
    assert arrayed == swept
    assert draws == swept_draws
    # the kernel takes every step, a label beyond int64 included
    assert kernel_steps == list(range(1, swept[1] + 1))


def test_kernel_matches_sweep_on_a_graph_above_the_batch_size():
    g = Graph.from_edges(400, random_graph(random.Random(8), 400, 0.05))
    for timing, tie in itertools.product(STAGED_TIMINGS, TieStrategy):
        coloring = greedy_color(g, range(g.n)) if timing is TimingModel.SEMI_SYNCHRONOUS else None
        cfg = RunConfig(timing=timing, tie=tie, stop=StopCriterion.NO_CHANGE, seed=5, step_cap=50)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "ARRAY_MIN_EDGES", g.m + 1)
            swept = _outcome(*run(g, cfg, coloring))
            mp.setattr(graphs, "ARRAY_MIN_EDGES", 0)
            mp.setattr(_arrays, "_BATCH_EDGES", 500)
            assert _outcome(*run(g, cfg, coloring)) == swept


def _python_then_arrays(fn, *args, batch=1 << 14):
    """fn(*args) with the threshold above every graph, then at 0 with
    batches of `batch` edges."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "ARRAY_MIN_EDGES", sys.maxsize)
        python = fn(*args)
        mp.setattr(graphs, "ARRAY_MIN_EDGES", 0)
        mp.setattr(_arrays, "_BATCH_EDGES", batch)
        return python, fn(*args)


def _loaded(load, text):
    """What a load gives: its graph, report and CSR arrays, whether the
    loader stored those arrays, or its error."""
    try:
        g, report = load(text)
    except GraphParseError as err:
        return ("error", str(err), err.line)
    stored = "csr" in vars(g)
    Graph(g.n, g.m, g.adjacency, g.external_names)  # the validating constructor accepts it
    indptr, indices = g.csr
    arrays = (indptr.tolist(), indices.tolist(), indptr.dtype.name, indices.dtype.name)
    return ("graph", g.external_names, g.adjacency, g.m, report, arrays, stored)


def assert_assembly_matches_python(load, text, batch=1 << 14):
    python, arrayed = _python_then_arrays(_loaded, load, text, batch=batch)
    if python[0] == "graph":
        # only the numpy branch stores its arrays; the Python one's come from the tuples
        assert (python[-1], arrayed[-1]) == (False, True)
        python, arrayed = python[:-1], arrayed[:-1]
    assert arrayed == python


ASSEMBLY_CASES = {
    "self-loops only": (load_edge_list, "a a\nb b\na a\n"),
    "isolated v v vertices": (load_edge_list, "a a\nb c\nd d\nc b\ne e\n"),
    "duplicates both ways": (load_edge_list, "a b\nb a\na b\nb c\nc b\nc c\n"),
    "gml self-loop only": (load_gml, "graph [ node [ id 1 ] edge [ source 1 target 1 ] ]"),
    "gml duplicates": (
        load_gml,
        "graph [ directed 1 node [ id 1 ] node [ id 2 ] node [ id 3 ]"
        " edge [ source 1 target 2 ] edge [ source 2 target 1 ] edge [ source 2 target 2 ] ]",
    ),
}


@pytest.mark.parametrize("load, text", ASSEMBLY_CASES.values(), ids=list(ASSEMBLY_CASES))
@pytest.mark.parametrize("batch", [1, 1 << 14])
def test_assembly_matches_python_on_edge_cases(load, text, batch):
    assert_assembly_matches_python(load, text, batch)


@settings(max_examples=300, deadline=None)
@given(st.one_of(edge_list_documents, edge_list_graphs()), st.sampled_from([1, 2, 1 << 14]))
def test_edge_list_assembly_matches_python(text, batch):
    assert_assembly_matches_python(load_edge_list, text, batch)


@settings(max_examples=300, deadline=None)
@given(gml_documents(), st.sampled_from([1, 2, 1 << 14]))
def test_gml_assembly_matches_python(text, batch):
    assert_assembly_matches_python(load_gml, text, batch)


def test_assembly_shares_one_int_per_vertex_and_keys_grow_to_int64():
    # 50,000 vertices: n * n passes 2**31, so the keys take 64 bits
    g = Graph.from_edges(50_000, [(v, v + 1) for v in range(0, 49_999, 7)] + [(0, 49_999), (3, 30_000)])
    text = dump_edge_list(g)
    python, arrayed = _python_then_arrays(load_edge_list, text)
    assert arrayed[0] == python[0] and arrayed[1] == python[1]
    indptr, indices = arrayed[0].csr
    assert (indptr.dtype.name, indices.dtype.name) == ("int64", "int32")
    entries = [u for a in arrayed[0].adjacency for u in a]
    assert len({id(u) for u in entries}) == len(set(entries))


def _label_passes(g, labels, order):
    """The f count, the partition, and the outcome of checking a greedy
    coloring and one coloring by label (improper unless no edge is
    monochromatic)."""
    distinct = {label: c for c, label in enumerate(sorted(set(labels)))}
    by_label = Coloring(
        color_of=tuple(distinct[label] for label in labels),
        classes=tuple(tuple(v for v in range(g.n) if labels[v] == label) for label in distinct),
    )
    checks = []
    for coloring in (greedy_color(g, order), by_label):
        try:
            coloring.check_proper(g)
            checks.append(None)
        except ValueError as err:
            checks.append(str(err))
    return monochromatic_edge_count(g, labels), extract_communities(g, labels), checks


@settings(max_examples=400, deadline=None)
@given(kernel_cases(), st.sampled_from([1, 3, 16, 1 << 14]))
def test_label_passes_match_python(case, batch):
    g, labels, order = case
    ran = []
    originals = {name: getattr(_arrays, name) for name in ("same_label_edges", "communities")}

    def recorded(name):
        def call(*args):
            ran.append(name)
            return originals[name](*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in originals:
            mp.setattr(_arrays, name, recorded(name))
        python, arrayed = _python_then_arrays(_label_passes, g, labels, order, batch=batch)
    assert arrayed == python
    # both coloring checks, the f count, then extraction, whatever the labels
    assert ran == ["same_label_edges"] * 4 + ["communities"]
    by_label_check = python[2][1]
    if python[0]:  # a monochromatic edge, which the check names exactly on both paths
        assert re.fullmatch(r"edge \{\d+, \d+\} is monochromatic under the coloring", by_label_check)
    else:
        assert by_label_check is None


@pytest.mark.parametrize("numbering", ["sorted", "reversed", "zig-zag", "random"])
def test_extraction_on_long_paths_is_bounded(numbering):
    # 200,000 vertices, above the threshold, all of one label: one community
    # whose hooking takes at most 2 * log2(n) rounds (see _arrays.communities)
    n = 200_000
    order = list(range(n))
    if numbering == "reversed":
        order.reverse()
    elif numbering == "zig-zag":
        order = [v ^ 1 for v in order]
    elif numbering == "random":
        random.Random(4).shuffle(order)
    g = Graph.from_edges(n, [tuple(sorted(pair)) for pair in zip(order, order[1:])])
    assert g.m >= graphs.ARRAY_MIN_EDGES
    g.csr
    start = time.perf_counter()
    partition = extract_communities(g, [7] * n)
    elapsed = time.perf_counter() - start
    (community,) = partition.communities
    assert (community.size, community.internal_edges, community.degree_sum) == (n, n - 1, 2 * (n - 1))
    assert elapsed < 1.0


def test_without_numpy_run_sweeps(monkeypatch):
    g = Graph.from_edges(40, random_graph(random.Random(3), 40, 0.15))
    text = dump_edge_list(g)
    cases = []
    for timing, tie in itertools.product(STAGED_TIMINGS, TieStrategy):
        coloring = greedy_color(g, range(g.n)) if timing is TimingModel.SEMI_SYNCHRONOUS else None
        cases.append((RunConfig(timing=timing, tie=tie, seed=9), coloring))

    def outcomes():
        runs = [run(g, cfg, coloring) for cfg, coloring in cases]
        loaded = load_edge_list(text)
        return ([_outcome(*r) for r in runs], [extract_communities(g, s.labels) for s, _ in runs],
                loaded, "csr" in vars(loaded[0]))

    expected = outcomes()
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "labelprop._arrays")
    monkeypatch.delattr(labelprop, "_arrays")
    monkeypatch.setattr(graphs, "ARRAY_MIN_EDGES", 0)
    assert outcomes() == expected
    assert "labelprop._arrays" not in sys.modules


_NO_NUMPY_SCRIPT = """
import contextlib, io, sys
from labelprop import cli, fixtures
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["experiment", "karate", "--all-ties", "--both-timings", "--trials", "3"]) == 0
    for name in fixtures.names():
        for timing in ("sync", "async", "semi-sync"):
            assert cli.main(["run", name, "--timing", timing, "--tie", "max", "--stop", "c2"]) in (0, 2)
        assert cli.main(["info", name]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_fixtures_never_import_numpy():
    # fixture-sized graphs stay below the arrays' threshold: importing numpy
    # would cost them more time and memory than the arrays save
    src = str(Path(labelprop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
