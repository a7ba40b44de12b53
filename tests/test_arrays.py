"""The numpy passes of _arrays against the Python loops, their reference.

Graphs of at least graphs.ARRAY_MIN_EDGES edges (edge lines, for a
loader) take the array versions of the loaders' assembly, the sync and
semi-sync steps, the list of same-label edges (which the f count, the
coloring's edge check and community extraction read) and extraction's
union-find; the tests move that threshold to pick the
path, and shrink the batches to a few edges so that a pass spans several
of them.
"""

import copy
import inspect
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import time
from collections import Counter
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy", exc_type=ImportError)  # a numpy that fails to import skips, too

import labelprop
from labelprop import _arrays, cli, fixtures, graphs, propagation
from labelprop.coloring import Coloring, color_from_labels, greedy_color
from labelprop.graphs import Graph, GraphParseError, load_edge_list, load_gml
from labelprop.harness import TestSetting, run_experiments
from labelprop.partition import extract_communities, modularity
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
from oracles import random_graph, reference_f
from strategies import decimal_edge_lists, edge_list_documents, edge_list_graphs, gml_documents

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
    return (state.labels, state.step, state.f_start, state.f_trace,
            state.last_changed, state.last_tie_changed, metrics)


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


@st.composite
def step_cases(draw):
    """kernel_cases' graph and labels, any partition of the vertices into
    stages, in any order (stage-mates may be adjacent, and a stage may be
    empty), and any active flags."""
    g, labels, order = draw(kernel_cases())
    bounds = [0, *sorted(draw(st.lists(st.integers(0, g.n), max_size=g.n))), g.n]
    stages = tuple(tuple(order[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    active = bytearray(draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n)))
    return g, labels, stages, active


def test_kernel_and_sweep_take_the_same_parameters():
    kernel, sweep = (inspect.signature(f).parameters for f in (_arrays.step, propagation._sweep))
    assert list(kernel) == list(sweep)


@settings(max_examples=500, deadline=None)
@given(
    step_cases(),
    st.sampled_from(list(TieStrategy)),
    st.integers(0, 2**63),
    st.integers(1, 1000),
    st.sampled_from([1, 3, 1 << 14]),
)
def test_kernel_step_matches_sweep_on_any_stages(case, tie, seed, step_no, batch):
    # flag states and adjacent stage-mates that run() never produces
    g, labels, stages, active = case
    tie_stream = DecisionRng.tie_stream
    outcomes = []
    for stepper in (propagation._sweep, _arrays.step):
        draws = Counter()

        def counted_draw(self, step, stage, vertex):
            draws[step, stage, vertex] += 1
            return tie_stream(self, step, stage, vertex)

        flags = bytearray(active)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DecisionRng, "tie_stream", counted_draw)
            mp.setattr(_arrays, "_BATCH_EDGES", batch)
            stepped = stepper(g, labels, stages, tie, DecisionRng(seed), step_no, flags)
        outcomes.append((stepped, flags, draws))
    assert outcomes[1] == outcomes[0]
    new_labels, f_delta = outcomes[0][0][:2]
    assert f_delta == reference_f(g.adjacency, new_labels) - reference_f(g.adjacency, labels)


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


def _pickled(g):
    return pickle.loads(pickle.dumps(g))


# What the tests compare of a freshly loaded graph: the graph itself (for
# ==), its hash, repr, pickle round trip and deep copy.
_VIEWS = (lambda g: g, hash, repr, _pickled, copy.deepcopy)


def _loaded(load, text):
    """What a load gives, or its error: its graph, report and CSR arrays,
    whether its tuples share one int per vertex id and are kept once read,
    the _VIEWS of fresh loads of it, and whether the loader stored those arrays and not the
    neighbor tuples, for this load and each fresh one."""
    try:
        g, report = load(text)
    except GraphParseError as err:
        return ("error", str(err), err.line)
    fresh = [load(text)[0] for _ in _VIEWS]
    stored = [("csr" in vars(f), "adjacency" not in vars(f)) for f in (g, *fresh)]
    views = [view(f) for view, f in zip(_VIEWS, fresh)]
    Graph(g.n, g.m, g.adjacency, g.external_names)  # the validating constructor accepts it
    entries = [u for row in g.adjacency for u in row]
    shared = len({id(u) for u in entries}) == len(set(entries))
    kept = g.adjacency is g.adjacency
    indptr, indices = g.csr
    arrays = (indptr.tolist(), indices.tolist(), indptr.dtype.name, indices.dtype.name)
    return ("graph", g.external_names, g.adjacency, g.m, report, arrays, shared, kept, views, stored)


def assert_assembly_matches_python(load, text, batch=1 << 14):
    python, arrayed = _python_then_arrays(_loaded, load, text, batch=batch)
    if python[0] == "graph":
        # only the numpy branch stores its arrays, and builds its tuples at
        # their first read; the Python one's arrays come from its tuples
        assert (set(python[-1]), set(arrayed[-1])) == ({(False, False)}, {(True, True)})
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
@given(st.one_of(edge_list_documents, edge_list_graphs()), st.sampled_from([1, 2, 3, 1 << 14]))
def test_edge_list_assembly_matches_python(text, batch):
    assert_assembly_matches_python(load_edge_list, text, batch)


@settings(max_examples=300, deadline=None)
@given(gml_documents(), st.sampled_from([1, 2, 3, 1 << 14]))
def test_gml_assembly_matches_python(text, batch):
    assert_assembly_matches_python(load_gml, text, batch)


def _never_built(csr):
    raise AssertionError("the neighbor tuples were built")


@pytest.mark.parametrize("name, text", [
    ("edges.txt", "a b\nb c\nc a\nd d\ne a\nb a\n"),
    ("lone.txt", "z z\n"),
    ("pair.gml", "graph [ node [ id 1 ] node [ id 2 ] node [ id 3 ] edge [ source 1 target 2 ] ]"),
])
def test_info_reads_degrees_from_the_csr(tmp_path, capsys, monkeypatch, name, text):
    path = tmp_path / name
    path.write_text(text)

    def outputs():
        printed = []
        for fmt in ("json", "csv", "plot-data"):
            assert cli.main(["info", str(path), "--format", fmt]) == 0
            printed.append(capsys.readouterr().out)
        return printed

    monkeypatch.setattr(graphs, "ARRAY_MIN_EDGES", sys.maxsize)
    expected = outputs()
    monkeypatch.setattr(graphs, "ARRAY_MIN_EDGES", 0)
    monkeypatch.setattr(_arrays, "adjacency", _never_built)
    assert outputs() == expected


def test_a_one_shot_run_leaves_a_loaded_graph_without_tuples(monkeypatch):
    text = dump_edge_list(Graph.from_edges(60, random_graph(random.Random(5), 60, 0.1)))

    def one_shot():
        g = load_edge_list(text)[0]
        coloring = color_from_labels(g, list(range(g.n)))
        coloring.check_proper(g)
        outcomes = [coloring]
        for timing, tie, staged in (
            (TimingModel.SEMI_SYNCHRONOUS, TieStrategy.PREC_MAX, coloring),
            (TimingModel.SYNCHRONOUS, TieStrategy.MAX, None),
        ):
            state, metrics = run(g, RunConfig(timing=timing, tie=tie), staged)
            partition = extract_communities(g, state.labels)
            outcomes.append((_outcome(state, metrics), partition, modularity(g, partition)))
        return g, outcomes

    monkeypatch.setattr(graphs, "ARRAY_MIN_EDGES", sys.maxsize)
    expected = one_shot()[1]
    monkeypatch.setattr(graphs, "ARRAY_MIN_EDGES", 0)
    g, outcomes = one_shot()
    assert outcomes == expected
    assert "adjacency" not in vars(g)


@settings(max_examples=300, deadline=None)
@given(kernel_cases(), st.sampled_from([1, 3, 16, 1 << 14]))
def test_greedy_color_reads_the_csr_rows_as_the_tuples(case, batch):
    g, _, order = case
    unbuilt = Graph._trusted(g.n, g.m, None, None, g.csr)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_arrays, "_BATCH_EDGES", batch)
        assert greedy_color(unbuilt, order) == greedy_color(g, order)
    assert "adjacency" not in vars(unbuilt)


def test_experiments_fork_with_the_tuples_built(monkeypatch):
    karate = fixtures.load("karate")[0]
    monkeypatch.setattr(graphs, "ARRAY_MIN_EDGES", 0)
    g = load_edge_list(dump_edge_list(karate))[0]
    assert "adjacency" not in vars(g)
    built = []
    fork = os.fork

    def spy():
        built.append("adjacency" in vars(g))
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", spy)
    setting = TestSetting(timing=TimingModel.SEMI_SYNCHRONOUS, network=g, tie=TieStrategy.PREC_MAX, trials=4)
    split = run_experiments([setting])
    assert built == [True]
    assert split == run_experiments([TestSetting(setting.timing, karate, setting.tie, setting.trials)])


def _edge_list_outcome(source):
    """What load_edge_list gives: its graph's names, adjacency and m and its
    report, or its error's message and line."""
    try:
        g, report = load_edge_list(source)
    except GraphParseError as err:
        return ("error", str(err), err.line)
    return ("graph", g.external_names, g.adjacency, g.m, report)


@settings(max_examples=400, deadline=None)
@given(decimal_edge_lists(), st.sampled_from([1, 2, 7, _arrays._READ_WINDOW]))
def test_edge_list_reader_matches_line_loop(text, window):
    # a str and a StringIO, whose lines end at LF alone, each against the
    # line loop on the same source
    for make in (lambda: text, lambda: StringIO(text)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "ARRAY_MIN_EDGES", sys.maxsize)
            expected = _edge_list_outcome(make())
            mp.setattr(graphs, "ARRAY_MIN_EDGES", 0)
            mp.setattr(_arrays, "_READ_WINDOW", window)
            assert _edge_list_outcome(make()) == expected


@pytest.mark.parametrize("window", [1, 2, 7, 1 << 18])
def test_reader_reads_decimal_lines_in_numpy(monkeypatch, window):
    monkeypatch.setattr(_arrays, "_READ_WINDOW", window)
    # the header, blank and comment lines at the top, does not send a window to the line loop
    text = "# header\n\n  # more\n5 3\n3\t0 \r\n0 5\n18 5"
    ids, ends, lineno, rest = _arrays.read_edge_lines(StringIO(text))
    assert (ids, ends.typecode, ends.itemsize) == ({"5": 0, "3": 1, "0": 2, "18": 3}, "i", 4)
    assert ends.tolist() == [0, 1, 1, 2, 2, 0, 3, 0]
    assert (lineno, rest) == (7, ())


def test_reader_hands_the_failing_window_and_the_rest_to_the_line_loop(monkeypatch):
    monkeypatch.setattr(_arrays, "_READ_WINDOW", 4)
    ids, ends, lineno, rest = _arrays.read_edge_lines(StringIO("5 3\n3 x\n7 5\n"))
    assert (ids, ends, lineno, list(rest)) == ({"5": 0, "3": 1}, [0, 1], 1, ["3 x\n", "7 5\n"])


@pytest.mark.parametrize("window", [
    "0 1\n", "123456789012345678 999999999999999999\n", "1\t2 \r\n", "1 2", " 1  2\n3 4\n",
])
def test_decimal_pairs_reads_canonical_decimals(window):
    assert _arrays._decimal_pairs(window).tolist() == [int(token) for token in window.split()]


@pytest.mark.parametrize("window", [
    "00 1\n", "007 7\n", "1000000000000000000 1\n", "18446744073709551616 1\n", "1 2 3\n", "1\n",
    "1 2\n\n", "1 2\n3\n", "1 2 3\n4\n", "\n", "1\x0c2\n", "1\xa02\n", "1\u30002\n", "# 1\n", "-1 2\n",
    "+1 2\n", "1 2\x1c\n",
])
def test_decimal_pairs_leaves_any_other_window_to_the_line_loop(window):
    assert _arrays._decimal_pairs(window) is None


class _RecordedFile:
    """A text file that records its read and readline calls."""

    def __init__(self, file):
        self.file, self.calls = file, []

    def fileno(self):
        return self.file.fileno()

    def read(self, size=-1):
        self.calls.append(("read", size))
        return self.file.read(size)

    def readline(self, size=-1):
        line = self.file.readline(size)
        self.calls.append(("readline", len(line)))
        return line

    def __iter__(self):
        return iter(self.file)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


def test_a_file_is_read_in_windows_never_whole(tmp_path, monkeypatch):
    # through cli.load_graph, as a command opens it
    path = tmp_path / "g.txt"
    path.write_text("# header\n" + "".join(f"{v} {v * 7 % 1000}\n" for v in range(1000)))
    opened = []

    class RecordingPath(type(path)):
        def open(self, *args, **kwargs):
            opened.append(_RecordedFile(super().open(*args, **kwargs)))
            return opened[-1]

    expected = cli.load_graph(str(path))[:2]
    monkeypatch.setattr(cli, "Path", RecordingPath)
    monkeypatch.setattr(graphs, "ARRAY_MIN_EDGES", 0)
    monkeypatch.setattr(_arrays, "_READ_WINDOW", 500)
    g, report, _ = cli.load_graph(str(path))
    assert (g, report) == expected and "csr" in vars(g)
    (file,) = opened
    reads = [size for call, size in file.calls if call == "read"]
    assert set(reads) == {500} and len(reads) == path.stat().st_size // 500 + 2
    assert max(size for call, size in file.calls if call == "readline") < 10  # the rest of one line


def test_assembly_shares_one_int_per_vertex_and_keys_grow_to_int64():
    # 50,000 vertices: n * n passes 2**31, so the keys take 64 bits; paths
    # of three put each middle vertex, most of them above the small-int
    # cache, in two rows
    paths = [(v, v + 1) for v in range(0, 49_998, 7)] + [(v + 1, v + 2) for v in range(0, 49_998, 7)]
    g = Graph.from_edges(50_000, paths + [(0, 49_999), (3, 30_000)])
    text = dump_edge_list(g)
    python, arrayed = _python_then_arrays(load_edge_list, text)
    indptr, indices = arrayed[0].csr
    assert (indptr.dtype.name, indices.dtype.name) == ("int64", "int32")
    assert "adjacency" not in vars(arrayed[0])
    entries = [u for a in arrayed[0].adjacency for u in a]  # the tuples built at first use
    assert len({id(u) for u in entries}) == len(set(entries))
    assert arrayed[0] == python[0] and arrayed[1] == python[1]


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
from labelprop import cli, fixtures, graphs
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["experiment", "karate", "--all-ties", "--both-timings", "--trials", "3"]) == 0
    for name in fixtures.names():
        for timing in ("sync", "async", "semi-sync"):
            assert cli.main(["run", name, "--timing", timing, "--tie", "max", "--stop", "c2"]) in (0, 2)
        assert cli.main(["info", name]) == 0
# An integer edge list one byte too small to hold ARRAY_MIN_EDGES lines of
# 4 characters (the last one 3): it is read by the line loop.
path = sys.argv[1]
size = 4 * graphs.ARRAY_MIN_EDGES - 2
text = "".join(f"{v} {v + 1}\\n" for v in range(size // 8))
text = text[:text.rindex("\\n", 0, size - 1)].ljust(size - 1) + "\\n"  # trailing spaces on the last line
with open(path, "w") as out:
    out.write(text)
m = text.count("\\n")
assert cli.load_graph(path)[0].m == m
assert "numpy" not in sys.modules, "numpy was imported"
with open(path, "a") as out:  # one more byte, and it is read in numpy
    out.write(" ")
assert cli.load_graph(path)[0].m == m
assert "labelprop._arrays" in sys.modules
"""


def test_fixtures_never_import_numpy(tmp_path):
    # fixture-sized graphs and edge-list files too small to hold
    # ARRAY_MIN_EDGES lines stay below the arrays' threshold: importing
    # numpy would cost them more time and memory than the arrays save
    src = str(Path(labelprop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT, str(tmp_path / "g.txt")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
