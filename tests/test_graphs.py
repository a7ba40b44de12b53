import os
import re
import subprocess
import sys
import time
from io import StringIO
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import dump_edge_list
from strategies import edge_list_documents, edge_list_graphs, gml_documents, gml_runs

from labelprop import cli, fixtures, graphs
from labelprop.graphs import (
    Graph,
    GraphParseError,
    LoadReport,
    load_edge_list,
    load_gml,
)


def test_triangle_edge_list():
    g, report = load_edge_list("0 1\n1 2\n2 0\n")
    assert (g.n, g.m) == (3, 3)
    assert g.max_degree() == 2
    assert report.self_loops_dropped == 0
    assert report.duplicate_edges_dropped == 0


def test_dedup_and_self_loop_rules():
    g, report = load_edge_list("a b\nb a\na a\n")
    assert (g.n, g.m) == (2, 1)
    assert report.self_loops_dropped == 1
    assert report.duplicate_edges_dropped == 1
    assert g.external_names == ("a", "b")


def test_self_loop_only_token_becomes_isolated_vertex():
    g, _ = load_edge_list("a b\nc c\n")
    assert g.n == 3
    assert g.degree(2) == 0


def test_comments_and_blank_lines_skipped():
    g, _ = load_edge_list("# header\n\n0 1\n   \n# tail\n1 2\n")
    assert (g.n, g.m) == (3, 2)


def test_file_like_input():
    g, _ = load_edge_list(StringIO("0 1\n"))
    assert (g.n, g.m) == (2, 1)


def test_malformed_line_reports_line_number():
    with pytest.raises(GraphParseError) as err:
        load_edge_list("0 1\n0 1 2\n")
    assert "line 2" in str(err.value)
    assert err.value.line == 2


def test_empty_input_rejected():
    with pytest.raises(GraphParseError):
        load_edge_list("# nothing here\n")


def test_loading_twice_is_deterministic():
    text = fixtures.fixture_text("karate")
    a, _ = load_edge_list(text)
    b, _ = load_edge_list(text)
    assert a == b


def test_karate_fixture_statistics():
    g = fixtures.graph("karate")
    assert (g.n, g.m) == (34, 78)
    assert g.max_degree() == 17
    assert g.degree(0) == 16


@pytest.mark.parametrize("name", fixtures.names())
def test_fixture_invariants(name):
    g, report = fixtures.load(name)
    assert report == LoadReport()
    seen: set[str] = set()
    for line in fixtures.fixture_text(name).splitlines():
        if line and not line.startswith("#"):
            a, b = line.split()
            assert a != b or a not in seen, f"{line!r} is a self-loop, not a vertex declaration"
            seen.update((a, b))
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m
    for v in range(g.n):
        assert v not in g.adjacency[v]
        for u in g.adjacency[v]:
            assert v in g.adjacency[u]


def test_unknown_fixture_names_the_available_ones():
    available = ", ".join(fixtures.names())
    with pytest.raises(KeyError, match=re.escape(f"unknown fixture 'nope'; available: {available}")):
        fixtures.fixture_text("nope")


def test_star_degrees():
    g = fixtures.graph("star4")
    assert g.degree(0) == 3
    assert g.max_degree() == 3
    assert [g.degree(v) for v in (1, 2, 3)] == [1, 1, 1]


def test_degree_out_of_range():
    g = fixtures.graph("c4")
    with pytest.raises(IndexError):
        g.degree(4)


@pytest.mark.parametrize("name", fixtures.names())
def test_round_trip_preserves_dense_ids(name):
    g = fixtures.graph(name)
    reloaded, _ = load_edge_list(dump_edge_list(g))
    assert reloaded.adjacency == g.adjacency
    assert reloaded.m == g.m


def test_round_trip_keeps_isolated_vertices():
    g = Graph.from_edges(5, [(1, 3), (2, 3)])  # 0 and 4 isolated
    reloaded, _ = load_edge_list(dump_edge_list(g))
    assert reloaded.n == 5
    assert reloaded.adjacency == g.adjacency


def test_from_edges_rejects_dirty_input():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])


def test_csr_lists_the_adjacency_and_is_built_once():
    np = pytest.importorskip("numpy", exc_type=ImportError)
    g = Graph.from_edges(5, [(1, 3), (2, 3), (0, 3)])  # 4 isolated
    indptr, indices = g.csr
    assert g.csr[1] is indices
    assert indices.dtype == np.int32
    assert [tuple(indices[indptr[v]:indptr[v + 1]].tolist()) for v in range(g.n)] == list(g.adjacency)


def test_edges_iterates_each_edge_once():
    g = fixtures.graph("triangles-bridge")
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]


def _load_outcome(load, source):
    try:
        return ("graph", *load(source))
    except (GraphParseError, oracles.OracleParseError) as err:
        return ("error", str(err), err.line)


def _load_edge_list_summary(source):
    g, r = load_edge_list(source)
    report = (r.self_loops_dropped, r.duplicate_edges_dropped, r.symmetrized, r.weights_ignored)
    return g.external_names, g.adjacency, g.m, report


def assert_edge_list_matches_oracle(text):
    # a str reads as a file opened in text mode (newline=None) reads it; a
    # StringIO of the default newline="\n" ends lines at LF alone
    expected = _load_outcome(oracles.edge_list_oracle, text)
    assert _load_outcome(_load_edge_list_summary, text) == expected
    assert _load_outcome(_load_edge_list_summary, StringIO(text, newline=None)) == expected
    expected = _load_outcome(oracles.edge_list_oracle, StringIO(text))
    assert _load_outcome(_load_edge_list_summary, StringIO(text)) == expected


@settings(max_examples=500, deadline=None)
@given(st.one_of(edge_list_documents, edge_list_graphs()))
def test_edge_list_matches_reference_loader(text):
    assert_edge_list_matches_oracle(text)


@pytest.mark.parametrize("load, text", [
    (load_edge_list, "a b\rc d\n"),
    (load_edge_list, "1 2\r\n2 3\r3 4 5\n"),  # the error's line counts the lone CR
    (load_gml, "graph [ # c\rnode [ id 1 ] ]"),
    (load_gml, "graph [\r\nnode [ id 1 ]\rnode [ ]\n]"),
])
def test_text_splits_lines_as_a_file_does(tmp_path, load, text):
    path = tmp_path / ("g.gml" if load is load_gml else "g.txt")
    path.write_bytes(text.encode())
    assert _load_outcome(load, text) == _load_outcome(lambda ref: cli.load_graph(ref)[:2], str(path))


def test_edge_list_repeats_count_as_duplicates():
    text = "# both orientations\na b\nb a\na b\nc c\nb c\n\nc b\nd d\n"
    assert_edge_list_matches_oracle(text)
    g, report = load_edge_list(text)
    assert (g.n, g.m) == (4, 2)
    assert (report.self_loops_dropped, report.duplicate_edges_dropped) == (2, 3)


GML_BASIC = """
Creator "toy"
graph [
  comment "two nodes, one edge"
  node [ id 1 label "alpha" graphics [ x 0.5 y 1.0 ] ]
  node [ id 2 label "beta" ]
  edge [ source 1 target 2 ]
]
"""


def test_gml_basic():
    g, report = load_gml(GML_BASIC)
    assert (g.n, g.m) == (2, 1)
    assert g.external_names == ("alpha", "beta")
    assert not report.symmetrized
    assert not report.weights_ignored


def test_gml_directed_is_symmetrized():
    text = """graph [ directed 1
      node [ id 0 ] node [ id 1 ]
      edge [ source 0 target 1 ] edge [ source 1 target 0 ]
    ]"""
    g, report = load_gml(text)
    assert (g.n, g.m) == (2, 1)
    assert report.symmetrized
    assert report.duplicate_edges_dropped == 1


def test_gml_weights_flagged_and_ignored():
    text = """graph [ node [ id 0 ] node [ id 1 ]
      edge [ source 0 target 1 weight 7 ] ]"""
    g, report = load_gml(text)
    assert g.m == 1
    assert report.weights_ignored


def test_gml_same_label_nodes_stay_distinct():
    text = """graph [ node [ id 0 label "x" ] node [ id 1 label "x" ]
      edge [ source 0 target 1 ] ]"""
    g, _ = load_gml(text)
    assert g.n == 2


def test_gml_node_without_label_uses_id():
    text = "graph [ node [ id 42 ] node [ id 7 ] edge [ source 42 target 7 ] ]"
    g, _ = load_gml(text)
    assert g.external_names == ("42", "7")


def test_gml_missing_node_id():
    with pytest.raises(GraphParseError):
        load_gml("graph [ node [ label \"x\" ] ]")


def test_gml_missing_edge_endpoint():
    with pytest.raises(GraphParseError):
        load_gml("graph [ node [ id 0 ] edge [ source 0 ] ]")


def test_gml_unbalanced_brackets():
    with pytest.raises(GraphParseError):
        load_gml("graph [ node [ id 0 ]")
    with pytest.raises(GraphParseError):
        load_gml("graph [ node [ id 0 ] ] ]")


def test_gml_undeclared_edge_endpoint():
    with pytest.raises(GraphParseError):
        load_gml("graph [ node [ id 0 ] edge [ source 0 target 9 ] ]")


def test_gml_duplicate_node_id():
    with pytest.raises(GraphParseError):
        load_gml("graph [ node [ id 0 ] node [ id 0 ] ]")


def test_gml_without_graph_block():
    with pytest.raises(GraphParseError):
        load_gml("Creator \"nothing\"")


def test_gml_self_loop_dropped():
    text = "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 0 ] edge [ source 0 target 1 ] ]"
    g, report = load_gml(text)
    assert g.m == 1
    assert report.self_loops_dropped == 1


GML_CASES = {
    "unspaced tokens": 'graph[node[id 1]node[id 2 label"b"]edge[source 1 target 2]]',
    "form feed and no-break space inside atoms": (
        "graph [ node [ id 1\x0c ] node [ id 1 ] node [ id a\xa0b ]\n"
        "edge [ source 1\x0c target a\xa0b ] ]"
    ),
    "atom cut at CR but not at form feed": "graph [ node [ id 1\r] node [ id 2\x0c]\x0c]",
    "key followed only by whitespace": "graph [ node [ id 1 ] ]\nCreator \n\t \x0c",
    "unterminated string after a bracket error": 'graph [ ] ]\nnode [ label "abc\n',
    "semantic error before a syntax error": 'graph [ node [ label "x" ] ]\n]',
    "semantic error before an undeclared node": (
        "graph [ edge [ source 1 target 9 ] node [ id 1 ]\nnode [ id 1 ] ]"
    ),
    "only the first graph block is read": (
        "graph 1 graph [ node [ id 1 ] ] graph [ node [ ] node [ id 1 ] ]"
    ),
    "nested blocks do not count as nodes": (
        "graph [ x [ node [ id 5 ] ] node [ id 1 g [ id 2 ] ] ] node [ id 3 ]"
    ),
    "string as a key": 'graph [ "id" 1 ]',
    "bracket as a key": "graph [ [ ] ]",
    "key before a closing bracket": "graph [ node ]",
    "innermost unclosed block": "graph [\n node [\n  g [\n",
    "directed with padded string value": 'graph [ directed " 1 " node [ id 0 ] ]',
    "comment hides a quote": 'graph [ # "\n node [ id 1 ] ]',
    "empty graph": "graph [ ]",
    "trailing whitespace only": "   \n \x0c ",
    "unspaced flat blocks": 'graph [ node[id 1]node[id"2"label"b"]edge[source 1 target"2"]x[]]',
    "empty flat block": "graph [ x [ ] node [ id 1 ] node [ ]\n]",
    "repeated key in a flat block": (
        'graph [ node [ id 1 id 2 label a label "b" ] node [ id 1 ]\n'
        "edge [ source 2 target 9 source 1 target 2 value 1 ] ]"
    ),
    "flat graph block": "graph [ directed 1 ]",
    "flat graph block after a nested one": "x [ graph [ id 1 ] ] graph [ directed 1 directed 0 ]",
    "key followed by a flat block": "graph [ node [ id 1 ] label node\n[ id 2 ] ]",
    "form-feed separator in a block": (
        'graph [ node [\x0cid 1 ] node [ id 2 label "b"\x0c] edge [\x0csource 1 target 2 ] ]'
    ),
    "no-break space separator in a block": "graph [ node [\xa0id 1 ] node [ id 2 ] ]",
    "form feed inside an atom is not a separator": "graph [ node [ id\x0c5 ] ]",
    "comment in a block": (
        "graph [ node [ id 1 # first\n ] node [ id 2 ]#\nedge [ source 1 # t\n target 2 ] ]"
    ),
    "stray quote in a block": 'graph [ node [ id 1 ] node [ id 2 " ] ]',
    "node without a label, label before id": (
        'graph [ node [ id 1 ] node [ label "b" id 2 ] edge [ source 1 target 2 ] ]'
    ),
    "fourth scalar in a block": (
        'graph [ node [ id 1 label "a" value 3 ] node [ id 2 label "b" x 1 y 2 ]\n'
        "edge [ source 1 target 2 value 1 color 3 ] edge [ source 2 target 1 x 1 weight 2 ] ]"
    ),
    "third key other than value or weight": (
        'graph [ node [ id 1 ] node [ id 2 ] edge [ source 1 target 2 label "e" ] ]'
    ),
    "quoted ids and labels with spaces": (
        'graph [ node [ id "1" label "a b" ] node [ id "x y" label "c  d" ]\n'
        'edge [ source 1 target "x y" ] edge [ source "1" target "x y" weight 2 ] ]'
    ),
    "zero-width separators in usual blocks": (
        'graph[node[id"1"label"a"]node[id"2"]edge[source"1"target"2"value"1"]]'
    ),
    "keys that only extend the usual ones": (
        'graph [ node [ ids 5 id 1 ] node [ id 2 labels "x" ] nodes [ id 3 ]\n'
        "edges [ source 1 target 2 ] edge [ source 1 target 2 values 1 ] ]"
    ),
    "extended key is not an endpoint": (
        "graph [ node [ id 1 ] node [ id 2 ]\nedge [ sources 1 target 2 ] ]"
    ),
    "usual blocks under a non-graph block": (
        "graph [ node [ id 1 ] x [ node [ id 2 ] edge [ source 1 target 2 ] ]\n"
        "y [ node [ id 1 ] ] edge [ source 1 target 1 ] ]"
    ),
    "usual blocks inside a second graph block": (
        "graph [ node [ id 1 ] ]\ngraph [ node [ id 1 ] node [ id 2 ] edge [ source 1 target 9 ] ]"
    ),
    "usual block after a pending key": (
        "graph [ node [ id 1 ]\nlabel edge [ source 1 target 1 ] ]"
    ),
    "usual node after a pending key": "graph [ value\nnode [ id 1 ] ]",
    "duplicate id in usual blocks": (
        'graph [ node [ id 1 label "a" ]\nnode [ id "1" ] edge [ source 1 target 1 ] ]'
    ),
    "undeclared endpoint in usual blocks": (
        "graph [ node [ id 1 ] edge [ source 1 target 2 ]\n"
        "edge [ source 3 target 1 value 2 ] node [ id 2 ] ]"
    ),
    "usual blocks after a node error": (
        'graph [ node [ label "x" ]\nnode [ id 1 ] node [ id 1 ] edge [ source 1 target 5 ] ]'
    ),
}


def _load_gml_summary(source):
    g, r = load_gml(source)
    report = (r.self_loops_dropped, r.duplicate_edges_dropped, r.symmetrized, r.weights_ignored)
    return g.external_names, sorted(g.edges()), report


def assert_gml_matches_oracle(text):
    # as assert_edge_list_matches_oracle: a str reads as a text-mode file
    expected = _load_outcome(oracles.gml_oracle, text)
    assert _load_outcome(_load_gml_summary, text) == expected
    assert _load_outcome(_load_gml_summary, StringIO(text, newline=None)) == expected
    expected = _load_outcome(oracles.gml_oracle, StringIO(text))
    assert _load_outcome(_load_gml_summary, StringIO(text)) == expected


@pytest.mark.parametrize("text", GML_CASES.values(), ids=list(GML_CASES))
def test_gml_matches_reference_loader_on_edge_cases(text):
    assert_gml_matches_oracle(text)


@settings(max_examples=1000, deadline=None)
@given(gml_documents())
def test_gml_matches_reference_loader(text):
    assert_gml_matches_oracle(text)


# Bulk-read window sizes: small ones cut inside blocks and between them.
RUN_WINDOWS = [16, 64, 256, graphs._RUN_WINDOW]
NODES = "".join(f'node [ id {v} label "n{v}" ]\n' for v in range(1, 5))
EDGES = "".join(f"edge [ source {v} target {v % 4 + 1} ]\n" for v in range(1, 5))
# Runs of blocks with one defect, past their first block or in it, where a
# bulk read that skipped a check would read what the token scan does not.
RUN_CASES = {
    "clean runs": f"graph [\n{NODES}{EDGES}]",
    "bracket glued to a later id": "graph [ node [ id 1 ] node [ id 2] ] node [ id 3 ] ]",
    "bracket inside a later label": f'graph [\n{NODES}node [ id 5 label "a]" ]\n{EDGES}]',
    "label of two quotes that is not one string": (
        f'graph [\n{NODES}node [ id 5 label a"b" ]\nnode [ id 6 label "c" ]\n]'
    ),
    "label of a lone quote": f'graph [\n{NODES}node [ id 5 label " ]\n]',
    "quoted ids": f'graph [ node [ id 1 ] node [ id "2" ] node [ id 3 ]\n{EDGES}node [ id 4 ] ]',
    "quoted endpoint": f'graph [\n{NODES}{EDGES}edge [ source "1" target 2 ] ]',
    "quoted weight": f'graph [\n{NODES}edge [ source 1 target 2 value 1 ] edge [ source 2 target 3 value "1" ] ]',
    "quote glued to a weight": f'graph [\n{NODES}edge [ source 1 target 2 value 1 ] edge [ source 2 target 3 value 1" ] ]',
    "comment in place of an id": f'graph [\n{NODES}node [ id #5 label "x" ]\nnode [ id 6 label "y" ] ]',
    "atom with a hash": f"graph [\n{NODES}node [ id x#y ]\nedge [ source x#y target 1 ] ]",
    "scalars as many as a block has tokens": "graph [ node [ id 1 ] x 7 x 1 x node [ id 2 ] node [ id 3 ] ]",
    "valid scalars between blocks": f"graph [\n{NODES}x 1 y 2 node [ id 5 ]\n{EDGES}]",
    "form feed between tokens": f"graph [\n{NODES}node [ id 5\x0c] node [ id 6 ] ]",
    "no-break space in an id": f"graph [\n{NODES}node [ id 5\xa06 ] node [ id 6 ]\nedge [ source 5\xa06 target 6 ] ]",
    "vertical tab and NEL": f"graph [\n{NODES}node\x0b[ id 5 ]\x85node [ id 6 ] ]",
    "non-ASCII labels and ids": f'graph [\n{NODES}node [ id é label "名前" ]\nedge [ source é target 1 ] ]',
    "duplicate id within a run": f"graph [\n{NODES}node [ id 5 ] node [ id 5 ] ]",
    "duplicate id across runs": f"graph [\n{NODES}{EDGES}node [ id 2 ] ]",
    "edge before its node": f"graph [\n{NODES}{EDGES}edge [ source 1 target 9 ] node [ id 9 ] ]",
    "weight then value": f"graph [\n{NODES}edge [ source 1 target 2 weight 3 ] edge [ source 2 target 1 value 1 ] ]",
    "fourth key past the first block": f"graph [\n{NODES}{EDGES}edge [ source 1 target 2 value 1 x 2 ] ]",
    "mixed strides": f"graph [\n{NODES}node [ id 5 ] node [ id 6 label \"b\" ]\n{EDGES}]",
    "CRLF and tabs": f"graph\r\n[\r\n{NODES}{EDGES}]".replace("\n", "\r\n\t").replace(" ", "\t"),
    "graph closes after a run": f"graph [\n{NODES}]\nnode [ id 9 ]",
    "run inside a nested block": f"graph [ x [\n{NODES}] node [ id 1 ] ]",
    "lone-quote value in a one-block run": 'graph [ node [ weight " label "q"a9" id 9 ] ]',
    "repeated key": f"graph [ node [ id 1 id 2 ] node [ id 3 id 4 ]\n{EDGES}]",
    "first block missing id": f'graph [ node [ label "a" ] node [ label "b" ]\n{EDGES}]',
    "first block missing target": f"graph [\n{NODES}{EDGES}node [ id 9 ] edge [ source 1 ] edge [ source 2 ] ]",
    "nested block as a value": f"graph [ node [ id 5 g [ x 1 ] ] node [ id 6 g [ x 1 ] ]\n{NODES}{EDGES}]",
    "graph-level scalar node before a run": f"graph [ node 5\n{NODES}{EDGES}]",
    "label before id throughout a run": (
        "graph [\n" + "".join(f'node [ label "n{v}" id {v} ]\n' for v in range(1, 5)) + f"{EDGES}]"
    ),
    "unquoted label": "graph [\n" + "".join(f"node [ id {v} label n{v} ]\n" for v in range(1, 5)) + f"{EDGES}]",
    "value on every node": (
        "graph [\n" + "".join(f'node [ id {v} label "n{v}" value {v % 2} ]\n' for v in range(1, 5)) + f"{EDGES}]"
    ),
}


@pytest.mark.parametrize("window", RUN_WINDOWS)
@pytest.mark.parametrize("text", RUN_CASES.values(), ids=list(RUN_CASES))
def test_gml_bulk_reads_match_reference_loader_on_edge_cases(text, window):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_RUN_WINDOW", window)
        assert_gml_matches_oracle(text)


@settings(max_examples=600, deadline=None)
@given(st.one_of(gml_documents(), gml_runs()), st.sampled_from(RUN_WINDOWS))
def test_gml_bulk_reads_match_reference_loader(text, window):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_RUN_WINDOW", window)
        assert_gml_matches_oracle(text)


def test_split_only_spaces_are_every_other_whitespace_character():
    every = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
    assert graphs._SPLIT_ONLY_SPACES == every.translate(dict.fromkeys(map(ord, " \t\r\n")))


@pytest.mark.parametrize(
    "block",
    [
        "node 5 node [ id 1 ]",
        "node [ id 1 id 2 ]",
        'node [ label "a" ]',
        "edge [ source 1 ]",
        "edge [ target 1 value 2 ]",
        "node [ id 1 g [ x 1 ] ]",
        "node [ id 1 g [x 1 ] ]",
        "node [ id ]",
        "node[ id 1 ]",
    ],
)
def test_gml_bulk_read_declines_a_first_block_of_no_flat_shape(block):
    # A declined first block with no edge block after it gives up the
    # whole window, so that blocks of no flat shape cannot start a bulk
    # read each.
    text = f"graph [ {block} node [ id 7 ] ]"
    start = text.index(block)
    names, ends, ids = [], [], {}
    result = graphs._read_run(text, start, block[:4], names, ends, ids)
    assert result == (start + graphs._RUN_WINDOW, None)
    assert (names, ends, ids) == ([], [], {})


def _blocks_through_token_code(text):
    """How many node and edge blocks load_gml reads token by token: the
    blocks of the loaded graph that _read_run does not read."""
    read = []
    read_run = graphs._read_run

    def counted(text, start, key, names, ends, id_to_vertex):
        before = len(names) + len(ends) // 2
        result = read_run(text, start, key, names, ends, id_to_vertex)
        read.append(len(names) + len(ends) // 2 - before)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_read_run", counted)
        g, report = load_gml(text)
    return g.n + g.m + report.duplicate_edges_dropped + report.self_loops_dropped - sum(read)


@pytest.mark.parametrize("gap", [" ", "\n  "])
def test_gml_declined_node_run_leaves_its_edges_to_the_bulk_read(gap):
    # Nodes with a nested block decline their run up to the first edge
    # block, which starts a run of its own, with its bracket on the same
    # line or the next.
    nodes = "".join(f" node [ id {v} graphics [ x {v} y 1 ] ]" for v in range(300))
    edges = "".join(f" edge{gap}[ source {v % 300} target {v * 7 % 300} ]" for v in range(3_000))
    text = f"graph [{nodes}{edges} ]"
    start = text.index("node")
    assert graphs._read_run(text, start, "node", [], [], {}) == (text.index("edge"), None)
    assert _blocks_through_token_code(text) == 300
    assert_gml_matches_oracle(text)


def test_gml_written_by_networkx_loads_the_same_graph():
    # networkx writes node [ id label ] and edge [ source target ] blocks,
    # one key per line, with a node's attributes as more keys.
    nx = pytest.importorskip("networkx")
    cases = [nx.relabel_nodes(nx.gnm_random_graph(30, 2 * seed, seed=seed), lambda v: f"v {v}")
             for seed in range(20)]
    # More text than one bulk-read window, with labels that read in bulk,
    # and then with an int attribute on every node.
    big = nx.relabel_nodes(nx.gnm_random_graph(3_000, 9_000, seed=5), lambda v: f"v{v}")
    valued = nx.relabel_nodes(nx.gnm_random_graph(3_000, 9_000, seed=6), lambda v: f"v{v}")
    nx.set_node_attributes(valued, {v: len(v) % 3 for v in valued}, "value")
    for G in [*cases, big, valued]:
        text = "\n".join(nx.generate_gml(G))
        for window in (graphs._RUN_WINDOW, 16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graphs, "_RUN_WINDOW", window)
                g, report = load_gml(text)
            names = g.external_names
            assert names == tuple(G)
            assert {frozenset((names[u], names[v])) for u, v in g.edges()} == {
                frozenset(e) for e in G.edges()
            }
            assert report == LoadReport()
    # Every window of the big graphs is read in bulk; at 16 characters none is.
    for G in (big, valued):
        text = "\n".join(nx.generate_gml(G))
        assert len(text) > graphs._RUN_WINDOW
        assert _blocks_through_token_code(text) == 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_RUN_WINDOW", 16)
            assert _blocks_through_token_code(text) == G.number_of_nodes() + G.number_of_edges()


def test_gml_error_precedence():
    # The tokenizer sees the whole file before any bracket is matched.
    with pytest.raises(GraphParseError, match=r"^unterminated string \(line 2\)$"):
        load_gml(GML_CASES["unterminated string after a bracket error"])
    # Node and edge errors wait until the whole file has parsed.
    with pytest.raises(GraphParseError, match=r"stray '\]' \(line 2\)$"):
        load_gml(GML_CASES["semantic error before a syntax error"])
    with pytest.raises(GraphParseError, match=r"^duplicate node id 1 \(line 2\)$"):
        load_gml(GML_CASES["semantic error before an undeclared node"])


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 0, ((),)), "n does not match adjacency length"),
        ((1, 0, ((),), ("a", "b")), "external_names length does not match n"),
        ((1, 0, ((0,),)), "self-loop at vertex 0"),
        ((3, 1, ((2, 1), (0,), (0,))), "adjacency of 0 not sorted/duplicate-free"),
        ((2, 1, ((1, 1), (0,))), "adjacency of 0 not sorted/duplicate-free"),
        ((2, 1, ((-1,), ())), "neighbor -1 of 0 out of range"),
        ((2, 1, ((2,), (0,))), "neighbor 2 of 0 out of range"),
        ((2, 2, ((1,), (0,))), "m inconsistent with adjacency lists"),
        ((3, 1, ((), (0,), (0,))), "edge {0, 1} not symmetric"),
        ((4, 1, ((1,), (), (3,), ())), "edge {1, 0} not symmetric"),
        ((4, 2, ((1, 2), (0,), (), (2,))), "edge {2, 0} not symmetric"),
    ],
)
def test_graph_rejects_invalid_representation(args, message):
    with pytest.raises(ValueError) as err:
        Graph(*args)
    assert str(err.value) == message
    assert oracles.graph_check_oracle(*args) == message


@st.composite
def _adjacencies(draw):
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(vertex, vertex), max_size=12))
    neigh = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            neigh[u].add(v)
            neigh[v].add(u)
    for _ in range(draw(st.integers(0, 2))):  # break symmetry
        u, v = draw(vertex), draw(st.integers(-1, n))
        neigh[u].symmetric_difference_update({v})
    adjacency = tuple(tuple(sorted(a)) for a in neigh)
    m = sum(map(len, adjacency)) // 2 + draw(st.sampled_from([0, 0, 0, 1]))
    if draw(st.integers(0, 9)) == 0:
        adjacency = adjacency[:-1] + (tuple(reversed(adjacency[-1])),)
    return n, m, adjacency


@settings(max_examples=500, deadline=None)
@given(_adjacencies())
def test_graph_validation_matches_reference(args):
    expected = oracles.graph_check_oracle(*args)
    try:
        Graph(*args)
    except ValueError as err:
        assert str(err) == expected
    else:
        assert expected is None


def test_validation_is_linear_in_degree():
    # A quadratic symmetry check takes seconds on this star.
    leaves = 30_000
    start = time.perf_counter()
    g = Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    assert time.perf_counter() - start < 1.0
    assert g.max_degree() == leaves


def _late_failing_edges(block=" edge [ source 1 target {} ]"):
    """About 20k edge blocks of one shape in which every bulk-read window
    fails at its last block, an edge naming an undeclared node."""
    per_window = (graphs._RUN_WINDOW + 1) // len(block.format(1))
    edges = (block.format(2 if i % per_window == per_window - 1 else 1) for i in range(20_000))
    return "graph [ node [ id 1 ]" + "".join(edges) + " edge [ source 1 target 2 ] ]"


@pytest.mark.parametrize(
    "text, error",
    [
        # A block of scalars (a flat block) that never closes.
        ("graph [ k [" + " a 1" * 50_000, "block never closed (line 1)"),
        ("a [ " * 20_000, "block never closed (line 1)"),
        # Flat blocks with a form feed before each ']', read token by token.
        ("graph [" + " x [ a 1 b 2 \x0c]" * 20_000 + " node [ id 1 ] ]", None),
        # An edge block of 50k pairs, the first block of its run.
        ("graph [ node [ id 1 ] edge [ source 1 target 1" + " a 1" * 50_000 + " ] ]", None),
        # Flat blocks of three pairs with a form feed before each ']'.
        ("graph [" + " x [ a 1 b 2 c 3 \x0c]" * 20_000 + " node [ id 1 ] ]", None),
        # A bulk read that retried each block of a failed window would split
        # the window again for each of its blocks.
        (_late_failing_edges(), "edge references undeclared node 2 (line 1)"),
        (
            _late_failing_edges(' edge [ label "e" source 1 value 1 target {} color 3 weight 2 ]'),
            "edge references undeclared node 2 (line 1)",
        ),
        # Nodes of no flat shape, each of which declines its run up to the
        # edge block start in its own label.
        (
            "graph [" + "".join(f' node [ id {v} label "edge [" g [ x 1 ] ]' for v in range(20_000))
            + " edge [ source 0 target 20000 ] ]",
            "edge references undeclared node 20000 (line 1)",
        ),
    ],
    ids=[
        "one long unclosed block",
        "deep nesting",
        "blocks that fail the flat form late",
        "one long block",
        "blocks that fail the flat form after three pairs",
        "usual blocks whose every bulk-read window fails at its last block",
        "six-key blocks whose every bulk-read window fails at its last block",
        "nested nodes that each name an edge block start",
    ],
)
def test_gml_flat_blocks_scan_linearly(text, error):
    start = time.perf_counter()
    if error is None:
        assert load_gml(text)[0].n == 1
    else:
        with pytest.raises(GraphParseError, match=re.escape(error)):
            load_gml(text)
    assert time.perf_counter() - start < 1.0


def test_gml_scan_is_linear_in_whitespace():
    # A scanner that retries the trailing whitespace from every position
    # takes seconds here.
    text = "graph [ node [ id 1 ] ]" + " \n" * 5_000
    start = time.perf_counter()
    g, _ = load_gml(text)
    assert time.perf_counter() - start < 1.0
    assert g.n == 1


_BROKEN_NUMPY_SCRIPT = """
import sys
from labelprop import cli, fixtures, graphs
from labelprop.coloring import greedy_color
from labelprop.partition import extract_communities
from labelprop.propagation import RunConfig, TieStrategy, TimingModel, run

def outcomes():
    g, report = graphs.load_edge_list(fixtures.fixture_text("karate"))
    runs = []
    for timing in TimingModel:
        coloring = greedy_color(g, range(g.n)) if timing is TimingModel.SEMI_SYNCHRONOUS else None
        state, metrics = run(g, RunConfig(timing=timing, tie=TieStrategy.PREC_MAX, seed=1), coloring)
        runs.append((state, metrics, extract_communities(g, state.labels)))
    return g, report, runs, cli.main(["info", "karate"])

expected = outcomes()
graphs.ARRAY_MIN_EDGES = 0
assert outcomes() == expected
assert "labelprop._arrays" not in sys.modules
"""


def test_a_numpy_that_fails_to_import_leaves_the_python_loops(tmp_path: Path):
    # not only a missing numpy: one whose import raises ImportError
    stub = tmp_path / "numpy"
    stub.mkdir()
    (stub / "__init__.py").write_text('raise ImportError("numpy is broken")\n')
    src = str(Path(graphs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    done = subprocess.run([sys.executable, "-c", _BROKEN_NUMPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
