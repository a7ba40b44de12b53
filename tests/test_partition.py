import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelprop import fixtures, graphs
from labelprop.graphs import Graph, same_label_edges
from labelprop.partition import extract_communities, modularity, partition_stats

from helpers import numpy_imports, partition_from_membership
from oracles import (
    modularity_bruteforce,
    random_graph,
    same_label_components,
    same_label_edges_bruteforce,
    set_partitions,
)


def test_all_distinct_labels_give_singletons():
    g = fixtures.graph("karate")
    p = extract_communities(g, list(range(g.n)))
    assert len(p.communities) == g.n
    assert all(c.size == 1 for c in p.communities)


def test_disconnected_same_label_split():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    p = extract_communities(g, [7, 7, 7, 7])
    assert len(p.communities) == 2
    assert p.communities[0].members == (0, 1)
    assert p.communities[1].members == (2, 3)


def test_two_triangle_bridge_partition():
    g = fixtures.graph("triangles-bridge")
    p = extract_communities(g, [4, 4, 4, 9, 9, 9])
    assert [c.members for c in p.communities] == [(0, 1, 2), (3, 4, 5)]
    assert [c.internal_edges for c in p.communities] == [3, 3]
    assert [c.degree_sum for c in p.communities] == [7, 7]


def test_extracted_communities_are_connected():
    rnd = random.Random(17)
    for _ in range(50):
        n = rnd.randint(2, 10)
        g = Graph.from_edges(n, random_graph(rnd, n, 0.4))
        labels = [rnd.randint(0, 3) for _ in range(n)]
        p = extract_communities(g, labels)
        for community in p.communities:
            members = set(community.members)
            # BFS inside the community must reach every member
            start = community.members[0]
            seen = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for u in g.adjacency[v]:
                    if u in members and u not in seen:
                        seen.add(u)
                        frontier.append(u)
            assert seen == members


@st.composite
def labelled_graphs(draw):
    """A graph whose edges are drawn few or many, so that isolated
    vertices are likely, and labels from a few values, now and then with
    one beyond int64 or one that is not an integer."""
    n = draw(st.integers(0, 30))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    labels = draw(st.lists(st.integers(0, draw(st.integers(0, 3))), min_size=n, max_size=n))
    odd = draw(st.sampled_from([None, 2**63 + 1, 2**70, 1.0, 0.5, "a"]))
    if n and odd is not None:
        labels[draw(st.integers(0, n - 1))] = odd
    return Graph.from_edges(n, edges), labels


ARRAY_PATHS = [
    "default",
    pytest.param("arrays", marks=pytest.mark.skipif(not numpy_imports(), reason="needs numpy")),
]


def _path(mp, path, batch):
    """Send the passes to `path`: the default, or the arrays at batches of `batch` edges."""
    if path == "arrays":
        from labelprop import _arrays

        mp.setattr(graphs, "ARRAY_MIN_EDGES", 0)
        mp.setattr(_arrays, "_BATCH_EDGES", batch)


@pytest.mark.parametrize("path", ARRAY_PATHS)
@settings(max_examples=300, deadline=None)
@given(case=labelled_graphs(), batch=st.sampled_from([1, 3, 1 << 14]))
def test_same_label_edges_match_brute_force(path, case, batch):
    g, labels = case
    with pytest.MonkeyPatch.context() as mp:
        _path(mp, path, batch)
        lower, upper = same_label_edges(g, labels)
    assert len(lower) == len(upper)
    assert [(int(v), int(u)) for v, u in zip(lower, upper)] == same_label_edges_bruteforce(g.adjacency, labels)


@pytest.mark.parametrize("path", ARRAY_PATHS)
@settings(max_examples=300, deadline=None)
@given(case=labelled_graphs(), batch=st.sampled_from([1, 3, 1 << 14]))
def test_extraction_matches_breadth_first_search(path, case, batch):
    g, labels = case
    expected = partition_from_membership(g, same_label_components(g.adjacency, labels))
    with pytest.MonkeyPatch.context() as mp:
        _path(mp, path, batch)
        assert extract_communities(g, labels) == expected


def test_community_ids_ordered_by_smallest_member():
    g = Graph.from_edges(5, [(3, 4), (0, 1)])
    p = extract_communities(g, [5, 5, 9, 2, 2])
    firsts = [c.members[0] for c in p.communities]
    assert firsts == sorted(firsts)
    assert p.community_of[0] == p.community_of[1] == 0


def test_modularity_whole_graph_is_zero():
    for name in fixtures.names():
        g = fixtures.graph(name)
        p = extract_communities(g, [0] * g.n)
        if len(p.communities) == 1:
            assert modularity(g, p) == 0.0


def test_modularity_triangle_partition_exact():
    g = fixtures.graph("triangles-bridge")
    p = partition_from_membership(g, [0, 0, 0, 1, 1, 1])
    assert modularity(g, p) == 5 / 14


def test_triangle_partition_is_the_unique_maximum():
    g = fixtures.graph("triangles-bridge")
    edges = list(g.edges())
    best = Fraction(-1)
    argmax = None
    for membership in set_partitions(6):
        q = modularity_bruteforce(6, edges, membership)
        if q > best:
            best, argmax = q, membership
    assert best == Fraction(5, 14)
    assert argmax == (0, 0, 0, 1, 1, 1)


def test_karate_two_faction_fixture_value():
    g = fixtures.graph("karate")
    membership = fixtures.karate_factions()
    p = partition_from_membership(g, membership)
    q = modularity(g, p)
    assert q == pytest.approx(0.383, abs=0.02)
    assert q == 565 / 1521  # frozen exact value of the faction split


def test_modularity_matches_bruteforce_on_corpus():
    rnd = random.Random(2718)
    cases = 0
    for _ in range(120):
        n = rnd.randint(2, 8)
        edges = random_graph(rnd, n, rnd.uniform(0.3, 0.8))
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        labels = [rnd.randint(0, n) for _ in range(n)]
        p = extract_communities(g, labels)
        expected = modularity_bruteforce(n, edges, p.community_of)
        assert abs(modularity(g, p) - float(expected)) <= 1e-12
        cases += 1
    assert cases > 100


def test_singleton_partition_closed_form():
    for name in ("karate", "triangles-bridge", "c4"):
        g = fixtures.graph(name)
        p = extract_communities(g, list(range(g.n)))
        expected = -sum((g.degree(v) / (2 * g.m)) ** 2 for v in range(g.n))
        assert modularity(g, p) == pytest.approx(expected, abs=1e-12)


def test_modularity_invariant_under_relabeling():
    g = fixtures.graph("triangles-bridge")
    a = partition_from_membership(g, [0, 0, 0, 1, 1, 1])
    b = partition_from_membership(g, [9, 9, 9, 4, 4, 4])
    assert modularity(g, a) == modularity(g, b)


def test_modularity_rejects_edgeless_graph():
    g = Graph.from_edges(3, [])
    p = extract_communities(g, [0, 0, 0])
    with pytest.raises(ValueError):
        modularity(g, p)


def test_partition_stats():
    g = Graph.from_edges(5, [])
    singles = extract_communities(g, [0, 1, 2, 3, 4])
    stats = partition_stats(singles)
    assert (stats.count, stats.largest) == (5, 1)

    tb = fixtures.graph("triangles-bridge")
    two = extract_communities(tb, [1, 1, 1, 2, 2, 2])
    stats = partition_stats(two)
    assert (stats.count, stats.largest) == (2, 3)

    monster = extract_communities(tb, [0] * 6)
    stats = partition_stats(monster)
    assert (stats.count, stats.largest) == (1, 6)
    assert stats.sizes == (6,)

    none = partition_stats(extract_communities(Graph(0, 0, ()), []))
    assert (none.count, none.largest, none.sizes) == (0, 0, ())


def test_membership_length_validated():
    g = fixtures.graph("c4")
    with pytest.raises(ValueError):
        extract_communities(g, [0, 0])
    with pytest.raises(ValueError):
        partition_from_membership(g, [0])


def test_modularity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 25)
        edges = random_graph(rng, n, rng.uniform(0.1, 0.6))
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        community_of = [rng.randrange(4) for _ in range(n)]
        groups = {}
        for v, c in enumerate(community_of):
            groups.setdefault(c, set()).add(v)
        G = nx.Graph(edges)
        G.add_nodes_from(range(n))
        expected = nx.community.modularity(G, groups.values())
        ours = modularity(g, partition_from_membership(g, community_of))
        assert ours == pytest.approx(expected, abs=1e-12)
