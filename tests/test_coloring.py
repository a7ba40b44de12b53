import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelprop import fixtures
from labelprop.coloring import Coloring, color_from_labels, coloring_csv, greedy_color
from labelprop.graphs import Graph

from oracles import random_graph


def assert_proper(graph, coloring):
    coloring.check_proper(graph)
    assert coloring.num_colors <= graph.max_degree() + 1


def test_path3_natural_order():
    g = fixtures.graph("path3")
    col = greedy_color(g, [0, 1, 2])
    assert col.color_of == (0, 1, 0)
    assert col.num_colors == 2


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0)])
def test_triangle_needs_three_colors(order):
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    col = greedy_color(g, order)
    assert col.num_colors == 3
    assert_proper(g, col)


def test_c4_natural_order_two_coloring():
    g = fixtures.graph("c4")
    col = greedy_color(g, [0, 1, 2, 3])
    assert col.color_of == (0, 1, 0, 1)
    assert col.classes == ((0, 2), (1, 3))


def test_order_must_be_permutation():
    g = fixtures.graph("c4")
    with pytest.raises(ValueError):
        greedy_color(g, [0, 1, 2])
    with pytest.raises(ValueError):
        greedy_color(g, [0, 1, 2, 2])


def test_color_from_identity_matches_natural_greedy():
    g = fixtures.graph("karate")
    assert color_from_labels(g, list(range(g.n))) == greedy_color(g, list(range(g.n)))


def test_color_from_reversed_labels_on_path3():
    g = fixtures.graph("path3")
    # labels (2,1,0) order vertices as (2,1,0)
    col = color_from_labels(g, [2, 1, 0])
    assert col == greedy_color(g, [2, 1, 0])
    assert col.color_of == (0, 1, 0)


def test_karate_bound_over_100_random_labelings():
    g = fixtures.graph("karate")
    rnd = random.Random(7)
    for _ in range(100):
        labels = list(range(g.n))
        rnd.shuffle(labels)
        col = color_from_labels(g, labels)
        assert_proper(g, col)
        assert col.num_colors <= 18


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(10)), st.integers(0, 2**32 - 1), st.floats(0.1, 0.9))
def test_properness_and_bound_on_random_graphs(order, graph_seed, p):
    g = Graph.from_edges(10, random_graph(random.Random(graph_seed), 10, p))
    col = greedy_color(g, order)
    assert_proper(g, col)


@given(st.permutations(range(6)))
def test_determinism(order):
    g = fixtures.graph("triangles-bridge")
    assert greedy_color(g, order) == greedy_color(g, order)


def test_classes_partition_vertices_in_stage_order():
    g = fixtures.graph("karate")
    col = greedy_color(g, list(range(g.n)))
    seen = sorted(v for cls in col.classes for v in cls)
    assert seen == list(range(g.n))
    for c, cls in enumerate(col.classes):
        assert all(col.color_of[v] == c for v in cls)


def test_check_proper_rejects_monochromatic_edge():
    g = fixtures.graph("path3")
    bad = Coloring(color_of=(0, 0, 1), classes=((0, 1), (2,)))
    with pytest.raises(ValueError):
        bad.check_proper(g)


@pytest.mark.parametrize(
    "classes, message",
    [
        (((0, 2), (1, 5)), "vertex 5 in class 1 out of range [0, 3)"),
        (((0,), (-2, 1)), "vertex -2 in class 1 out of range [0, 3)"),
        (((0, 2), (1,), ()), "class 2 is empty"),
    ],
    ids=["member beyond n", "negative member", "empty class"],
)
def test_check_proper_rejects_malformed_classes(classes, message):
    g = fixtures.graph("path3")
    bad = Coloring(color_of=(0, 1, 0), classes=classes)
    with pytest.raises(ValueError, match=re.escape(message)):
        bad.check_proper(g)


def test_coloring_csv_shape():
    g = fixtures.graph("path3")
    col = greedy_color(g, [0, 1, 2])
    assert coloring_csv(col) == "vertex,color\n0,0\n1,1\n2,0\n"


def test_greedy_color_matches_networkx():
    # networkx gives each node in the strategy's order the smallest color
    # unused by its colored neighbors, as greedy_color does.
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 25)
        g = Graph.from_edges(n, random_graph(rng, n, rng.uniform(0.1, 0.6)))
        order = list(range(n))
        rng.shuffle(order)
        G = nx.Graph(g.edges())
        G.add_nodes_from(range(n))
        colors = nx.coloring.greedy_color(G, strategy=lambda G, colors: iter(order))
        assert greedy_color(g, order).color_of == tuple(colors[v] for v in range(n))
