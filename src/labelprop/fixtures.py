"""Small embedded benchmark graphs, shipped as edge-list data files."""

from __future__ import annotations

from dataclasses import replace
from importlib import resources

from .graphs import Graph, LoadReport, load_edge_list

_FILES = {
    "karate": "karate.edgelist",
    "c4": "c4.edgelist",
    "path3": "path3.edgelist",
    "star4": "star4.edgelist",
    "triangles-bridge": "triangles_bridge.edgelist",
}


def names() -> list[str]:
    return sorted(_FILES)


def fixture_text(name: str) -> str:
    try:
        filename = _FILES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(names())}")
    return resources.files(__package__).joinpath("data").joinpath(filename).read_text()


def load(name: str) -> tuple[Graph, LoadReport]:
    """The fixture graph and what loading it normalized away.

    A fixture's ``v v`` lines declare vertices in id order and are not
    counted as dropped self-loops; no fixture holds any other self-loop.
    """
    graph, report = load_edge_list(fixture_text(name))
    return graph, replace(report, self_loops_dropped=0)


def graph(name: str) -> Graph:
    return load(name)[0]


def karate_factions() -> list[int]:
    """Two-faction karate membership (0 = Mr. Hi's side, 1 = officers') by vertex."""
    text = resources.files(__package__).joinpath("data").joinpath("karate_factions.csv").read_text()
    membership: dict[int, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("vertex"):
            continue
        vertex, community = line.split(",")
        membership[int(vertex)] = int(community)
    return [membership[v] for v in range(len(membership))]
