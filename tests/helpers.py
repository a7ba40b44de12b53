"""Test-only helpers built on the package: a serializer and a scorer
input that no program path needs."""

from __future__ import annotations

from typing import Sequence

from labelprop.graphs import Graph
from labelprop.partition import Partition, _build_partition


def dump_edge_list(graph: Graph) -> str:
    """Serialize a Graph so that reloading reproduces identical dense ids.

    Lines are grouped by the larger endpoint in ascending order, which
    makes vertices first appear in id order.  A vertex with no smaller
    neighbor is introduced by a ``v v`` marker line; the loader drops the
    self-loop but keeps the vertex, so isolated vertices survive the
    round trip.
    """
    out: list[str] = []
    for v in range(graph.n):
        name = graph.name_of(v)
        if not any(u < v for u in graph.adjacency[v]):
            out.append(f"{name} {name}")
        for u in graph.adjacency[v]:
            if u < v:
                out.append(f"{graph.name_of(u)} {name}")
    return "\n".join(out) + "\n"


def partition_from_membership(graph: Graph, community_of: Sequence[int]) -> Partition:
    """Build a Partition from an explicit vertex -> community mapping.

    Unlike extract_communities this does not require the groups to be
    connected; it scores externally supplied partitions.
    """
    if len(community_of) != graph.n:
        raise ValueError(f"need {graph.n} assignments, got {len(community_of)}")
    return _build_partition(graph, community_of)
