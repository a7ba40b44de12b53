"""Test-only helpers built on the package: a serializer, and a Partition
builder that no program path needs and that serves as an extraction
oracle built another way."""

from __future__ import annotations

from typing import Sequence

from labelprop.graphs import Graph
from labelprop.partition import Community, Partition


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
    """Build a Partition from an explicit vertex -> group-key mapping.

    Unlike extract_communities this does not require the groups to be
    connected; it scores externally supplied partitions.  Groups are
    collected in a dict, ordered by their first member, and their edges
    counted in a second scan of every adjacency list.
    """
    if len(community_of) != graph.n:
        raise ValueError(f"need {graph.n} assignments, got {len(community_of)}")
    members_by_group: dict[int, list[int]] = {}
    for v in range(graph.n):
        members_by_group.setdefault(community_of[v], []).append(v)
    ordered = sorted(members_by_group.values(), key=lambda mem: mem[0])

    index_of = [0] * graph.n
    for index, members in enumerate(ordered):
        for v in members:
            index_of[v] = index

    internal = [0] * len(ordered)
    degree_sum = [0] * len(ordered)
    for v in range(graph.n):
        cv = index_of[v]
        degree_sum[cv] += len(graph.adjacency[v])
        for u in graph.adjacency[v]:
            if u > v and index_of[u] == cv:
                internal[cv] += 1

    communities = tuple(
        Community(members=tuple(mem), internal_edges=internal[i], degree_sum=degree_sum[i])
        for i, mem in enumerate(ordered)
    )
    return Partition(communities=communities, community_of=tuple(index_of))
