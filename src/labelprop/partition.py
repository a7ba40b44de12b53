"""Communities from labelings, and partition quality scoring.

A community is a connected group of vertices sharing a final label;
identically labeled but disconnected groups count as distinct
communities.  Quality is the usual modularity: the observed fraction of
intra-community edges minus its expectation under a degree-preserving
random null model.

On graphs of at least ``graphs.ARRAY_MIN_EDGES`` edges, with numpy
installed, extraction runs in numpy (see ``_arrays.communities``); the
union-find below is its reference and the path of every other graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, _arrays_for


@dataclass(frozen=True)
class Community:
    members: tuple[int, ...]
    internal_edges: int
    degree_sum: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Partition:
    """Disjoint communities covering all vertices.

    Communities are ordered by their smallest member, and ``community_of``
    maps each vertex to its community's index in that order.
    """

    communities: tuple[Community, ...]
    community_of: tuple[int, ...]


@dataclass(frozen=True)
class PartitionStats:
    count: int
    largest: int
    sizes: tuple[int, ...]


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _build_partition(graph: Graph, group_of: Sequence[int]) -> Partition:
    """Assemble Community records from a vertex -> group-key mapping."""
    members_by_group: dict[int, list[int]] = {}
    for v in range(graph.n):
        members_by_group.setdefault(group_of[v], []).append(v)
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

    return _partition(index_of, [tuple(members) for members in ordered], internal, degree_sum)


def _partition(
    community_of: Sequence[int],
    members: Sequence[tuple[int, ...]],
    internal: Sequence[int],
    degree_sum: Sequence[int],
) -> Partition:
    communities = tuple(
        Community(members=mem, internal_edges=internal[i], degree_sum=degree_sum[i])
        for i, mem in enumerate(members)
    )
    return Partition(communities=communities, community_of=tuple(community_of))


def extract_communities(graph: Graph, labels: Sequence[int]) -> Partition:
    """Connected components of the subgraph induced by same-label edges."""
    if len(labels) != graph.n:
        raise ValueError(f"need {graph.n} labels, got {len(labels)}")
    arrays = _arrays_for(graph.m)
    if arrays is not None:
        found = arrays.communities(graph, labels)
        if found is not None:
            return _partition(*found)
    uf = _UnionFind(graph.n)
    for v in range(graph.n):
        lv = labels[v]
        for u in graph.adjacency[v]:
            if u > v and labels[u] == lv:
                uf.union(u, v)
    return _build_partition(graph, [uf.find(v) for v in range(graph.n)])


def modularity(graph: Graph, partition: Partition) -> float:
    """Partition quality via exact integer arithmetic.

    Computed as ``sum(4*m*|E(C)| - degsum(C)**2) / (4*m**2)``, a single
    correctly rounded division of two exact integers, so results are
    reproducible to the last bit regardless of community count or order.
    """
    m = graph.m
    if m == 0:
        raise ValueError("modularity is undefined on an edgeless graph")
    numerator = 0
    for community in partition.communities:
        numerator += 4 * m * community.internal_edges - community.degree_sum**2
    return numerator / (4 * m * m)


def partition_stats(partition: Partition) -> PartitionStats:
    sizes = tuple(c.size for c in partition.communities)
    return PartitionStats(count=len(sizes), largest=max(sizes), sizes=sizes)
