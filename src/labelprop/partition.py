"""Communities from labelings, and partition quality scoring.

A community is a connected group of vertices sharing a final label;
identically labeled but disconnected groups count as distinct
communities.  Quality is the usual modularity: the observed fraction of
intra-community edges minus its expectation under a degree-preserving
random null model.

Extraction is a union-find over the same-label edges
(``graphs.same_label_edges``), with one scheme on both of its paths.  A
union hooks the larger root under the smaller, so every parent is no
larger than its child and each root is its component's smallest vertex.
Each same-label edge, internal as a community shares one label, counts
at its lower end.  One ascending pass numbers the communities: a root
opens the next one, any other vertex joins its parent's.  On graphs of
at least ``graphs.ARRAY_MIN_EDGES`` edges, with numpy installed, this
runs in numpy (``_arrays.communities``); the Python loop is its
reference and the path of every other graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, _arrays_for, same_label_edges


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
    lower, upper = same_label_edges(graph, labels)
    arrays = _arrays_for(graph.m)
    if arrays is not None:
        return _partition(*arrays.communities(graph, lower, upper))
    parent = list(range(graph.n))

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for v, u in zip(lower, upper):
        ru, rv = find(u), find(v)
        if ru > rv:
            parent[ru] = rv
        elif ru < rv:
            parent[rv] = ru
    community_of: list[int] = []
    members: list[list[int]] = []
    for v, p in enumerate(parent):
        if p == v:  # a root opens the next community
            community_of.append(len(members))
            members.append([v])
        else:  # p < v, numbered already
            community_of.append(community_of[p])
            members[community_of[p]].append(v)
    internal = [0] * len(members)
    for v in lower:  # a same-label edge, counted at its lower end
        internal[community_of[v]] += 1
    adjacency = graph.adjacency
    degree_sum = [sum(len(adjacency[v]) for v in mem) for mem in members]
    return _partition(community_of, [tuple(mem) for mem in members], internal, degree_sum)


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
