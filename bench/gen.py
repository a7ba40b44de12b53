"""Seeded input graphs for the benchmark workloads.

The generator is the benchmark's own (a splitmix64 stream written here),
not ``labelprop.rng`` and not the package's loaders or writers, so a
change to the package can never change a workload's input.  The same
seed always gives byte-identical files.

The graph's structure is drawn once, from ``STRUCTURE_SEED``.  The
workload seed draws how that graph is written: vertex names, and for GML
the order and orientation of the edges.  Neither changes the dense ids
the loaders assign (edge lists number vertices by first appearance and
keep their fixed line order; GML numbers them by declaration order), so
every seed gives the program the same graph and the same work.  Drawing
the structure per seed instead moves the step count of a run between 6
and 9 (semi-sync) or 5 and 28 (sync), which would make the command time
depend on the seed more than on the code under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

_MASK = (1 << 64) - 1
STRUCTURE_SEED = 1103


class SplitMix:
    """splitmix64 with a multiply-shift bounded draw."""

    def __init__(self, seed: int) -> None:
        self.state = (seed * 0xD1B54A32D192ED03 + 0x8BB84B93962EACC9) & _MASK

    def below(self, n: int) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
        return ((z ^ (z >> 31)) * n) >> 64

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class Shape:
    """Planted partition: equal blocks, optional hubs of fixed degree."""

    n: int = 20_000
    blocks: int = 100
    intra: int = 150_000
    inter: int = 43_261
    hubs: int = 0
    hub_degree: int = 0


# The ROADMAP baseline graph, and the same size with four hubs carrying
# 24,000 of its edges (hub degree is what makes Graph validation slow).
PLANTED = Shape()
HUBBED = Shape(intra=130_000, inter=39_261, hubs=4, hub_degree=6_000)


def planted_edges(shape: Shape, seed: int) -> list[tuple[int, int]]:
    """Distinct undirected edges, in shuffled order and orientation.

    Vertex ids are shuffled before blocks are cut, so blocks are not
    contiguous id ranges.  Hubs connect only to non-hub vertices and no
    other edge touches a hub, so every hub has exactly ``hub_degree``.
    """
    rng = SplitMix(seed)
    ids = list(range(shape.n))
    rng.shuffle(ids)
    size = shape.n // shape.blocks
    members = [ids[b * size:(b + 1) * size] for b in range(shape.blocks)]
    block_of = [0] * shape.n
    for b, mem in enumerate(members):
        for v in mem:
            block_of[v] = b
    hubs = {members[b][0] for b in range(shape.hubs)}  # one per block
    members = [[v for v in mem if v not in hubs] for mem in members]
    plain = [v for v in range(shape.n) if v not in hubs]

    seen: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        if u == v or key in seen:
            return False
        seen.add(key)
        return True

    for hub in sorted(hubs):
        got = 0
        while got < shape.hub_degree:
            got += add(hub, plain[rng.below(len(plain))])
    per_block, extra = divmod(shape.intra, shape.blocks)
    for b, mem in enumerate(members):
        want = per_block + (b < extra)
        got = 0
        while got < want:
            got += add(mem[rng.below(len(mem))], mem[rng.below(len(mem))])
    got = 0
    while got < shape.inter:
        u = plain[rng.below(len(plain))]
        v = plain[rng.below(len(plain))]
        if block_of[u] != block_of[v]:
            got += add(u, v)

    edges = sorted(seen)
    rng.shuffle(edges)
    return [(v, u) if rng.below(2) else (u, v) for u, v in edges]


def edge_list_text(shape: Shape, edges: list[tuple[int, int]], seed: int) -> str:
    """Edges in their fixed order; the seed renames the vertices."""
    name = list(range(shape.n))
    SplitMix(seed).shuffle(name)
    head = f"# planted partition n={shape.n} m={len(edges)} seed={seed}\n"
    return head + "".join(f"{name[u]} {name[v]}\n" for u, v in edges)


def gml_text(shape: Shape, edges: list[tuple[int, int]], seed: int) -> str:
    """GML laid out like Newman's public datasets: one key per line.

    Nodes are declared in vertex order; the seed renames them and
    shuffles the edges and their orientation.
    """
    rng = SplitMix(seed)
    name = list(range(shape.n))
    rng.shuffle(name)
    lines = list(edges)
    rng.shuffle(lines)
    out = [
        f"Creator \"labelprop benchmark, seed {seed}\"\n",
        "graph\n[\n  directed 0\n",
    ]
    out.extend(f"  node\n  [\n    id {name[v]}\n    label \"n{name[v]}\"\n  ]\n" for v in range(shape.n))
    for u, v in lines:
        if rng.below(2):
            u, v = v, u
        out.append(f"  edge\n  [\n    source {name[u]}\n    target {name[v]}\n    value 1\n  ]\n")
    out.append("]\n")
    return "".join(out)


@dataclass(frozen=True)
class Input:
    path: Path
    sha256: str
    n: int
    m: int
    max_degree: int
    sum_deg_sq: int
    size_bytes: int


def write_input(kind: str, seed: int, directory: Path) -> tuple[Input, list[tuple[int, int]]]:
    """Generate the input of kind 'planted' (edge list) or 'hubbed' (GML).

    Returns the file's description and the graph's edges, in edge-list
    line order, over unrenamed vertex ids.
    """
    shape = PLANTED if kind == "planted" else HUBBED
    edges = planted_edges(shape, STRUCTURE_SEED)
    if kind == "planted":
        path, text = directory / "planted.edgelist", edge_list_text(shape, edges, seed)
    else:
        path, text = directory / "hubbed.gml", gml_text(shape, edges, seed)
    data = text.encode()
    path.write_bytes(data)
    degree = [0] * shape.n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    info = Input(
        path=path,
        sha256=hashlib.sha256(data).hexdigest(),
        n=shape.n,
        m=len(edges),
        max_degree=max(degree),
        sum_deg_sq=sum(d * d for d in degree),
        size_bytes=len(data),
    )
    return info, edges
