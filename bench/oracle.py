"""The benchmark's own check of a ``run`` command's output.

Recomputes modularity of the emitted membership from the generated edges,
without the package, so a change that corrupts communities or their
score fails the run whatever seed it uses.
"""

from __future__ import annotations

import json
import math

TOLERANCE = 1e-9


def dense_order(kind: str, n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Generated vertex id of each dense id the loader assigns.

    The edge-list loader numbers vertices by first appearance; the GML
    file declares nodes in id order.
    """
    if kind == "hubbed":
        return list(range(n))
    seen: dict[int, None] = {}
    for u, v in edges:
        seen.setdefault(u)
        seen.setdefault(v)
    return list(seen)


def modularity(edges: list[tuple[int, int]], community_of: dict[int, int]) -> float:
    m = len(edges)
    internal: dict[int, int] = {}
    degree: dict[int, int] = {}
    for u, v in edges:
        cu, cv = community_of[u], community_of[v]
        degree[cu] = degree.get(cu, 0) + 1
        degree[cv] = degree.get(cv, 0) + 1
        if cu == cv:
            internal[cu] = internal.get(cu, 0) + 1
    return math.fsum(internal.get(c, 0) / m - (d / (2 * m)) ** 2 for c, d in degree.items())


def check_run_output(stdout: str, order: list[int], edges: list[tuple[int, int]]) -> str | None:
    """None when the output is consistent, else what is wrong with it."""
    result = json.loads(stdout)["result"]
    membership = result["membership"]
    if len(membership) != len(order):
        return f"membership has {len(membership)} entries for {len(order)} vertices"
    if result["communities"] != len(set(membership)):
        return "community count disagrees with the membership"
    ours = modularity(edges, {order[d]: c for d, c in enumerate(membership)})
    if abs(ours - result["modularity"]) > TOLERANCE:
        return f"modularity {result['modularity']!r} but the edges give {ours!r}"
    return None
