"""Proper vertex colorings defining the staged update schedule.

A coloring partitions the vertices into classes with no monochromatic
edge; the class list order is the stage order used by the staged
(semi-synchronous) propagation model.  Greedy coloring over any vertex
permutation needs at most ``max_degree + 1`` colors.

Checking a coloring lists its monochromatic edges
(``graphs.same_label_edges``, in numpy on large graphs) and names the
first one, if any.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, same_label_edges


@dataclass(frozen=True)
class Coloring:
    """A proper coloring: per-vertex color plus the ordered color classes."""

    color_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def num_colors(self) -> int:
        return len(self.classes)

    def check_proper(self, graph: Graph) -> None:
        """Raise ValueError unless this is a proper coloring partitioning V
        into non-empty classes."""
        n = graph.n
        if len(self.color_of) != n:
            raise ValueError("coloring size does not match graph")
        seen = [False] * n
        for c, cls in enumerate(self.classes):
            if not cls:
                raise ValueError(f"class {c} is empty")
            for v in cls:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} in class {c} out of range [0, {n})")
                if seen[v]:
                    raise ValueError(f"vertex {v} is listed more than once")
                if self.color_of[v] != c:
                    raise ValueError(f"vertex {v} listed in class {c} but colored {self.color_of[v]}")
                seen[v] = True
        if not all(seen):
            raise ValueError("classes do not cover all vertices")
        lower, upper = same_label_edges(graph, self.color_of)
        if len(lower):
            raise ValueError(f"edge {{{upper[0]}, {lower[0]}}} is monochromatic under the coloring")


def _check_permutation(order: "list[int] | tuple[int, ...]", n: int, what: str) -> None:
    if len(order) != n or sorted(order) != list(range(n)):
        raise ValueError(f"{what} must be a permutation of 0..{n - 1}")


def greedy_color(graph: Graph, order: "list[int] | tuple[int, ...]") -> Coloring:
    """Color vertices in `order`, giving each the smallest color unused by
    its already-colored neighbors.

    The result is proper and uses at most ``graph.max_degree() + 1``
    colors.  Identical (graph, order) inputs produce identical colorings.
    """
    _check_permutation(order, graph.n, "order")
    color_of = [-1] * graph.n
    for v in order:
        used = {color_of[u] for u in graph.adjacency[v] if color_of[u] >= 0}
        c = 0
        while c in used:
            c += 1
        color_of[v] = c
    num = max(color_of) + 1 if color_of else 0
    classes = [[] for _ in range(num)]
    for v, c in enumerate(color_of):
        classes[c].append(v)
    return Coloring(
        color_of=tuple(color_of),
        classes=tuple(tuple(cls) for cls in classes),
    )


def color_from_labels(graph: Graph, initial_labels: "list[int] | tuple[int, ...]") -> Coloring:
    """Greedy coloring visiting vertices in increasing initial-label order."""
    _check_permutation(initial_labels, graph.n, "initial_labels")
    order = sorted(range(graph.n), key=lambda v: initial_labels[v])
    return greedy_color(graph, order)


def coloring_csv(coloring: Coloring) -> str:
    lines = ["vertex,color"]
    lines.extend(f"{v},{c}" for v, c in enumerate(coloring.color_of))
    return "\n".join(lines) + "\n"
