"""Independent oracles the tests check the package against.

Nothing here imports from labelprop: modularity is evaluated from edges
and exact rational arithmetic, the staged propagation oracle is a
separate minimal implementation, and the Graph checks and GML loader are
the straightforward versions that the package's linear-time ones
replaced.  Expected values frozen into tests were produced by these
functions.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence, TextIO


def modularity_bruteforce(
    n: int, edges: Sequence[tuple[int, int]], membership: Sequence[int]
) -> Fraction:
    """Evaluate partition quality exactly from first principles."""
    m = len(edges)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    groups = sorted(set(membership))
    total = Fraction(0)
    for group in groups:
        members = {v for v in range(n) if membership[v] == group}
        internal = sum(1 for u, v in edges if u in members and v in members)
        degree_sum = sum(degree[v] for v in members)
        total += Fraction(internal, m) - Fraction(degree_sum, 2 * m) ** 2
    return total


def set_partitions(n: int) -> Iterable[tuple[int, ...]]:
    """All set partitions of range(n), as restricted growth strings."""

    def rec(prefix: list[int], used: int) -> Iterable[tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(used + 1):
            yield from rec(prefix + [c], used + (1 if c == used else 0))

    yield from rec([0], 1)


def random_graph(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Seeded Erdos-Renyi edge list on dense vertex ids."""
    return [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]


def staged_precmax_oracle(
    n: int, edges: Sequence[tuple[int, int]], init: Sequence[int]
) -> tuple[list[int], int]:
    """Minimal independent re-implementation of one configuration:
    greedy coloring over increasing initial labels, staged stepping with
    keep-current-else-max tie handling, stop when all changes were ties.

    Returns (final labels, steps taken).
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    order = sorted(range(n), key=lambda v: init[v])
    color = [-1] * n
    for v in order:
        used = {color[u] for u in adj[v] if color[u] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    classes = [
        [v for v in range(n) if color[v] == c] for c in range(max(color) + 1)
    ]

    labels = list(init)
    for step in range(1, 10_000):
        changed: set[int] = set()
        tie_changed: set[int] = set()
        for cls in classes:
            updates = {}
            for v in cls:
                if not adj[v]:
                    continue
                counts: dict[int, int] = {}
                for u in adj[v]:
                    counts[labels[u]] = counts.get(labels[u], 0) + 1
                best = max(counts.values())
                cands = sorted(l for l, c in counts.items() if c == best)
                new = labels[v] if labels[v] in cands else cands[-1]
                if new != labels[v]:
                    changed.add(v)
                    if len(cands) > 1:
                        tie_changed.add(v)
                updates[v] = new
            for v, new in updates.items():
                labels[v] = new
        if changed <= tie_changed:
            return labels, step
    raise AssertionError("oracle failed to converge")


def graph_check_oracle(
    n: int,
    m: int,
    adjacency: Sequence[Sequence[int]],
    external_names: "Sequence[str] | None" = None,
) -> "str | None":
    """The quadratic-in-degree Graph validation, kept as a reference.

    Returns the ValueError message the checks raise first, or None when
    the representation is valid.
    """
    if n != len(adjacency):
        return "n does not match adjacency length"
    if external_names is not None and len(external_names) != n:
        return "external_names length does not match n"
    half_degrees = 0
    for v, neigh in enumerate(adjacency):
        half_degrees += len(neigh)
        prev = -1
        for u in neigh:
            if u == v:
                return f"self-loop at vertex {v}"
            if u <= prev:
                return f"adjacency of {v} not sorted/duplicate-free"
            if not 0 <= u < n:
                return f"neighbor {u} of {v} out of range"
            prev = u
    if half_degrees != 2 * m:
        return "m inconsistent with adjacency lists"
    for v, neigh in enumerate(adjacency):
        for u in neigh:
            if v not in adjacency[u]:
                return f"edge {{{u}, {v}}} not symmetric"
    return None


# --- GML reference loader ---------------------------------------------------
#
# The line-by-line tokenizer and recursive block parser that the package's
# one-pass GML scanner replaced.  It materializes every token and every
# block, so it is only fit for small documents.


class GmlOracleError(Exception):
    """A rejected document; formatted like the package's GraphParseError."""

    def __init__(self, message: str, line: "int | None" = None) -> None:
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


def _gml_tokenize(source: "str | TextIO") -> Iterator[tuple[str, str, int]]:
    """Yield (kind, text, line) with kind in {'atom', 'string', 'open', 'close'}."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    for lineno, raw in enumerate(stream, start=1):
        rest = raw
        while rest:
            rest = rest.lstrip()
            if not rest:
                break
            ch = rest[0]
            if ch == "[":
                yield "open", "[", lineno
                rest = rest[1:]
            elif ch == "]":
                yield "close", "]", lineno
                rest = rest[1:]
            elif ch == '"':
                end = rest.find('"', 1)
                if end < 0:
                    raise GmlOracleError("unterminated string", lineno)
                yield "string", rest[1:end], lineno
                rest = rest[end + 1 :]
            elif ch == "#":
                break
            else:
                cut = len(rest)
                for stop in (" ", "\t", "[", "]", '"', "\n", "\r"):
                    pos = rest.find(stop)
                    if 0 <= pos < cut:
                        cut = pos
                yield "atom", rest[:cut], lineno
                rest = rest[cut:]


def _gml_parse_block(
    tokens: "list[tuple[str, str, int]]", pos: int, *, top: bool, opened_at: int
) -> tuple[list[tuple[str, object, int]], int]:
    """Parse key/value pairs until the matching ']'; values are scalars or sub-blocks."""
    entries: list[tuple[str, object, int]] = []
    while pos < len(tokens):
        kind, text, lineno = tokens[pos]
        if kind == "close":
            if top:
                raise GmlOracleError("unbalanced brackets: stray ']'", lineno)
            return entries, pos + 1
        if kind != "atom":
            raise GmlOracleError(f"expected a key, got {text!r}", lineno)
        key = text
        pos += 1
        if pos >= len(tokens):
            raise GmlOracleError(f"key {key!r} has no value", lineno)
        vkind, vtext, vline = tokens[pos]
        if vkind == "open":
            sub, pos = _gml_parse_block(tokens, pos + 1, top=False, opened_at=vline)
            entries.append((key, sub, lineno))
        elif vkind == "close":
            raise GmlOracleError(f"key {key!r} has no value", lineno)
        else:
            entries.append((key, vtext, lineno))
            pos += 1
    if not top:
        raise GmlOracleError("unbalanced brackets: block never closed", opened_at)
    return entries, pos


def gml_oracle(source: "str | TextIO") -> tuple:
    """Load a GML document the reference way.

    Returns ``(names, edges, report)``: vertex names in dense-id order,
    the sorted ``(u, v)`` pairs with ``u < v``, and ``(self_loops_dropped,
    duplicate_edges_dropped, symmetrized, weights_ignored)``.

    Raises:
        GmlOracleError: the document is rejected.
    """
    tokens = list(_gml_tokenize(source))
    entries, _ = _gml_parse_block(tokens, 0, top=True, opened_at=0)

    graph_block: "list[tuple[str, object, int]] | None" = None
    for key, value, lineno in entries:
        if key == "graph" and isinstance(value, list):
            graph_block = value
            break
    if graph_block is None:
        raise GmlOracleError("no 'graph [ ... ]' block found")

    names: list[str] = []
    id_to_vertex: dict[str, int] = {}
    directed = False
    weights_seen = False
    pending_edges: list[tuple[str, str, int]] = []

    for key, value, lineno in graph_block:
        if key == "directed" and not isinstance(value, list):
            directed = str(value).strip() == "1"
        elif key == "node" and isinstance(value, list):
            node_id: "str | None" = None
            label: "str | None" = None
            for nkey, nvalue, nline in value:
                if nkey == "id" and not isinstance(nvalue, list):
                    node_id = str(nvalue)
                elif nkey == "label" and not isinstance(nvalue, list):
                    label = str(nvalue)
            if node_id is None:
                raise GmlOracleError("node block missing 'id'", lineno)
            if node_id in id_to_vertex:
                raise GmlOracleError(f"duplicate node id {node_id}", lineno)
            id_to_vertex[node_id] = len(names)
            names.append(label if label is not None else node_id)
        elif key == "edge" and isinstance(value, list):
            src: "str | None" = None
            dst: "str | None" = None
            for ekey, evalue, eline in value:
                if isinstance(evalue, list):
                    continue
                if ekey == "source":
                    src = str(evalue)
                elif ekey == "target":
                    dst = str(evalue)
                elif ekey in ("weight", "value"):
                    weights_seen = True
            if src is None or dst is None:
                raise GmlOracleError("edge block missing source/target", lineno)
            pending_edges.append((src, dst, lineno))

    edges: set[tuple[int, int]] = set()
    self_loops = duplicates = 0
    for src, dst, lineno in pending_edges:
        if src not in id_to_vertex:
            raise GmlOracleError(f"edge references undeclared node {src}", lineno)
        if dst not in id_to_vertex:
            raise GmlOracleError(f"edge references undeclared node {dst}", lineno)
        u, v = sorted((id_to_vertex[src], id_to_vertex[dst]))
        if u == v:
            self_loops += 1
        elif (u, v) in edges:
            duplicates += 1
        else:
            edges.add((u, v))
    if not names:
        raise GmlOracleError("empty graph: no vertices found")
    return tuple(names), sorted(edges), (self_loops, duplicates, directed, weights_seen)
