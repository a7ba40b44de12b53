"""Independent oracles the tests check the package against.

Nothing here imports from labelprop: modularity is evaluated from edges
and exact rational arithmetic, the staged propagation oracle is a
separate minimal implementation, the Graph checks and the edge-list and
GML loaders are the straightforward versions that the package's
linear-time ones replaced, and the reference propagation is the per-timing-model step
code that the package's single update sweep replaced.  Expected values frozen into tests were produced by these
functions.
"""

from __future__ import annotations

import io
import random
from collections import deque
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


def same_label_components(adjacency: Sequence[Sequence[int]], labels: Sequence[int]) -> list[int]:
    """Each vertex's connected component of the same-label edges, named by
    the vertex a breadth-first search of that component started from."""
    component = [-1] * len(adjacency)
    for start in range(len(adjacency)):
        if component[start] >= 0:
            continue
        component[start] = start
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adjacency[v]:
                if component[u] < 0 and labels[u] == labels[v]:
                    component[u] = start
                    queue.append(u)
    return component


def same_label_edges_bruteforce(adjacency: Sequence[Sequence[int]], labels: Sequence) -> list[tuple[int, int]]:
    """Every adjacent pair (v, u) with v < u and equal labels, sorted."""
    return sorted(
        (v, u) for v, u in combinations(range(len(adjacency)), 2) if u in adjacency[v] and labels[u] == labels[v]
    )


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
            if not 0 <= u < n:
                return f"neighbor {u} of {v} out of range"
            if u <= prev:
                return f"adjacency of {v} not sorted/duplicate-free"
            prev = u
    if half_degrees != 2 * m:
        return "m inconsistent with adjacency lists"
    for v, neigh in enumerate(adjacency):
        for u in neigh:
            if v not in adjacency[u]:
                return f"edge {{{u}, {v}}} not symmetric"
    return None


class OracleParseError(Exception):
    """A document a reference loader rejects; formatted like GraphParseError."""

    def __init__(self, message: str, line: "int | None" = None) -> None:
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


# --- edge-list reference loader ---------------------------------------------
#
# The loader that the package's flat endpoint list replaced: each edge is
# normalized to a (u, v) tuple with u < v and deduplicated in a set, and the
# adjacency is built from that set once the text has been read.


class _EdgeAccumulator:
    """Dense remap in first-appearance order, self-loop and duplicate drops."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        self.edges: set[tuple[int, int]] = set()
        self.self_loops = 0
        self.duplicates = 0

    def vertex(self, token: str) -> int:
        vid = self.ids.get(token)
        if vid is None:
            vid = len(self.names)
            self.ids[token] = vid
            self.names.append(token)
        return vid

    def edge(self, u: int, v: int) -> None:
        if u == v:
            self.self_loops += 1
            return
        key = (u, v) if u < v else (v, u)
        if key in self.edges:
            self.duplicates += 1
        else:
            self.edges.add(key)


def edge_list_oracle(source: "str | TextIO") -> tuple:
    """Load an edge list the reference way.

    Returns ``(names, adjacency, m, report)``: vertex names in dense-id
    order, each vertex's sorted neighbor tuple, the edge count, and
    ``(self_loops_dropped, duplicate_edges_dropped, symmetrized,
    weights_ignored)``.

    Raises:
        OracleParseError: the document is rejected.
    """
    acc = _EdgeAccumulator()
    for lineno, raw in enumerate(io.StringIO(source) if isinstance(source, str) else source, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise OracleParseError(f"expected two vertex tokens, got {len(parts)}", lineno)
        acc.edge(acc.vertex(parts[0]), acc.vertex(parts[1]))
    if not acc.names:
        raise OracleParseError("empty graph: no vertices found")
    neigh: list[list[int]] = [[] for _ in acc.names]
    for u, v in acc.edges:
        neigh[u].append(v)
        neigh[v].append(u)
    adjacency = tuple(tuple(sorted(a)) for a in neigh)
    report = (acc.self_loops, acc.duplicates, False, False)
    return tuple(acc.names), adjacency, len(acc.edges), report


# --- GML reference loader ---------------------------------------------------
#
# The line-by-line tokenizer and recursive block parser that the package's
# one-pass GML scanner replaced.  It materializes every token and every
# block, so it is only fit for small documents.


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
                    raise OracleParseError("unterminated string", lineno)
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
                raise OracleParseError("unbalanced brackets: stray ']'", lineno)
            return entries, pos + 1
        if kind != "atom":
            raise OracleParseError(f"expected a key, got {text!r}", lineno)
        key = text
        pos += 1
        if pos >= len(tokens):
            raise OracleParseError(f"key {key!r} has no value", lineno)
        vkind, vtext, vline = tokens[pos]
        if vkind == "open":
            sub, pos = _gml_parse_block(tokens, pos + 1, top=False, opened_at=vline)
            entries.append((key, sub, lineno))
        elif vkind == "close":
            raise OracleParseError(f"key {key!r} has no value", lineno)
        else:
            entries.append((key, vtext, lineno))
            pos += 1
    if not top:
        raise OracleParseError("unbalanced brackets: block never closed", opened_at)
    return entries, pos


def gml_oracle(source: "str | TextIO") -> tuple:
    """Load a GML document the reference way.

    Returns ``(names, edges, report)``: vertex names in dense-id order,
    the sorted ``(u, v)`` pairs with ``u < v``, and ``(self_loops_dropped,
    duplicate_edges_dropped, symmetrized, weights_ignored)``.

    Raises:
        OracleParseError: the document is rejected.
    """
    tokens = list(_gml_tokenize(source))
    entries, _ = _gml_parse_block(tokens, 0, top=True, opened_at=0)

    graph_block: "list[tuple[str, object, int]] | None" = None
    for key, value, lineno in entries:
        if key == "graph" and isinstance(value, list):
            graph_block = value
            break
    if graph_block is None:
        raise OracleParseError("no 'graph [ ... ]' block found")

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
                raise OracleParseError("node block missing 'id'", lineno)
            if node_id in id_to_vertex:
                raise OracleParseError(f"duplicate node id {node_id}", lineno)
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
                raise OracleParseError("edge block missing source/target", lineno)
            pending_edges.append((src, dst, lineno))

    edges: set[tuple[int, int]] = set()
    self_loops = duplicates = 0
    for src, dst, lineno in pending_edges:
        if src not in id_to_vertex:
            raise OracleParseError(f"edge references undeclared node {src}", lineno)
        if dst not in id_to_vertex:
            raise OracleParseError(f"edge references undeclared node {dst}", lineno)
        u, v = sorted((id_to_vertex[src], id_to_vertex[dst]))
        if u == v:
            self_loops += 1
        elif (u, v) in edges:
            duplicates += 1
        else:
            edges.add((u, v))
    if not names:
        raise OracleParseError("empty graph: no vertices found")
    return tuple(names), sorted(edges), (self_loops, duplicates, directed, weights_seen)


# --- reference propagation ----------------------------------------------------
#
# The step code that the package's single (stage, vertex) sweep replaced:
# a batch decider that reads a labeling without writing it, one step loop
# per timing model, and run()'s stop logic written out inline.  Timings,
# ties and stops are their string values; `rng` is any object with the
# package's DecisionRng methods `tie_stream(step, stage, vertex)` (a
# stream with `below(k)`) and `step_permutation(step, n)`.


def _reference_pick(cands: list[int], current: int, tie: str, stream) -> int:
    if len(cands) == 1:
        return cands[0]
    if tie == "max":
        return cands[-1]
    if tie == "prec-max":
        return current if current in cands else cands[-1]
    if tie == "prec" and current in cands:
        return current
    return cands[stream.below(len(cands))]


def reference_decide_batch(
    adjacency: Sequence[Sequence[int]],
    vertices: Iterable[int],
    labels: Sequence[int],
    tie: str,
    rng,
    step: int,
    stage_of: "Sequence[int] | None",
    stage: int,
) -> list[tuple[int, int, bool]]:
    """(vertex, new_label, tie_flag) for each non-isolated vertex; reads only `labels`."""
    out: list[tuple[int, int, bool]] = []
    for v in vertices:
        neigh = adjacency[v]
        if not neigh:
            continue
        counts: dict[int, int] = {}
        best = 0
        for u in neigh:
            label = labels[u]
            c = counts.get(label, 0) + 1
            counts[label] = c
            if c > best:
                best = c
        cands = [label for label, count in counts.items() if count == best]
        tie_flag = len(cands) > 1
        current = labels[v]
        if tie_flag:
            cands.sort()
            stream = None
            if tie == "random" or (tie == "prec" and current not in cands):
                s = stage_of[v] if stage_of is not None else stage
                stream = rng.tie_stream(step, s, v)
            new = _reference_pick(cands, current, tie, stream)
        else:
            new = cands[0]
        out.append((v, new, tie_flag))
    return out


def reference_f(adjacency: Sequence[Sequence[int]], labels: Sequence[int]) -> int:
    """Monochromatic-edge count."""
    return sum(
        1 for v, neigh in enumerate(adjacency) for u in neigh if u > v and labels[u] == labels[v]
    )


# A reference step maps (labels, step number) to (labels, changed, tie_changed).
StepResult = tuple[tuple[int, ...], set[int], set[int]]


def reference_sync_step(adjacency, labels, step: int, tie: str, rng) -> StepResult:
    old = tuple(labels)
    new = list(old)
    changed: set[int] = set()
    tie_changed: set[int] = set()
    for v, label, tie_flag in reference_decide_batch(
        adjacency, range(len(adjacency)), old, tie, rng, step, None, 0
    ):
        if label != old[v]:
            new[v] = label
            changed.add(v)
            if tie_flag:
                tie_changed.add(v)
    return tuple(new), changed, tie_changed


def reference_async_step(adjacency, labels, step: int, tie: str, rng, order=None) -> StepResult:
    if order is None:
        order = rng.step_permutation(step, len(adjacency))
    labels = list(labels)
    changed: set[int] = set()
    tie_changed: set[int] = set()
    for position, v in enumerate(order):
        for _, label, tie_flag in reference_decide_batch(
            adjacency, (v,), labels, tie, rng, step, None, position
        ):
            if label != labels[v]:
                labels[v] = label
                changed.add(v)
                if tie_flag:
                    tie_changed.add(v)
    return tuple(labels), changed, tie_changed


def reference_semi_sync_step(adjacency, labels, step: int, classes, tie: str, rng) -> StepResult:
    labels = list(labels)
    changed: set[int] = set()
    tie_changed: set[int] = set()
    for stage, cls in enumerate(classes):
        for v, label, tie_flag in reference_decide_batch(
            adjacency, cls, labels, tie, rng, step, None, stage
        ):
            if label != labels[v]:
                labels[v] = label
                changed.add(v)
                if tie_flag:
                    tie_changed.add(v)
    return tuple(labels), changed, tie_changed


def reference_run(
    adjacency: Sequence[Sequence[int]],
    timing: str,
    tie: str,
    stop: str,
    rng,
    step_cap: int,
    initial_labels: Sequence[int],
    classes: "Sequence[Sequence[int]] | None" = None,
) -> dict:
    """Step until the stop criterion fires or `step_cap` steps have run.

    Returns the final labels, step count, f before and after each step,
    status and stop reason, the last step's changed and tie-changed
    vertex sets, and the stage count.
    """
    labels = tuple(initial_labels)
    history = [labels]
    f_trace: list[int] = []
    changed: set[int] = set()
    tie_changed: set[int] = set()
    status, reason = "cap_exceeded", "step-cap"
    step = 0
    while step < step_cap:
        step += 1
        if timing == "sync":
            labels, changed, tie_changed = reference_sync_step(adjacency, labels, step, tie, rng)
        elif timing == "async":
            labels, changed, tie_changed = reference_async_step(adjacency, labels, step, tie, rng)
        else:
            labels, changed, tie_changed = reference_semi_sync_step(
                adjacency, labels, step, classes, tie, rng
            )
        f_trace.append(reference_f(adjacency, labels))
        history.append(labels)
        found = None
        if stop == "no-change":
            if not changed:
                found = "no-change"
        elif stop == "c1":
            if changed <= tie_changed:
                found = "c1"
        else:
            if labels == history[-2]:
                found = "c2-period-1"
            elif len(history) >= 3 and labels == history[-3]:
                found = "c2-period-2"
        if found is not None:
            status, reason = "converged", found
            break
    if timing == "sync":
        per_step = 1
    elif timing == "async":
        per_step = len(adjacency)
    else:
        per_step = len(classes)
    return {
        "labels": labels,
        "steps": step,
        "stages": step * per_step,
        "f_start": reference_f(adjacency, initial_labels),
        "f_trace": tuple(f_trace),
        "status": status,
        "stop_reason": reason,
        "last_changed": frozenset(changed),
        "last_tie_changed": frozenset(tie_changed),
    }
