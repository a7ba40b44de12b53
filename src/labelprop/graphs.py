"""Immutable simple undirected graphs and their ingestion.

Two text formats are supported:

* edge lists: one edge per line as two whitespace-separated vertex
  tokens; ``#`` starts a comment line.
* a GML subset: ``graph [ node [ id K ... ] ... edge [ source A
  target B ... ] ... ]`` with unknown keys (including nested blocks)
  skipped.  Only the first top-level ``graph`` block is read.  GML
  tokens are ``[``, ``]``, ``"strings"`` (closed on the same line) and
  atoms; any whitespace character separates tokens, but an atom ends
  only at a space, tab, bracket, quote, CR or LF, so a form feed or
  no-break space inside an atom is part of it.  ``#`` at the start of a
  token comments out the rest of the line.

Both loaders normalize to the same representation: vertex tokens are
remapped to dense ids ``0..n-1`` in first-appearance order, self-loops
are dropped, and parallel edges are deduplicated.  Everything dropped is
tallied in a :class:`LoadReport` so callers can surface it.

Ingestion is linear in the input size: each loader reads its text in one
pass, and :class:`Graph` validation costs O(n + m) whatever the degrees.
Only the sort of each vertex's neighbor list is not.  No object is made
per edge: the loaders append the two endpoint ids of every edge to one
flat list, and each vertex's neighbor tuple is built from it through a
set; the flat list, and each neighbor list once its tuple is built, are
freed before the whole adjacency is done.  With at least
``ARRAY_MIN_EDGES`` edge lines and numpy installed, the adjacency is
built in numpy instead (see ``_arrays.assemble``): one sort of the
two-way ``u * n + v`` keys gives the CSR arrays, which are all the graph
keeps, as its ``csr``.  Its neighbor tuples are built from them the
first time ``adjacency`` is read (``_arrays.adjacency``), with entries
that are the one int object of each vertex id, as on the Python path,
and kept; the passes over all the edges, greedy coloring
(``neighbor_rows``) and ``Graph.degree`` read the CSR instead, so a
one-shot sync or semi-sync run never builds them.  Either way the adjacency is sorted,
duplicate-free and symmetric by construction, so the loaders build
their Graph without validating it again.

An edge list that could hold ``ARRAY_MIN_EDGES`` lines, by the length of
its text or the size of its file, known before reading, is read in
numpy while its vertex tokens are decimal integers
(``_arrays.read_edge_lines``), and assembled in numpy.  It is taken in
windows of ``_arrays._READ_WINDOW`` characters cut after a line end, so
the reader's temporary arrays stay a few MiB whatever the input's size.
Blank and comment lines at the top are skipped; every other window is
read in numpy only when it is ASCII, holds only digits, space, tab, CR
and LF, and each of its lines holds two canonical decimals below 10**18,
with no leading zero, so that ``str(value)`` is the token.  The values
become ids through one value-to-id table, and the endpoint ids one
``array("i")`` of 4-byte ints, which assembly converts in one copy.  The
first window that fails a check, and every window after it, goes to the
line loop, which continues from the same ids and line count, so both
give the same graph, report and errors.  A smaller edge list never
imports numpy.

GML is read by
one regex scan, token by token, except for runs of node and edge blocks
right inside the graph block whose first block holds only key/value
scalars (``node [ id 5 label "x" value 1 ]``, ``edge [ source 5 target
6 ]``): each window of such a run, of at most ``_RUN_WINDOW``
characters, is split at whitespace in one call and checked by counts
over its tokens, and read only when every block has the first one's
keys and reads as the scan would read it.  The scan resumes after the
window; one that fails a check is scanned like the rest of the file, so
both give the same graph, report and errors.  Both loaders take text or
an open file, and read text as a file opened in text mode reads it, each
CRLF and lone CR as an LF.  The edge-list loader reads a file in windows
or line by line, so the CLI never holds an edge-list file whole.
"""

from __future__ import annotations

import io
import os
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NoReturn, Sequence, TextIO

# Passes over every edge of a graph with at least this many edges run in
# numpy, in the _arrays module, when numpy is installed: the adjacency's
# assembly at load (counted in edge lines, as m is not known before
# deduplication; for an edge list, in the lines its size could hold, as it
# is then also read in numpy), the synchronous and semi-synchronous
# propagation steps, the list of same-label edges (same_label_edges) and
# community extraction.  Below it the arrays' saving does not repay
# importing numpy (about 0.16 s and 10-14 MiB): at 150k edges a
# fresh-process `run` took the same time either way under sync Max, which
# stops after one step, and less with the kernel under semi-sync Prec-Max
# and random.
ARRAY_MIN_EDGES = 150_000


def _arrays_for(size: int):
    """The _arrays module when `size` (edges, edge lines, or the edge lines
    an input could hold) reaches ARRAY_MIN_EDGES and numpy imports, else
    None: the caller then runs its Python loop, which is also the array
    pass's test oracle."""
    if size < ARRAY_MIN_EDGES:
        return None
    try:
        from . import _arrays
    except ImportError:
        return None
    return _arrays


def same_label_edges(graph: Graph, labels: Sequence) -> tuple[Sequence[int], Sequence[int]]:
    """The edges whose two ends hold equal labels, once each, as two
    parallel sequences of their lower and higher ends, ordered by lower
    end, then higher end.

    Their number is the monochromatic-edge count f, a coloring is proper
    when it has none, and their connected components are the
    communities.  Large graphs list them in numpy
    (``_arrays.same_label_edges``), as int32 arrays.
    """
    arrays = _arrays_for(graph.m)
    if arrays is not None:
        return arrays.same_label_edges(graph, labels)
    lower: list[int] = []
    upper: list[int] = []
    for v, neigh in enumerate(graph.adjacency):
        lv = labels[v]
        for u in neigh:
            if u > v and labels[u] == lv:
                lower.append(v)
                upper.append(u)
    return lower, upper


class GraphParseError(ValueError):
    """A graph file could not be parsed; carries the offending line."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


@dataclass(frozen=True)
class LoadReport:
    """What ingestion had to normalize away."""

    self_loops_dropped: int = 0
    duplicate_edges_dropped: int = 0
    symmetrized: bool = False
    weights_ignored: bool = False


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph in adjacency-list form.

    Attributes:
        n: vertex count; vertex ids are dense in [0, n).
        m: edge count.
        adjacency: per-vertex sorted tuple of neighbor ids.
        external_names: original vertex identifiers in id order, when the
            graph came from a file; None for programmatically built graphs.

    Instances are immutable after construction and safe for concurrent
    reads.  The constructor validates simplicity and symmetry, so every
    Graph in circulation satisfies the representation invariants; only
    the loaders, whose adjacency holds them by construction, skip it.

    A loader that assembles in numpy stores only the CSR arrays (``csr``);
    the neighbor tuples are built from them the first time ``adjacency``
    is read, and kept.  Two threads that read it first at once may both
    build them; the tuples are equal, and one set is kept.  Equality,
    hashing and repr read ``adjacency``, so they build the tuples too, and
    agree with those of a graph built in Python.
    """

    n: int
    m: int
    adjacency: tuple[tuple[int, ...], ...]
    external_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n != len(self.adjacency):
            raise ValueError("n does not match adjacency length")
        if self.external_names is not None and len(self.external_names) != self.n:
            raise ValueError("external_names length does not match n")
        # cursor[u] is the position in adjacency[u] of the next higher
        # neighbor yet to list u.  Vertices are scanned in ascending order,
        # so u's higher neighbors list it in the order adjacency[u] has them.
        cursor = [0] * self.n
        symmetric = True
        half_degrees = 0
        for v, neigh in enumerate(self.adjacency):
            half_degrees += len(neigh)
            prev = -1
            for u in neigh:
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if u <= prev:
                    raise ValueError(f"adjacency of {v} not sorted/duplicate-free")
                prev = u
                if u < v:
                    c = cursor[u]
                    upper = self.adjacency[u]
                    if c < len(upper) and upper[c] == v:
                        cursor[u] = c + 1
                    else:
                        symmetric = False
            cursor[v] = bisect_left(neigh, v)
        if half_degrees != 2 * self.m:
            raise ValueError("m inconsistent with adjacency lists")
        if symmetric and cursor == [len(a) for a in self.adjacency]:
            return
        # Asymmetric: name the first offending edge in scan order.
        sets = [set(a) for a in self.adjacency]
        for v, neigh in enumerate(self.adjacency):
            for u in neigh:
                if v not in sets[u]:
                    raise ValueError(f"edge {{{u}, {v}}} not symmetric")

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: the neighbor
        # tuples of a graph that _trusted gave its CSR arrays instead.
        if name != "adjacency" or "csr" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        from . import _arrays

        adjacency = _arrays.adjacency(self.csr)
        object.__setattr__(self, "adjacency", adjacency)
        return adjacency

    @classmethod
    def _trusted(
        cls,
        n: int,
        m: int,
        adjacency: "tuple[tuple[int, ...], ...] | None",
        external_names: tuple[str, ...] | None,
        csr=None,
    ) -> "Graph":
        """A Graph built without validation, from an adjacency that is
        valid by construction: its neighbor tuples, or None and its `csr`,
        from which the tuples are built at their first read."""
        graph = cls.__new__(cls)
        # Set as the generated __init__ sets them: writing __dict__ directly
        # would slow every later attribute load on the instance.  A None is
        # left unset: external_names keeps its class default, adjacency is
        # built at first read, and a csr shadows the cached_property.
        for name, value in (("n", n), ("m", m), ("adjacency", adjacency), ("external_names", external_names),
                            ("csr", csr)):
            if value is not None:
                object.__setattr__(graph, name, value)
        return graph

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: "list[tuple[int, int]] | set[tuple[int, int]]",
        external_names: tuple[str, ...] | None = None,
    ) -> "Graph":
        """Build a Graph from clean (no loops, no duplicates) edge pairs."""
        neigh: list[list[int]] = [[] for _ in range(n)]
        count = 0
        for u, v in edges:
            neigh[u].append(v)
            neigh[v].append(u)
            count += 1
        return cls(
            n=n,
            m=count,
            adjacency=tuple(tuple(sorted(a)) for a in neigh),
            external_names=external_names,
        )

    @cached_property
    def csr(self):
        """The adjacency as numpy CSR arrays ``(indptr, indices)``, int64
        indptr and int32 indices, kept on the instance.  A loader that
        assembles in numpy stores them; otherwise they are built from the
        tuples at first use.

        Imports numpy: only the array passes of _arrays call this.
        """
        import numpy as np

        indptr = np.zeros(self.n + 1, np.int64)
        np.cumsum(np.fromiter(map(len, self.adjacency), np.int64, self.n), out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(self.adjacency), np.int32, 2 * self.m)
        return indptr, indices

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        adjacency = self.__dict__.get("adjacency")
        if adjacency is None:  # read from the CSR, not to build the tuples
            indptr = self.csr[0]
            return int(indptr[v + 1] - indptr[v])
        return len(adjacency[v])

    def max_degree(self) -> int:
        adjacency = self.__dict__.get("adjacency")
        if adjacency is None:  # read from the CSR, not to build the tuples
            indptr = self.csr[0]
            return int((indptr[1:] - indptr[:-1]).max(initial=0))
        return max(map(len, adjacency), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for v, neigh in enumerate(self.adjacency):
            for u in neigh:
                if u > v:
                    yield (v, u)


def neighbor_rows(graph: Graph, vertices: Sequence[int]) -> Iterable[Sequence[int]]:
    """The neighbor ids of each of `vertices` in turn: its tuple when the
    graph's tuples are built, else a list read from the CSR rows in
    batches (``_arrays.rows``), so that a pass over the rows does not
    build the tuples."""
    adjacency = graph.__dict__.get("adjacency")
    if adjacency is None:
        from . import _arrays

        return _arrays.rows(graph.csr, vertices)
    return map(adjacency.__getitem__, vertices)


def _assemble(
    names: list[str], ends, arrays, *, symmetrized: bool = False, weights_ignored: bool = False
) -> tuple[Graph, LoadReport]:
    """Build the Graph of the edges listed pairwise in ``ends``, and its report.

    ``ends`` holds two endpoint ids per edge line or block, self-loops and
    parallel edges included: a list, or the edge-list reader's
    ``array("i")``, which is emptied to free it before the adjacency is
    built.
    Self-loops are counted and dropped.  A
    parallel edge lands in its endpoints' neighbor lists again but not in
    their sets, so every non-loop pair beyond the m edges is a duplicate.
    `arrays` is the _arrays module when the loader chose numpy
    (``_arrays_for``), which builds only the CSR arrays (see the module
    docstring); else None, and this Python loop, its test oracle, builds
    the tuples.  The result is trusted: its adjacency is
    sorted, duplicate-free and symmetric by construction.
    """
    if not names:
        raise GraphParseError("empty graph: no vertices found")
    lines = len(ends) // 2
    if arrays is not None:
        adjacency = None  # built from the CSR at its first read
        self_loops, csr = arrays.assemble(len(names), ends)
        m = int(csr[0][-1]) // 2
    else:
        csr = None
        neigh: list = [[] for _ in names]
        self_loops = 0
        pairs = iter(ends)
        for u, v in zip(pairs, pairs):
            if u == v:
                self_loops += 1
            else:
                neigh[u].append(v)
                neigh[v].append(u)
        ends.clear()
        for v, a in enumerate(neigh):  # each list is freed as its tuple replaces it
            neigh[v] = tuple(sorted(set(a)))
        adjacency = tuple(neigh)
        m = sum(map(len, adjacency)) // 2
    graph = Graph._trusted(len(names), m, adjacency, tuple(names), csr)
    report = LoadReport(
        self_loops_dropped=self_loops,
        duplicate_edges_dropped=lines - self_loops - m,
        symmetrized=symmetrized,
        weights_ignored=weights_ignored,
    )
    return graph, report


def _universal_newlines(text: str) -> str:
    """`text` with each CRLF and lone CR made an LF, as a file opened in
    text mode reads it; text without a CR is returned as it is."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_edge_list(source: "str | TextIO") -> tuple[Graph, LoadReport]:
    """Parse edge-list text into a Graph plus its normalization report.

    Each non-empty, non-``#`` line must hold exactly two whitespace
    separated vertex tokens.  Tokens become dense ids in first-appearance
    order; the original tokens are retained as ``external_names``.  Lines
    end at LF: text is read as a file opened in text mode reads it, with
    each CRLF and lone CR taken as an LF, and an open file should end its
    lines at LF too, as text mode's default newline handling makes it.

    An input that could hold ``ARRAY_MIN_EDGES`` edge lines, by its length
    or its file's size, is read in numpy while its vertex tokens are
    decimal integers (``_arrays.read_edge_lines``); this line loop reads
    the rest, and everything else.

    Raises:
        GraphParseError: a line does not hold exactly two tokens, or the
            input contains no vertices at all.
    """
    if isinstance(source, str):
        source = _universal_newlines(source)
        size, lines = len(source), io.StringIO(source)
    else:
        lines = source
        try:
            size = os.fstat(source.fileno()).st_size
        except (OSError, ValueError):  # not a file (io.UnsupportedOperation is both)
            size = 0
    # An edge line takes at least 4 characters ("1 2\n", the last line 3).
    arrays = _arrays_for((size + 1) // 4)
    ids: dict[str, int] = {}
    ends: list = []
    lineno = 0
    if arrays is not None:
        ids, ends, lineno, lines = arrays.read_edge_lines(lines)
    vertex = ids.setdefault
    for lineno, raw in enumerate(lines, lineno + 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise GraphParseError(
                f"expected two vertex tokens, got {len(parts)}", line=lineno
            )
        ends += vertex(parts[0], len(ids)), vertex(parts[1], len(ids))
    # A StringIO's buffer takes 4 bytes a character: free it before the graph is built.
    del source, lines
    return _assemble(list(ids), ends, arrays)


# --- GML subset -----------------------------------------------------------

_GML_WEIGHT_KEYS = {"weight", "value"}
# One token per match, after any whitespace: a bracket, a string, an atom, a
# lone quote (an unterminated string), a comment, or the end.  No
# alternative starts with whitespace and the end is a match of its own, so
# the leading \s* never gives characters back (scans stay linear).
_GML_TOKEN = re.compile(r'\s*(?:(\[)|(\])|"([^"\n]*)"|([^\s\[\]"#][^ \t\[\]"\n\r]*)|(")|#[^\n]*|\Z)')
_OPEN, _CLOSE, _STRING, _ATOM, _QUOTE = 1, 2, 3, 4, 5
# The keys a node and an edge block must have for its run to be read in bulk.
_RUN_KEYS = {"node": {"id"}, "edge": {"source", "target"}}
# The most characters one bulk read of a run of blocks takes: a window's
# copy, its tokens and its id lists are made together, so this bounds the
# memory a read adds.  Tests move it to put cuts anywhere.
_RUN_WINDOW = 1 << 18
_EDGE_START = re.compile(r"edge\s*\[")  # where the scan of a declined node run stops
# The characters str.split() cuts at but an atom does not end at: every
# whitespace character but space, tab, CR and LF.
_SPLIT_ONLY_SPACES = (
    "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
    "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def _read_run(
    text: str, start: int, key: str, names: list[str], ends: list[int], id_to_vertex: dict[str, int]
) -> tuple[int, bool | None]:
    """Read in bulk the run of `key` blocks (``node`` or ``edge``) whose
    first one starts at `start` right inside the graph block.

    The first block sets the run's shape: its tokens when split at
    whitespace, ``key [ k1 v1 ... kj vj ]`` with distinct keys and no
    nested block, among them ``id`` for a node, ``source`` and ``target``
    for an edge.  A first block of no such shape declines the run: the
    result is ``(stop, None)``: the window's end ``start + _RUN_WINDOW``,
    or for a node run its first ``edge [``, so that the usual edges after
    nodes of no flat shape are still read in bulk.

    Otherwise the window is cut after the ``]`` of the run's last block
    that closes within ``_RUN_WINDOW`` characters, so that it ends where
    the block kind changes or the graph block closes.  It is split at
    whitespace once and read only when its tokens are exactly k blocks of
    the first one's keys that the token scan would read the same way: no
    ``#``, no whitespace but space, tab, CR and LF (``str.split`` cuts at
    form feed or no-break space, an atom does not), no quote but those of
    one string per value where the first block's value is quoted, node ids
    new and distinct, and edge endpoints already declared.  Then the nodes
    join `names` and `id_to_vertex`, the endpoint ids join `ends`, and the
    result is ``(end, weighted)``: the window's end and whether its edges
    carry a weight.  Otherwise nothing is read and the result is ``(end,
    None)``; the caller reads the window token by token.
    """
    limit = start + _RUN_WINDOW
    block = text[start : text.find("]", start, limit) + 1]
    shape = block.split()
    keys = shape[2:-1:2]
    if (
        shape[:2] != [key, "["] or len(shape) % 2 == 0 or block.count("[") != 1
        or len(set(keys)) != len(keys) or not _RUN_KEYS[key] <= set(keys)
    ):
        edge = _EDGE_START.search(text, start, limit) if key == "node" else None
        return (edge.start() if edge else limit), None
    stride = len(shape)
    last = max(text.rfind(key, start, limit), start)  # in the run's last block
    end = text.find("]", last, limit) + 1 or text.rfind("]", start, last) + 1
    window = text[start:end]
    toks = window.split()
    k = window.count("[")
    if (
        len(toks) != stride * k
        or window.count("]") != k
        or "#" in window
        or any(map(window.__contains__, _SPLIT_ONLY_SPACES))
        or not all(toks[i::stride].count(shape[i]) == k for i in (0, 1, *range(2, stride, 2)))
    ):
        return end, None
    fields = {}
    quoted = 0
    for i in range(3, stride - 1, 2):
        column = toks[i::stride]
        if shape[i][0] == '"':
            # k values that each start and end with a quote and, by the count
            # below, hold two quotes each: each is one string token.  Only
            # the length check refuses a lone quote as the one value (k = 1).
            joined = "\n".join(column)
            column = joined[1:-1].split('"\n"')
            if len(column) != k or len(joined) < 2 or joined[-1] != '"':
                return end, None
            quoted += 1
        fields[shape[i - 1]] = column
    if window.count('"') != 2 * k * quoted:
        return end, None
    if key == "edge":
        firsts, seconds = fields["source"], fields["target"]
        pairs = firsts + seconds
        pairs[::2], pairs[1::2] = firsts, seconds
        try:
            pairs = list(map(id_to_vertex.__getitem__, pairs))
        except KeyError:  # an edge names a node declared later, or never
            return end, None
        ends += pairs
        return end, not _GML_WEIGHT_KEYS.isdisjoint(keys)
    ids = fields["id"]
    new = dict(zip(ids, range(len(names), len(names) + k)))
    if len(new) != k or not new.keys().isdisjoint(id_to_vertex.keys()):
        return end, None  # a duplicate id: the token scan records it
    id_to_vertex.update(new)
    names += fields.get("label", ids)
    return end, False


def load_gml(source: "str | TextIO") -> tuple[Graph, LoadReport]:
    """Parse the GML subset used by the public community-detection datasets.

    Recognized keys: ``graph``, ``node`` (``id``, ``label``), ``edge``
    (``source``, ``target``), and ``directed``.  Edge weights are parsed
    but ignored (flagged in the report); a ``directed 1`` declaration is
    accepted and the edges are symmetrized (also flagged).  Anything else
    is skipped.

    Errors are reported in a fixed order whatever their position: an
    unterminated string, then bracket and key/value errors, then a
    missing ``graph`` block, then node and edge errors in block order,
    then edges that name undeclared nodes.

    Runs of node or edge blocks of one flat shape, the keys of the run's
    first block in its order with one scalar after each, are read in
    bulk (see ``_read_run``); the token scan reads everything else, and
    any window of a run that it would read differently, so the result is
    the scan's.
    """
    text = _universal_newlines(source) if isinstance(source, str) else source.read()
    tokens = _GML_TOKEN.finditer(text)

    def line(pos: int) -> int:
        return text.count("\n", 0, pos) + 1

    def fail(message: str, pos: int) -> NoReturn:
        for m in tokens:  # an unterminated string later on wins
            if m.lastindex == _QUOTE:
                message, pos = "unterminated string", m.end()
                break
        raise GraphParseError(message, line=line(pos))

    names: list[str] = []
    ends: list[int] = []  # two endpoint ids per edge block
    id_to_vertex: dict[str, int] = {}
    pending_edges: list[tuple[str, str, int]] = []  # endpoints not declared yet
    problem: tuple[str, int] | None = None  # first node/edge error
    directed = weights_seen = graph_seen = False
    # (role, key position, bracket position) per open block; the role is "graph"
    # for the first top-level graph block, "node"/"edge" for its children.
    stack: list[tuple[str | None, int, int]] = []
    fields: dict[str, str] = {}  # scalars of the open node/edge block
    key: str | None = None  # the key awaiting its value, which ends at key_pos
    key_pos = 0
    bulk_from = 0  # no run is read in bulk before the scan reaches this position
    while True:  # one pass of the for loop per stretch the token scan reads
        for m in tokens:
            kind = m.lastindex
            if kind is None:
                continue
            if kind == _QUOTE:
                raise GraphParseError("unterminated string", line=line(m.end()))
            if key is None:
                if kind == _ATOM:
                    key, key_pos = m[_ATOM], m.end()
                    if (
                        (key == "node" or key == "edge") and m.start(_ATOM) >= bulk_from and problem is None
                        and stack and stack[-1][0] == "graph"
                    ):
                        # A block right inside the graph block: read the run
                        # it starts in bulk, then scan on from its end.  A
                        # window that is declined or fails a check is read
                        # token by token.
                        bulk_from, weighted = _read_run(text, m.start(_ATOM), key, names, ends, id_to_vertex)
                        if weighted is not None:
                            key = None
                            weights_seen = weights_seen or weighted
                            tokens = _GML_TOKEN.finditer(text, bulk_from)
                            break
                    continue
                if kind != _CLOSE:
                    got = "[" if kind == _OPEN else m[_STRING]
                    fail(f"expected a key, got {got!r}", m.end())
                if not stack:
                    fail("unbalanced brackets: stray ']'", m.end())
                role, at, _ = stack.pop()
            elif kind == _CLOSE:
                fail(f"key {key!r} has no value", key_pos)
            else:  # the key's value: a block or a scalar
                role = stack[-1][0] if stack else None
                if kind == _OPEN:
                    if not stack and key == "graph" and not graph_seen:
                        role, graph_seen = "graph", True
                    elif role == "graph" and key in ("node", "edge"):
                        role, fields = key, {}
                    else:
                        role = None
                    stack.append((role, key_pos, m.end()))
                elif role == "node" or role == "edge":
                    fields[key] = m[kind]
                elif role == "graph" and key == "directed":
                    directed = m[kind].strip() == "1"
                key = None
                continue
            # A block with this role closed at its ']'.
            if role == "node" and problem is None:
                node_id = fields.get("id")
                if node_id is None:
                    problem = ("node block missing 'id'", at)
                elif node_id in id_to_vertex:
                    problem = (f"duplicate node id {node_id}", at)
                else:
                    # GML nodes are distinct even when their display labels collide.
                    id_to_vertex[node_id] = len(names)
                    names.append(fields.get("label", node_id))
            elif role == "edge" and problem is None:
                src, dst = fields.get("source"), fields.get("target")
                weights_seen = weights_seen or not _GML_WEIGHT_KEYS.isdisjoint(fields)
                if src is None or dst is None:
                    problem = ("edge block missing source/target", at)
                elif src in id_to_vertex and dst in id_to_vertex:
                    ends += id_to_vertex[src], id_to_vertex[dst]
                else:
                    pending_edges.append((src, dst, at))
        else:  # the scan reached the end
            break

    if key is not None:
        fail(f"key {key!r} has no value", key_pos)
    if stack:
        fail("unbalanced brackets: block never closed", stack[-1][2])
    if not graph_seen:
        raise GraphParseError("no 'graph [ ... ]' block found")
    if problem is not None:
        raise GraphParseError(problem[0], line=line(problem[1]))
    for src, dst, at in pending_edges:
        for end in (src, dst):
            if end not in id_to_vertex:
                raise GraphParseError(f"edge references undeclared node {end}", line=line(at))
        ends += id_to_vertex[src], id_to_vertex[dst]
    return _assemble(names, ends, _arrays_for(len(ends) // 2), symmetrized=directed, weights_ignored=weights_seen)
