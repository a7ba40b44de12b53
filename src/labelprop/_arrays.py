"""numpy versions of labelprop's passes over every edge of a large graph.

``graphs._arrays_for`` picks them: for graphs with at least
``graphs.ARRAY_MIN_EDGES`` edges, when numpy is installed.  Each has a
pure-Python counterpart that smaller graphs and installs without numpy
run, and that the tests use as its reference: ``read_edge_lines`` reads
an edge list whose vertex tokens are decimal integers
(``graphs.load_edge_list``'s line loop, which is also its fallback),
``assemble`` builds a
loader's adjacency as CSR arrays (``graphs._assemble``), from which
``adjacency`` builds the neighbor tuples at their first read and
``rows`` reads the rows greedy coloring takes while the tuples are not
built (``graphs.neighbor_rows``), ``step`` is one synchronous or
semi-synchronous step (``propagation._sweep``, which takes the same
arguments and returns the same tuple),
``same_label_edges`` lists the edges whose endpoints share a label
(``graphs.same_label_edges``, which the f count, the coloring check and
extraction read), and ``communities`` groups the vertices into the
components of those edges by the same union-find scheme, in rounds
(``partition.extract_communities``).  Every pass takes the CSR rows in
batches of about ``_BATCH_EDGES`` entries (``_rows``), so its temporary
arrays stay small whatever the graph's size.

The edge-list reader.  An edge list is chosen for it by the lines its
size could hold, and read in windows of ``_READ_WINDOW`` characters cut
after a line end, so its temporary arrays stay small too.  Each window
is checked and parsed in C: ``bytes.translate`` finds any byte but
digits and whitespace, one comparison marks the digits, whose edges give
every token's start and length and whose line ends must fall after every
second token, and ``np.fromstring`` parses the values.  ``np.unique``
numbers a window's distinct values, and one dict from value to id, looked
up once per distinct value a window, keeps ids in first-appearance order
across windows.  The ids of every window join one ``array("i")``, which
``assemble`` copies into numpy in one step (``np.fromiter`` over a list
of the same ids took about 15 ms on the planted file).  A window that
fails a check goes, with the rest of the input, to the line loop.

The step kernel.  Every update of a stage reads the labels as of the
stage start: a synchronous step is one stage that reads the previous
step's labels, and a semi-synchronous stage is a color class, whose
members are pairwise non-adjacent.  So a stage is one data-parallel
count-and-argmax over the CSR rows of its active vertices.  Per batch of
rows, each (owner, label) pair becomes the key
``owner * L + rank(label)``, where the ranks number the step's distinct
labels in increasing order; sorting the keys makes each pair a run, and
the run lengths are the neighbor counts.  The largest
``count * L + rank`` of an owner is its Max pick, and its number of runs
with the maximal count tells whether the update is a tie.  A stage's
writes and the flags of the changed vertices' neighbors are applied
after the whole stage.

Randomized picks (a RANDOM tie, or a PREC tie whose current label is not
maximal) draw in Python from the same ``rng.tie_stream(step, stage,
vertex)`` over the same sorted candidates as the pure sweep, so every
tie rule gives the sweep's labels, change sets and f, bit for bit.

Labels are an int64 array when they are all integers within int64, and
an object array otherwise, whose comparisons and ``np.unique`` run on
the Python objects: every pass takes any labeling the Python loops take.
Importing this module imports numpy.
"""

from __future__ import annotations

import io
import re
from array import array
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .graphs import Graph
from .propagation import DecisionRng, TieStrategy

# Rows gathered per batch.  It bounds the kernel's temporary arrays
# (tens of bytes an entry) whatever the size of a stage: on a 193k-edge
# graph, 16k entries a batch ran as fast as 64k and peaked 2 MiB lower.
_BATCH_EDGES = 1 << 14
# Characters per window of an edge list read in numpy, plus the rest of the
# window's last line.  A window's bytes, masks and values are made together
# (about 16 bytes a character), so this bounds the memory a read adds.  On
# the 2.1 MB planted file 256 Ki read in 91 ms (best of 15), 64 Ki in 109 ms
# with a peak about 1 MiB lower, and 1 Mi no faster.  Tests move it to put
# cuts anywhere.
_READ_WINDOW = 1 << 18
_DECIMAL_TEXT = b"0123456789 \t\r\n"  # the only bytes a window read in numpy holds
_HEAD = re.compile(r"(?:[^\S\n]*(?:#[^\n]*)?\n)*")  # blank and comment lines, as the line loop skips them


def read_edge_lines(lines: TextIO) -> tuple[dict[str, int], "array | list[int]", int, Iterable[str]]:
    """Read the edge lines of `lines` in numpy while their vertex tokens
    are decimal integers: ``graphs.load_edge_list``'s reader, whose line
    loop is its fallback and its test oracle.

    The input is read in windows of ``_READ_WINDOW`` characters and the
    rest of their last line; lines end at LF.  Blank and comment lines at
    the top are skipped.  A window is read in numpy only when it is ASCII,
    holds only digits, space, tab, CR and LF, and every line holds exactly
    two tokens, each a canonical decimal below 10**18 (``str(value)`` is
    the token).  Its values get ids in first-appearance order through one
    value-to-id table, and each new value's name ``str(value)`` joins the
    line loop's id map.

    Returns ``(ids, ends, lineno, rest)``: the id of each name, in id
    order, the endpoint ids of the lines read, the number of lines read,
    and the lines left for the line loop.  When every window was read,
    `ends` is an ``array("i")`` of 4-byte ints and `rest` is empty.
    Otherwise `rest` starts at the first window that failed a check and
    runs to the end of the input, and `ends` is a list the line loop
    extends.
    """
    ids: dict[str, int] = {}
    table: dict[int, int] = {}  # vertex value -> id
    ends = array("i")
    lineno = 0
    top = True
    while window := lines.read(_READ_WINDOW):
        if window[-1] != "\n":
            window += lines.readline()
        if top:
            head = _HEAD.match(window).end()
            lineno += window.count("\n", 0, head)
            window = window[head:]
            if not window:
                continue
            top = False
        values = _decimal_pairs(window)
        if values is None:
            return ids, ends.tolist(), lineno, chain(io.StringIO(window), lines)
        ends.frombytes(_ids(values, table, ids).tobytes())
        lineno += len(values) // 2
    return ids, ends, lineno, ()


def _decimal_pairs(window: str) -> np.ndarray | None:
    """The int64 values of the tokens of `window`, a run of whole lines,
    when every line holds two canonical decimals below 10**18; else None."""
    if not window.isascii():
        return None
    data = window.encode("ascii")
    if data.translate(None, _DECIMAL_TEXT):
        return None
    # padded so that every token has a non-digit on both sides and the last line an LF
    chars = np.frombuffer(b" " + data + (b"" if data[-1:] == b"\n" else b"\n"), np.uint8)
    digit = chars >= 48  # every byte left above the whitespace is a digit
    bounds = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    start, length = bounds[0::2], bounds[1::2] - bounds[0::2]
    newline = np.flatnonzero(chars == 10)
    # each line's two tokens start before its LF, and the next line's first after it
    if not (len(start) == 2 * len(newline) and (start[1::2] < newline).all() and (start[2::2] > newline[:-1]).all()):
        return None
    if length.max() > 18 or ((chars[start] == 48) & (length > 1)).any():  # too long, or a leading zero
        return None
    values = np.fromstring(data, np.int64, sep=" ")
    return values if len(values) == len(start) else None


def _ids(values: np.ndarray, table: dict[int, int], ids: dict[str, int]) -> np.ndarray:
    """The vertex ids of `values`, as int32.  Values not in `table` are
    numbered from ``len(ids)`` in order of first appearance and join
    `table`, and their names ``str(value)`` join `ids`."""
    distinct, inverse = np.unique(values, return_inverse=True)
    keys = distinct.tolist()
    found = np.fromiter(map(table.get, keys, repeat(-1)), np.int32, len(keys))
    new = np.flatnonzero(found < 0)
    if len(new):
        first = np.full(len(keys), len(values))
        np.minimum.at(first, inverse, np.arange(len(values)))
        new = new[np.argsort(first[new])]
        fresh = range(len(ids), len(ids) + len(new))
        found[new] = fresh
        new_keys = [keys[i] for i in new.tolist()]
        table.update(zip(new_keys, fresh))
        ids.update(zip(map(str, new_keys), fresh))
    return found[inverse]


def assemble(n: int, ends: "array | list[int]") -> tuple[int, tuple[np.ndarray, np.ndarray]]:
    """The self-loop count and CSR arrays of the graph on `n` vertices
    whose edges `ends` lists pairwise, loops and repeats included.

    `ends` is a list or ``read_edge_lines``' ``array("i")``, emptied
    once it is converted.  Each edge gives the keys
    ``u * n + v`` and ``v * n + u``; sorted, with adjacent repeats
    dropped, they list every row's neighbors in order, so the keys modulo
    n are the CSR indices.  No neighbor tuple is built: the graph builds
    them from the CSR at their first read (``adjacency``).
    """
    pairs = np.fromiter(ends, np.int32, len(ends)) if isinstance(ends, list) else np.array(ends, np.int32)
    del ends[:]
    u, v = pairs[0::2], pairs[1::2]
    half = len(u)
    key_type = np.int32 if n * n < 2**31 else np.int64
    keys = np.empty(2 * half, key_type)
    keys[:half], keys[half:] = u, v
    keys *= n
    keys[:half] += v
    keys[half:] += u
    loop = u == v
    self_loops = int(np.count_nonzero(loop))
    del pairs, u, v
    # n * n exceeds every edge's key, so the sort puts the self-loops last
    keys[:half][loop] = n * n
    keys[half:][loop] = n * n
    del loop
    keys.sort()
    keys = keys[:2 * (half - self_loops)]
    if len(keys):  # one bool mask: np.diff(keys, prepend=...) would copy the keys first
        new = np.empty(len(keys), bool)
        new[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        keys = keys[new]
        del new
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=key_type) * n).astype(np.int64, copy=False)
    np.remainder(keys, n, out=keys)
    return self_loops, (indptr, keys.astype(np.int32, copy=False))


def adjacency(csr: tuple[np.ndarray, np.ndarray]) -> tuple[tuple[int, ...], ...]:
    """The neighbor tuples of the CSR rows, built in row batches from one
    list of the n vertex ids, so that they share its int objects."""
    indptr, indices = csr
    ids = list(range(len(indptr) - 1))
    tuples: list[tuple[int, ...]] = []
    for entries, bounds in _row_lists(indptr, indices, np.arange(len(ids), dtype=np.int32)):
        # itemgetter returns a tuple for two or more items, which slices into tuples
        row_ids = itemgetter(*entries)(ids) if len(entries) > 1 else tuple(ids[i] for i in entries)
        tuples.extend([row_ids[a:b] for a, b in zip(bounds, bounds[1:])])
    return tuple(tuples)


def rows(csr: tuple[np.ndarray, np.ndarray], vertices: Sequence[int]) -> Iterator[list[int]]:
    """The neighbor ids of each of `vertices` in turn, as lists read from
    the CSR rows in batches (``graphs.neighbor_rows``)."""
    for entries, bounds in _row_lists(*csr, np.fromiter(vertices, np.int32, len(vertices))):
        yield from map(entries.__getitem__, map(slice, bounds, bounds[1:]))


def _row_lists(indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray) -> Iterator[tuple[list[int], list[int]]]:
    """Yield (entries, bounds) per batch of ``_rows``: the neighbor ids of
    its rows as one list, and the offsets where each row starts in it,
    then its end."""
    for batch, _, neighbor in _rows(indptr, indices, vertices):
        yield neighbor.tolist(), [0, *np.cumsum(indptr[batch + 1] - indptr[batch]).tolist()]


def _label_array(labels: Sequence) -> np.ndarray:
    """The labels as an int64 array when they are all integers within
    int64, else as an array of the label objects (numpy would cast a
    float label, or one beyond int64, to a float)."""
    lab = np.asarray(labels)
    if lab.dtype.kind == "i":
        return lab.astype(np.int64, copy=False)
    return np.fromiter(labels, object, len(labels))


def same_label_edges(graph: Graph, labels: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The edges whose endpoints share a label, once each: their lower
    and higher ends as int32 arrays, ordered by lower end, then higher
    end.  A batch without an equal pair, the usual case under identity
    labels and proper colorings, costs one comparison."""
    lab = _label_array(labels)
    indptr, indices = graph.csr
    # filled in place: concatenating per-batch pieces would hold two copies
    lower, upper = np.empty(graph.m, np.int32), np.empty(graph.m, np.int32)
    size = 0
    for batch, owner, neighbor in _rows(indptr, indices, np.arange(graph.n, dtype=np.int32)):
        same = lab[batch][owner] == lab[neighbor]  # each such edge twice, once from each end
        if same.any():
            v = batch[owner]
            same &= neighbor > v
            k = int(np.count_nonzero(same))
            lower[size:size + k], upper[size:size + k] = v[same], neighbor[same]
            size += k
    return lower[:size], upper[:size]


def communities(
    graph: Graph, lower: np.ndarray, upper: np.ndarray
) -> tuple[list[int], list[tuple[int, ...]], list[int], list[int]]:
    """The connected components of the edges `lower`-`upper` (the
    same-label edges, as same_label_edges lists them), numbered in order
    of their smallest vertex: each vertex's community index, and per
    community its members in order, internal edge count and degree sum.

    Every vertex points at its root, a vertex of its tree no larger than
    itself, and starts as its own.  A round takes the edges whose
    endpoints' roots differ, hooks each such pair's larger root under the
    smallest root it meets (np.minimum.at), then points every vertex at
    its root by pointer jumping to a fixed point; a round without such an
    edge ends the loop, and each root is then its component's minimum.  A
    root that another root hooked under this round has gained a vertex;
    one that neither hooked nor gained meets only smaller roots next
    round and hooks then.  So the roots that still meet another root at
    least halve every two rounds: at most 2 * log2(n) rounds, each one
    batched pass over the edges and at most log2(n) + 1 jumps.  The
    internal edges of a community are exactly its same-label edges, as
    its vertices share one label, so each is counted at its lower end, as
    in the Python loop.
    """
    n = graph.n
    indptr = graph.csr[0]
    root = np.arange(n, dtype=np.int32)
    while True:
        start = root.copy()  # the round reads the roots as of its start
        for lo in range(0, len(lower), _BATCH_EDGES):
            ra, rb = start[lower[lo:lo + _BATCH_EDGES]], start[upper[lo:lo + _BATCH_EDGES]]
            apart = ra != rb
            ra, rb = ra[apart], rb[apart]
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        if np.array_equal(root, start):
            break
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    is_root = root == np.arange(n, dtype=np.int32)
    community_of = (np.cumsum(is_root) - 1)[root]
    count = int(np.count_nonzero(is_root))
    same = np.bincount(lower, minlength=n)  # same-label edges, each at its lower end
    internal = np.bincount(community_of, weights=same, minlength=count).astype(np.int64)
    degree_sum = np.bincount(community_of, weights=np.diff(indptr), minlength=count).astype(np.int64)
    order = np.argsort(community_of, kind="stable").tolist()
    bounds = [0, *np.cumsum(np.bincount(community_of, minlength=count)).tolist()]
    members = [tuple(order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return community_of.tolist(), members, internal.tolist(), degree_sum.tolist()


def _rows(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (batch, owner, neighbor): the CSR rows of `vertices` in
    batches of about _BATCH_EDGES entries (at least one vertex each),
    with each entry's position in `batch` and its neighbor."""
    starts = indptr[vertices]
    degrees = indptr[vertices + 1] - starts
    ends = np.cumsum(degrees)
    lo = 0
    while lo < len(vertices):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, base + _BATCH_EDGES, side="right")), lo + 1)
        degs = degrees[lo:hi]
        owner = np.repeat(np.arange(hi - lo, dtype=np.int64), degs)  # keys need 64 bits
        shift = starts[lo:hi] - (ends[lo:hi] - degs - base)  # row start minus batch offset
        yield vertices[lo:hi], owner, indices[np.arange(int(ends[hi - 1]) - base) + shift[owner]]
        lo = hi


def step(
    graph: Graph,
    labels: Sequence[int],
    stages: Sequence[Sequence[int]],
    tie: TieStrategy,
    rng: DecisionRng,
    step_no: int,
    active: bytearray,
) -> tuple[tuple[int, ...], int, set[int], set[int]]:
    """One step over `stages` (vertex groups updated one after another).

    Returns the new labels, the change of the monochromatic-edge count,
    the changed vertices and those of them that changed on a tie.
    `active` is updated as the sweep updates it.
    """
    values, inverse = np.unique(_label_array(labels), return_inverse=True)
    cur = inverse.astype(np.int32)  # label ranks; a step adopts no label it did not start with
    width = len(values)
    indptr, indices = graph.csr
    flags = np.frombuffer(active, np.uint8)
    keep_prec = tie is TieStrategy.PREC or tie is TieStrategy.PREC_MAX
    f_delta = 0
    changed: list[np.ndarray] = []
    tie_changed: list[np.ndarray] = []
    for stage, members in enumerate(stages):
        vertices = np.fromiter(members, np.int32, len(members))
        vertices = vertices[flags[vertices] != 0]
        flags[vertices] = 0
        vertices = vertices[indptr[vertices + 1] > indptr[vertices]]  # isolated: keep the label
        moved, moved_to, moved_tie = [], [], []
        for batch, owner, neighbor in _rows(indptr, indices, vertices):
            keys = owner * width + cur[neighbor]
            keys.sort()
            first = np.flatnonzero(np.diff(keys, prepend=-1))  # run starts
            counts = np.diff(first, append=len(keys))
            run_owner, run_label = np.divmod(keys[first], width)
            owner_first = np.flatnonzero(np.diff(run_owner, prepend=-1))
            best_count, best = np.divmod(np.maximum.reduceat(counts * width + run_label, owner_first), width)
            maximal = counts == best_count[run_owner]
            num_max = np.add.reduceat(maximal.astype(np.int64), owner_first)
            is_tie = num_max > 1
            current = cur[batch]
            new = best
            if keep_prec:
                current_max = np.logical_or.reduceat(maximal & (run_label == current[run_owner]), owner_first)
                new = np.where(current_max, current, best)
            if tie is TieStrategy.RANDOM:
                draws = is_tie
                flags[batch[is_tie]] = 1  # a RANDOM tie draws afresh next step
            elif tie is TieStrategy.PREC:
                draws = is_tie & ~current_max
            else:
                draws = None
            if draws is not None and draws.any():
                candidates = run_label[maximal]  # grouped by owner, ascending
                offsets = np.cumsum(num_max) - num_max
                for i, v, lo, k in zip(
                    *(a.tolist() for a in (np.flatnonzero(draws), batch[draws], offsets[draws], num_max[draws]))
                ):
                    new[i] = candidates[lo + rng.tie_stream(step_no, stage, v).below(k)]
            moves = new != current
            moved.append(batch[moves])
            moved_to.append(new[moves])
            moved_tie.append(batch[moves & is_tie])
        moved = np.concatenate(moved) if moved else vertices[:0]
        if not moved.size:
            continue
        before = cur.copy()
        cur[moved] = np.concatenate(moved_to)
        f_delta += _apply(indptr, indices, moved, before, cur, flags)
        changed.append(moved)
        tie_changed.extend(moved_tie)
    if not changed:
        return tuple(labels), 0, set(), set()
    changed = np.concatenate(changed)
    new_labels = list(labels)  # unchanged labels keep their int objects
    for v, label in zip(changed.tolist(), values[cur[changed]].tolist()):
        new_labels[v] = label
    return tuple(new_labels), f_delta, set(changed.tolist()), set(np.concatenate(tie_changed).tolist())


def _apply(
    indptr: np.ndarray,
    indices: np.ndarray,
    moved: np.ndarray,
    before: np.ndarray,
    after: np.ndarray,
    flags: np.ndarray,
) -> int:
    """Flag the neighbors of the `moved` vertices and return the change of
    the monochromatic-edge count from labels `before` to `after`; an edge
    between two moved vertices counts once."""
    is_moved = np.zeros(len(after), bool)
    is_moved[moved] = True
    delta = 0
    for batch, owner, neighbor in _rows(indptr, indices, moved):
        flags[neighbor] = 1
        v = batch[owner]
        once = (neighbor > v) | ~is_moved[neighbor]
        u, v = neighbor[once], v[once]
        delta += int(np.count_nonzero(after[u] == after[v])) - int(np.count_nonzero(before[u] == before[v]))
    return delta
