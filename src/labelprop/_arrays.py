"""numpy versions of labelprop's passes over every edge of a large graph.

``graphs._arrays_for`` picks them: for graphs with at least
``graphs.ARRAY_MIN_EDGES`` edges, when numpy is installed.  Each has a
pure-Python counterpart that smaller graphs and installs without numpy
run, and that the tests use as its reference: ``assemble`` builds a
loader's adjacency (``graphs._assemble``), ``step`` is one synchronous or
semi-synchronous step (``propagation._sweep``),
``same_label_edges`` lists the edges whose endpoints share a label
(``graphs.same_label_edges``, which the f count, the coloring check and
extraction read), and ``communities`` groups the vertices into the
components of those edges by the same union-find scheme, in rounds
(``partition.extract_communities``).  Every pass takes the CSR rows in
batches of about ``_BATCH_EDGES`` entries (``_rows``), so its temporary
arrays stay small whatever the graph's size.

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

from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph
from .propagation import DecisionRng, TieStrategy

# Rows gathered per batch.  It bounds the kernel's temporary arrays
# (tens of bytes an entry) whatever the size of a stage: on a 193k-edge
# graph, 16k entries a batch ran as fast as 64k and peaked 2 MiB lower.
_BATCH_EDGES = 1 << 14


def assemble(
    n: int, ends: list[int]
) -> tuple[tuple[tuple[int, ...], ...], int, tuple[np.ndarray, np.ndarray]]:
    """The adjacency, self-loop count and CSR arrays of the graph on `n`
    vertices whose edges `ends` lists pairwise, loops and repeats included.

    `ends` is emptied once it is converted.  Each edge gives the keys
    ``u * n + v`` and ``v * n + u``; sorted, with adjacent repeats
    dropped, they list every row's neighbors in order, so the keys modulo
    n are the CSR indices.  The neighbor tuples are built in row batches
    from one list of the n vertex ids, so that they share its int objects.
    """
    pairs = np.fromiter(ends, np.int32, len(ends))
    ends.clear()
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
    indices = keys.astype(np.int32, copy=False)
    ids = list(range(n))
    adjacency: list[tuple[int, ...]] = []
    for batch, _, neighbor in _rows(indptr, indices, np.arange(n, dtype=np.int32)):
        entries = neighbor.tolist()
        # itemgetter returns a tuple for two or more items, which slices into tuples
        row_ids = itemgetter(*entries)(ids) if len(entries) > 1 else tuple(ids[i] for i in entries)
        bounds = (indptr[batch[0]:batch[-1] + 2] - indptr[batch[0]]).tolist()
        adjacency.extend([row_ids[a:b] for a, b in zip(bounds, bounds[1:])])
    return tuple(adjacency), self_loops, (indptr, indices)


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
