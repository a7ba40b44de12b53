"""Array kernel for synchronous and semi-synchronous steps (numpy).

Every update of a stage reads the labels as of the stage start: a
synchronous step is one stage that reads the previous step's labels, and
a semi-synchronous stage is a color class, whose members are pairwise
non-adjacent.  So a stage is one data-parallel count-and-argmax over the
CSR rows of its active vertices.  Per batch of rows, each (owner, label)
pair becomes the key ``owner * L + rank(label)``, where the ranks number
the step's distinct labels in increasing order; sorting the keys makes
each pair a run, and the run lengths are the neighbor counts.  The
largest ``count * L + rank`` of an owner is its Max pick, and its number
of runs with the maximal count tells whether the update is a tie.  A
stage's writes and the flags of the changed vertices' neighbors are
applied after the whole stage.

Randomized picks (a RANDOM tie, or a PREC tie whose current label is not
maximal) draw in Python from the same ``rng.tie_stream(step, stage,
vertex)`` over the same sorted candidates as the pure sweep, so every
tie rule gives the sweep's labels, change sets and f, bit for bit.  The
sweep in propagation is this kernel's reference implementation.

Importing this module imports numpy; propagation does so only for
graphs with at least ``propagation.ARRAY_MIN_EDGES`` edges.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph
from .propagation import DecisionRng, TieStrategy

# Rows gathered per batch.  It bounds the kernel's temporary arrays
# (tens of bytes an entry) whatever the size of a stage: on a 193k-edge
# graph, 16k entries a batch ran as fast as 64k and peaked 2 MiB lower.
_BATCH_EDGES = 1 << 14


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
) -> "tuple[tuple[int, ...], int, set[int], set[int]] | None":
    """One step over `stages` (vertex groups updated one after another).

    Returns the new labels, the change of the monochromatic-edge count,
    the changed vertices and those of them that changed on a tie; or None
    when a label does not fit int64, leaving `active` untouched.  `active`
    is updated as the sweep updates it.
    """
    try:
        values, inverse = np.unique(np.array(labels, np.int64), return_inverse=True)
    except OverflowError:
        return None
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
