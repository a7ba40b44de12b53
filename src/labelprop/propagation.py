"""Label propagation: update rule, timing models, tie handling, stopping.

Each vertex repeatedly adopts a most frequent label among its neighbors;
connected groups that reach label consensus become communities.  A step
runs a list of stages one after another.  Every update of a stage reads
the labels as of the stage's start, and the stage's changes take effect
when it ends.  The three timing models differ only in their stages:

* synchronous: one stage of all the vertices, which so read the
  previous step's labels;
* asynchronous: one stage per vertex, in a per-step random permutation,
  so each update reads the labels the earlier ones left;
* semi-synchronous: one stage per class of a proper coloring, in
  ascending color order.

Ties (several labels sharing the maximum neighbor count) are resolved by
one of four strategies: uniform random, keep-current-if-maximal (Prec),
highest label value (Max), or Prec then Max.

Randomized decisions draw from per-decision streams derived from
``(seed, step, stage, vertex)``, and a stage reads only the labels of its
start, so results never depend on the order in which the updates of one
stage are executed: any within-stage order gives bit-identical labels.

Within run, a step re-evaluates only the active vertices: those with a
neighbor whose label changed since they were last evaluated, plus those
whose last evaluation was a RANDOM tie.  Skipping the others is exact.
A vertex's choice depends only on its neighbors' labels and its own, and
its own label is the one its unchanged neighborhood chose last time,
which every tie rule but RANDOM keeps choosing, without a draw: Max picks
the same largest label and Prec and Prec-Max keep the current one.  A
RANDOM tie draws from a fresh stream each step, so it stays active.  The
monochromatic-edge count f is updated from the edges at changed vertices
rather than recounted.

On graphs of at least graphs.ARRAY_MIN_EDGES edges, with numpy
installed, the synchronous and semi-synchronous steps run in the array
kernel of the _arrays module instead of the sweep, which takes the same
arguments and gives the same labels, change sets, f and tie-stream
draws, with each stage counted and resolved at once, whatever the
labels.  The initial f count and run's coloring check read the list of
same-label edges (graphs.same_label_edges), which is built in numpy on
the same graphs.  Async steps, smaller graphs and installs without numpy
run the Python loops, which the tests use as the arrays' reference.

Nothing re-checks the update rule at run time: the tests check that every
update adopts a maximal neighbor label, against the reference step code
in tests/oracles.py and against networkx's Prec-Max semi-synchronous
label propagation.  What run does check is the convergence theorem, on
every async and semi-synchronous step (MonotoneViolation; see run).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor  # noqa: F401 - bench/layers.py patches this name
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from .coloring import Coloring, _check_permutation
from .graphs import Graph, _arrays_for, same_label_edges
from .rng import Stream, mix64

_TAG_TIE = 0x1
_TAG_PERM = 0x2


class TieStrategy(Enum):
    RANDOM = "random"
    PREC = "prec"
    MAX = "max"
    PREC_MAX = "prec-max"


class TimingModel(Enum):
    SYNCHRONOUS = "sync"
    ASYNCHRONOUS = "async"
    SEMI_SYNCHRONOUS = "semi-sync"


class StopCriterion(Enum):
    """When to stop iterating.

    NO_CHANGE stops once a step changes nothing.  C1 stops once the last
    step made no non-tie change: each vertex that changed label had two
    or more maximal labels when it updated.  Tie flags reflect each
    vertex's view at its own update, so C1 can stop at a labeling that
    fails labels_locally_maximal: in seeded karate experiments, up to
    about 7 percent of trials, depending on timing, tie and seed.  C2
    stops when the labeling equals the one from one or two steps earlier;
    it is sound only for synchronous Max-family runs (which never cycle
    with period above two) and may stop inside a longer cycle elsewhere.
    """

    NO_CHANGE = "no-change"
    C1 = "c1"
    C2 = "c2"


class RunStatus(Enum):
    RUNNING = "running"
    CONVERGED = "converged"
    CAP_EXCEEDED = "cap_exceeded"


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a propagation run on a given graph."""

    timing: TimingModel
    tie: TieStrategy
    stop: StopCriterion = StopCriterion.C1
    seed: int = 0
    step_cap: int = 1000
    initial_labels: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.step_cap < 1:
            raise ValueError("step_cap must be at least 1")


@dataclass(frozen=True)
class LabelState:
    """Labeling after `step` completed steps, plus its change history.

    ``f_trace[i-1]`` is the monochromatic-edge count after step ``i``;
    ``f_start`` is the count for the initial labeling.  ``last_changed``
    and ``last_tie_changed`` describe the most recent step: which
    vertices changed label, and which of those changed only because of a
    tie (the update's maximal-label set had two or more members).
    """

    labels: tuple[int, ...]
    step: int
    f_start: int
    f_trace: tuple[int, ...]
    status: RunStatus = RunStatus.RUNNING
    stop_reason: str | None = None
    last_changed: frozenset[int] = frozenset()
    last_tie_changed: frozenset[int] = frozenset()


@dataclass(frozen=True)
class RunMetrics:
    steps: int
    stages: int
    num_colors: int | None
    f_start: int
    f_trace: tuple[int, ...]
    status: RunStatus
    stop_reason: str | None


class DecisionRng:
    """Derives the independent per-decision streams for one run."""

    __slots__ = ("seed",)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def tie_stream(self, step: int, stage: int, vertex: int) -> Stream:
        return Stream(mix64(self.seed, _TAG_TIE, step, stage, vertex))

    def step_permutation(self, step: int, n: int) -> list[int]:
        return Stream(mix64(self.seed, _TAG_PERM, step)).permutation(n)


def monochromatic_edge_count(graph: Graph, labels: Sequence[int]) -> int:
    """Number of edges whose endpoints share a label (see graphs.same_label_edges)."""
    return len(same_label_edges(graph, labels)[0])


def neighbor_frequencies(graph: Graph, v: int, labels: Sequence[int]) -> dict[int, int]:
    """Count each label among N(v); empty for isolated vertices."""
    counts: dict[int, int] = {}
    for u in graph.adjacency[v]:
        label = labels[u]
        counts[label] = counts.get(label, 0) + 1
    return counts


def _argmax_labels(freqs: dict[int, int]) -> list[int]:
    best = max(freqs.values())
    cands = [label for label, count in freqs.items() if count == best]
    cands.sort()
    return cands


def _pick(cands: list[int], current: int, tie: TieStrategy, stream: "Stream | None") -> int:
    if len(cands) == 1:
        return cands[0]
    if tie is TieStrategy.MAX:
        return cands[-1]
    if tie is TieStrategy.PREC_MAX:
        return current if current in cands else cands[-1]
    if tie is TieStrategy.PREC and current in cands:
        return current
    if stream is None:
        raise ValueError("randomized tie resolution needs a stream")
    return cands[stream.below(len(cands))]


def _sweep(
    graph: Graph,
    labels: Sequence[int],
    stages: Iterable[Sequence[int]],
    tie: TieStrategy,
    rng: DecisionRng,
    step_no: int,
    active: bytearray,
) -> tuple[tuple[int, ...], int, set[int], set[int]]:
    """One step over `stages` (vertex groups updated one after another), in
    Python: the reference of _arrays.step, with its parameters and result.

    Every update of a stage reads the labels as of the stage's start.  Its
    label change, and the flags it sets on the vertex's neighbors, take
    effect when the stage ends.  The stage's index seeds the tie streams of
    its vertices.  Isolated vertices keep their label.

    Only the vertices flagged in `active` are evaluated, and the flags are
    left set for the vertices the next step must evaluate.  An evaluation
    clears the vertex's flag, except after a RANDOM tie, whose next draw
    comes from a fresh stream.  Returns the new labels, the change of the
    monochromatic-edge count, the changed vertices and those of them that
    changed on a tie; f is updated from the edges at changed vertices.
    """
    old = labels
    labels = list(old)
    adjacency = graph.adjacency
    random_ties = tie is TieStrategy.RANDOM
    changed: set[int] = set()
    tie_changed: set[int] = set()
    for stage, members in enumerate(stages):
        moves = None
        for v in members:
            if not active[v]:
                continue
            if not adjacency[v]:
                active[v] = 0
                continue
            cands = _argmax_labels(neighbor_frequencies(graph, v, labels))
            tie_flag = len(cands) > 1
            if not (tie_flag and random_ties):
                active[v] = 0
            current = labels[v]
            stream = None
            if tie_flag and (random_ties or (tie is TieStrategy.PREC and current not in cands)):
                stream = rng.tie_stream(step_no, stage, v)
            new = _pick(cands, current, tie, stream)
            if new != current:
                if moves is None:
                    moves = []
                moves.append((v, new))
                changed.add(v)
                if tie_flag:
                    tie_changed.add(v)
        if moves:
            for v, new in moves:
                labels[v] = new
                for u in adjacency[v]:
                    active[u] = 1
    f_delta = 0
    for v in changed:
        old_v, new_v = old[v], labels[v]
        for u in adjacency[v]:
            if u > v or u not in changed:  # an edge between two changed vertices counts once
                f_delta += (labels[u] == new_v) - (old[u] == old_v)
    return tuple(labels), f_delta, changed, tie_changed


def _step(
    graph: Graph,
    state: LabelState,
    stages: Iterable[Sequence[int]],
    tie: TieStrategy,
    rng: DecisionRng,
    active: "bytearray | None",
    arrays,
) -> LabelState:
    """The state after one step over `stages`: by the array kernel when
    `arrays` is the _arrays module, else by the sweep.  `active` None
    evaluates every vertex."""
    if active is None:
        active = bytearray(b"\x01") * graph.n
    labels, f_delta, changed, tie_changed = (_sweep if arrays is None else arrays.step)(
        graph, state.labels, stages, tie, rng, state.step + 1, active
    )
    f = state.f_trace[-1] if state.f_trace else state.f_start
    return LabelState(
        labels,
        state.step + 1,
        state.f_start,
        state.f_trace + (f + f_delta,),
        state.status,
        state.stop_reason,
        frozenset(changed),
        frozenset(tie_changed),
    )


def sync_step(
    graph: Graph,
    state: LabelState,
    tie: TieStrategy,
    rng: DecisionRng,
    *,
    active: "bytearray | None" = None,
) -> LabelState:
    """One synchronous step: all vertices form one stage, so every update
    reads the previous step's labels.

    Pass `active` to restrict the step to flagged vertices (see run).
    Large graphs take the array kernel (see the module docstring).
    """
    return _step(graph, state, (range(graph.n),), tie, rng, active, _arrays_for(graph.m))


def async_step(
    graph: Graph,
    state: LabelState,
    tie: TieStrategy,
    rng: DecisionRng,
    order: "Sequence[int] | None" = None,
    *,
    active: "bytearray | None" = None,
) -> LabelState:
    """One asynchronous step: each vertex is a stage of its own, in a fresh
    random permutation.

    Each update reads the labels left by the stages before it, so earlier
    positions in the permutation contribute this step's labels and later
    ones the previous step's.  A vertex's position is its stage index.
    Inherently sequential within the step, so it always sweeps.  Pass
    `order` to pin the permutation instead of drawing it from `rng`, and
    `active` to restrict the step to flagged vertices (see run).
    """
    if order is None:
        order = rng.step_permutation(state.step + 1, graph.n)
    else:
        _check_permutation(order, graph.n, "order")
    return _step(graph, state, zip(order), tie, rng, active, None)


def semi_sync_step(
    graph: Graph,
    state: LabelState,
    coloring: Coloring,
    tie: TieStrategy,
    rng: DecisionRng,
    *,
    active: "bytearray | None" = None,
) -> LabelState:
    """One staged step: color classes update in ascending class order.

    Within a stage every vertex of the class updates from the labels as
    of the stage start, and properness guarantees no two stage-mates are
    adjacent, so the processing order within a stage cannot matter.  The
    coloring is checked first unless `active` is passed: that restricts
    the step to flagged vertices, and its caller, run, checks the
    coloring once.  Large graphs take the array kernel (see the module
    docstring).
    """
    if active is None:
        coloring.check_proper(graph)
    return _step(graph, state, coloring.classes, tie, rng, active, _arrays_for(graph.m))


def labels_locally_maximal(graph: Graph, labels: Sequence[int]) -> bool:
    """True iff every non-isolated vertex holds a maximal-frequency neighbor label.

    This re-evaluates maximality on the labeling as given, unlike C1
    ("no non-tie change in the last step"), which trusts the tie flags
    recorded while the step ran.  A staged step can satisfy C1 yet leave
    some vertex non-maximal with respect to the final labeling, because
    flags reflect each vertex's stage-time view.  Once this predicate
    holds, a further step under PREC or PREC_MAX changes nothing.
    """
    for v in range(graph.n):
        counts = neighbor_frequencies(graph, v, labels)
        if counts and counts.get(labels[v], 0) != max(counts.values()):
            return False
    return True


def initial_state(graph: Graph, labels: "Sequence[int] | None" = None) -> LabelState:
    if labels is None:
        labels = range(graph.n)
    labels = tuple(labels)
    if len(labels) != graph.n:
        raise ValueError(f"need {graph.n} labels, got {len(labels)}")
    if any(not isinstance(label, int) or label < 0 for label in labels):
        raise ValueError("labels must be non-negative integers")
    return LabelState(
        labels=labels,
        step=0,
        f_start=monochromatic_edge_count(graph, labels),
        f_trace=(),
    )


def stage_count(timing: TimingModel, steps: int, n: int, num_colors: "int | None" = None) -> int:
    """Stages executed by a completed run: one stage is one atomic batch
    of simultaneous updates (a color class, a single vertex, or all of V).

    This counts batches, not dependency depth.  An async step has n
    stages, but its longest chain of updates that read one another is
    about 50 on a 20,000-vertex planted partition and 6-10 on karate.
    """
    if timing is TimingModel.SEMI_SYNCHRONOUS:
        if num_colors is None:
            raise ValueError("semi-synchronous stage accounting needs the color count")
        return steps * num_colors
    if timing is TimingModel.ASYNCHRONOUS:
        return steps * n
    return steps


class MonotoneViolation(RuntimeError):
    """A step broke the convergence theorem: it made a change that must
    raise the monochromatic-edge potential, and the potential did not grow."""


def _check_monotone(state: LabelState, must_raise: "frozenset[int]") -> None:
    if not must_raise:
        return
    f_now = state.f_trace[-1]
    f_prev = state.f_trace[-2] if len(state.f_trace) >= 2 else state.f_start
    if f_now <= f_prev:
        raise MonotoneViolation(
            f"step {state.step}: monochromatic edges went {f_prev} -> {f_now} "
            f"despite changes at {sorted(must_raise)}"
        )


def run(
    graph: Graph,
    config: RunConfig,
    coloring: "Coloring | None" = None,
) -> tuple[LabelState, RunMetrics]:
    """Iterate the configured step until the stop criterion fires or the
    step cap is reached.

    A coloring is required for (and only for) semi-synchronous timing and
    is validated up front.  Hitting the cap is not an error: the state
    comes back with CAP_EXCEEDED status (synchronous random-tie runs may
    legitimately never settle).

    Async and semi-synchronous steps are checked against the convergence
    theorem.  No two updates of one of their stages are adjacent, so no
    update lowers the monochromatic-edge count f, and one that leaves a
    non-maximal label (every non-tie change, and every Prec or Prec-Max
    change) raises it.  A step fails, with MonotoneViolation, if f did not
    grow although it made

        timing            tie               changes
        async, semi-sync  prec, prec-max    any
        async, semi-sync  max, random       a non-tie one
        sync              any               (no check: sync can oscillate)

    As f is at most m, such Prec and Prec-Max runs stop by NO_CHANGE
    within ``m - f_start + 1`` steps at a labeling labels_locally_maximal
    accepts, and C1 runs within as many under every tie rule.  C2 stops
    on a step without changes (period 1) or at the labeling of two steps
    back (period 2).

    The first step evaluates every vertex; each later one only the
    vertices a neighbor's label change or a RANDOM tie left active (see
    the module docstring for why this gives the same labels as evaluating
    all of them).  f is recounted only for the initial labeling.
    """
    if config.timing is TimingModel.SEMI_SYNCHRONOUS:
        if coloring is None:
            raise ValueError("semi-synchronous timing requires a coloring")
        coloring.check_proper(graph)
    elif coloring is not None:
        raise ValueError(f"{config.timing.value} timing does not take a coloring")

    state = initial_state(graph, config.initial_labels)
    rng = DecisionRng(config.seed)
    active = bytearray(b"\x01") * graph.n
    prec_family = config.tie is TieStrategy.PREC or config.tie is TieStrategy.PREC_MAX
    two_back = None  # for C2: the labeling two steps before the current one
    while state.step < config.step_cap:
        one_back = state.labels
        if config.timing is TimingModel.SYNCHRONOUS:
            state = sync_step(graph, state, config.tie, rng, active=active)
        elif config.timing is TimingModel.ASYNCHRONOUS:
            state = async_step(graph, state, config.tie, rng, active=active)
        else:
            state = semi_sync_step(graph, state, coloring, config.tie, rng, active=active)
        non_tie = state.last_changed - state.last_tie_changed
        if config.timing is not TimingModel.SYNCHRONOUS:
            _check_monotone(state, state.last_changed if prec_family else non_tie)

        reason = None
        if config.stop is StopCriterion.NO_CHANGE:
            if not state.last_changed:
                reason = "no-change"
        elif config.stop is StopCriterion.C1:
            if not non_tie:
                reason = "c1"
        elif not state.last_changed:
            reason = "c2-period-1"
        elif state.labels == two_back:
            reason = "c2-period-2"
        two_back = one_back
        if reason is not None:
            state = replace(state, status=RunStatus.CONVERGED, stop_reason=reason)
            break
    else:
        state = replace(state, status=RunStatus.CAP_EXCEEDED, stop_reason="step-cap")

    num_colors = coloring.num_colors if coloring is not None else None
    metrics = RunMetrics(
        steps=state.step,
        stages=stage_count(config.timing, state.step, graph.n, num_colors),
        num_colors=num_colors,
        f_start=state.f_start,
        f_trace=state.f_trace,
        status=state.status,
        stop_reason=state.stop_reason,
    )
    return state, metrics
