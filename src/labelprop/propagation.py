"""Label propagation: update rule, timing models, tie handling, stopping.

Each vertex repeatedly adopts a most frequent label among its neighbors;
connected groups that reach label consensus become communities.  Three
timing models control when updates become visible:

* synchronous: every vertex updates from the previous step's labels;
* asynchronous: vertices update one at a time in a per-step random
  permutation, reading current labels;
* semi-synchronous: a proper coloring partitions the vertices into
  stages; each stage updates simultaneously, stages run in ascending
  color order within a step.

Ties (several labels sharing the maximum neighbor count) are resolved by
one of four strategies: uniform random, keep-current-if-maximal (Prec),
highest label value (Max), or Prec then Max.

All three models run the same sweep over (stage, vertex) pairs; they
differ only in when an update becomes visible.  Randomized decisions
draw from per-decision streams derived from ``(seed, step, stage,
vertex)``, so results never depend on the order in which the updates of
one stage are executed: any within-stage order gives bit-identical
labels.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 - bench/layers.py patches this name
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from .coloring import Coloring
from .graphs import Graph
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

    NO_CHANGE stops once a step changes nothing.  C1 stops once every
    change in the last step was tie-only: each vertex that changed label
    had two or more maximal labels when it updated (see check_c1).  Tie
    flags reflect each vertex's view at its own update, so C1 can stop at
    a labeling that fails labels_locally_maximal: in seeded karate
    experiments, up to about 7 percent of trials, depending on timing,
    tie and seed.  C2 stops when the labeling equals the one from one or
    two steps earlier; it is sound only for synchronous Max-family runs
    (which never cycle with period above two) and may stop inside a
    longer cycle elsewhere.
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
    """Number of edges whose endpoints share a label."""
    count = 0
    for v, neigh in enumerate(graph.adjacency):
        lv = labels[v]
        for u in neigh:
            if u > v and labels[u] == lv:
                count += 1
    return count


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


def resolve(freqs: dict[int, int], current: int, tie: TieStrategy, stream: "Stream | None" = None) -> int:
    """Pick the new label from a non-empty frequency table.

    Always returns a member of the maximal-count label set.  RANDOM draws
    uniformly from it; PREC keeps `current` when it is maximal and draws
    uniformly otherwise; MAX takes the largest maximal label; PREC_MAX
    keeps `current` when maximal, otherwise takes the largest.
    """
    if not freqs:
        raise ValueError("empty frequency table (isolated vertex?)")
    return _pick(_argmax_labels(freqs), current, tie, stream)


def _assert_in_argmax(neigh: tuple[int, ...], labels: Sequence[int], chosen: int) -> bool:
    # independent recount backing the update-rule conformance assert
    counts: dict[int, int] = {}
    for u in neigh:
        label = labels[u]
        counts[label] = counts.get(label, 0) + 1
    return counts.get(chosen, 0) == max(counts.values())


def _sweep(
    graph: Graph,
    state: LabelState,
    schedule: Iterable[tuple[int, int]],
    tie: TieStrategy,
    rng: DecisionRng,
    synchronous: bool,
) -> LabelState:
    """One step: update each vertex of the (stage, vertex) schedule in order.

    Synchronous updates all read the previous step's labels; otherwise
    each update is visible to every later one.  The stage index only
    seeds the vertex's tie stream.  Isolated vertices keep their label.
    """
    step = state.step + 1
    labels = list(state.labels)
    read = state.labels if synchronous else labels
    adjacency = graph.adjacency
    changed: set[int] = set()
    tie_changed: set[int] = set()
    for stage, v in schedule:
        if not adjacency[v]:
            continue
        cands = _argmax_labels(neighbor_frequencies(graph, v, read))
        tie_flag = len(cands) > 1
        current = read[v]
        stream = None
        if tie_flag and (
            tie is TieStrategy.RANDOM or (tie is TieStrategy.PREC and current not in cands)
        ):
            stream = rng.tie_stream(step, stage, v)
        new = _pick(cands, current, tie, stream)
        if __debug__:
            assert _assert_in_argmax(adjacency[v], read, new)
        if new != current:
            labels[v] = new
            changed.add(v)
            if tie_flag:
                tie_changed.add(v)
    final = tuple(labels)
    return replace(
        state,
        labels=final,
        step=step,
        f_trace=state.f_trace + (monochromatic_edge_count(graph, final),),
        last_changed=frozenset(changed),
        last_tie_changed=frozenset(tie_changed),
    )


def sync_step(graph: Graph, state: LabelState, tie: TieStrategy, rng: DecisionRng) -> LabelState:
    """One synchronous step: every vertex updates from the previous labels."""
    return _sweep(graph, state, ((0, v) for v in range(graph.n)), tie, rng, True)


def async_step(
    graph: Graph,
    state: LabelState,
    tie: TieStrategy,
    rng: DecisionRng,
    order: "Sequence[int] | None" = None,
) -> LabelState:
    """One asynchronous step: a fresh random permutation, updated in place.

    Each vertex reads current labels, so earlier positions in the
    permutation contribute this step's labels and later ones the previous
    step's.  Inherently sequential within the step.  Pass `order` to pin
    the permutation instead of drawing it from `rng`.
    """
    if order is None:
        order = rng.step_permutation(state.step + 1, graph.n)
    elif sorted(order) != list(range(graph.n)):
        raise ValueError("order must be a permutation of the vertices")
    return _sweep(graph, state, enumerate(order), tie, rng, False)


def semi_sync_step(
    graph: Graph,
    state: LabelState,
    coloring: Coloring,
    tie: TieStrategy,
    rng: DecisionRng,
) -> LabelState:
    """One staged step: color classes update in ascending class order.

    Within a stage every vertex of the class updates from the labels as
    of the stage start: properness guarantees no two stage-mates are
    adjacent, so updating in place reads the same labels, and the
    processing order within a stage cannot matter.
    """
    coloring.check_proper(graph)
    schedule = ((stage, v) for stage, cls in enumerate(coloring.classes) for v in cls)
    return _sweep(graph, state, schedule, tie, rng, False)


def check_c1(
    graph: Graph,
    prev_labels: Sequence[int],
    new_labels: Sequence[int],
    tie_changes: "frozenset[int] | set[int]",
) -> bool:
    """True iff every vertex kept its label or changed it only via a tie."""
    return all(
        new_labels[v] == prev_labels[v] or v in tie_changes
        for v in range(graph.n)
    )


def labels_locally_maximal(graph: Graph, labels: Sequence[int]) -> bool:
    """True iff every non-isolated vertex holds a maximal-frequency neighbor label.

    This re-evaluates maximality on the labeling as given, unlike
    check_c1 which trusts the tie flags recorded while the step ran.  A
    staged step can satisfy check_c1 yet leave some vertex non-maximal
    with respect to the final labeling, because flags reflect each
    vertex's stage-time view.  Once this predicate holds, a further step
    under PREC or PREC_MAX changes nothing.
    """
    for v in range(graph.n):
        counts = neighbor_frequencies(graph, v, labels)
        if counts and counts.get(labels[v], 0) != max(counts.values()):
            return False
    return True


def check_c2(history: Sequence[Sequence[int]]) -> int:
    """The period (1 or 2) with which the newest labeling repeats an
    earlier one, or 0 if it equals neither of the two before it."""
    if len(history) < 2:
        raise ValueError("need at least two labelings")
    current = tuple(history[-1])
    for period in (1, 2):
        if len(history) > period and current == tuple(history[-1 - period]):
            return period
    return 0


def initial_state(graph: Graph, labels: "Sequence[int] | None" = None) -> LabelState:
    if labels is None:
        labels = range(graph.n)
    labels = tuple(labels)
    if len(labels) != graph.n:
        raise ValueError(f"need {graph.n} labels, got {len(labels)}")
    if any(label < 0 for label in labels):
        raise ValueError("labels must be non-negative integers")
    return LabelState(
        labels=labels,
        step=0,
        f_start=monochromatic_edge_count(graph, labels),
        f_trace=(),
    )


def stage_count(timing: TimingModel, steps: int, n: int, num_colors: "int | None" = None) -> int:
    """Stages executed by a completed run: one stage is one atomic batch
    of simultaneous updates (a color class, a single vertex, or all of V)."""
    if timing is TimingModel.SEMI_SYNCHRONOUS:
        if num_colors is None:
            raise ValueError("semi-synchronous stage accounting needs the color count")
        return steps * num_colors
    if timing is TimingModel.ASYNCHRONOUS:
        return steps * n
    return steps


class MonotoneViolation(RuntimeError):
    """The staged model's monochromatic-edge potential failed to grow."""


def _check_monotone(state: LabelState) -> None:
    non_tie = state.last_changed - state.last_tie_changed
    if not non_tie:
        return
    f_now = state.f_trace[-1]
    f_prev = state.f_trace[-2] if len(state.f_trace) >= 2 else state.f_start
    if f_now <= f_prev:
        raise MonotoneViolation(
            f"step {state.step}: monochromatic edges went {f_prev} -> {f_now} "
            f"despite non-tie changes at {sorted(non_tie)}"
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
    legitimately never settle).  Every semi-synchronous step is checked
    against the staged model's convergence guarantee: a step containing a
    non-tie change must strictly increase the monochromatic-edge count,
    otherwise MonotoneViolation aborts the run.
    """
    if config.timing is TimingModel.SEMI_SYNCHRONOUS:
        if coloring is None:
            raise ValueError("semi-synchronous timing requires a coloring")
        coloring.check_proper(graph)
    elif coloring is not None:
        raise ValueError(f"{config.timing.value} timing does not take a coloring")

    state = initial_state(graph, config.initial_labels)
    rng = DecisionRng(config.seed)
    history: deque[tuple[int, ...]] = deque([state.labels], maxlen=3)
    while state.step < config.step_cap:
        if config.timing is TimingModel.SYNCHRONOUS:
            state = sync_step(graph, state, config.tie, rng)
        elif config.timing is TimingModel.ASYNCHRONOUS:
            state = async_step(graph, state, config.tie, rng)
        else:
            state = semi_sync_step(graph, state, coloring, config.tie, rng)
            _check_monotone(state)
        history.append(state.labels)

        reason = None
        if config.stop is StopCriterion.NO_CHANGE:
            if not state.last_changed:
                reason = "no-change"
        elif config.stop is StopCriterion.C1:
            if check_c1(graph, history[-2], state.labels, state.last_tie_changed):
                reason = "c1"
        else:
            period = check_c2(history)
            if period:
                reason = f"c2-period-{period}"
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
