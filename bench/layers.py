"""Per-layer spans around labelprop's public functions, patched from outside.

A span records busy time (``time.thread_time``, CPU time of the calling
thread), so two threads taking turns on the interpreter lock are not
counted twice.  Names are patched where callers look them up: ``cli``
and ``harness`` bind them with ``from ... import``, so their copies are
patched as well as the defining module's.

Work handed to pool threads is adopted by the main thread: a span that
opens in a pool thread with nothing below it (a decision batch of
``run``'s pool, or an experiment trial) adds its busy time to every
main-thread span open meanwhile.  Inclusive times are therefore busy time summed
over all worker threads, and a layer's self time is its inclusive time
minus that of its child spans wherever they ran.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from labelprop import cli, coloring, fixtures, graphs, harness, propagation, rng

Hook = Callable[["Tracer", tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._adopted = 0.0
        self.reset()

    def reset(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)  # span name -> inclusive
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)  # layer -> self time
        self.counts: dict[str, int] = defaultdict(int)  # filled by hooks
        self.trial_labels: list[tuple[graphs.Graph, tuple[int, ...]]] = []
        self.graph: graphs.Graph | None = None

    def span(self, layer: str, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            main = threading.get_ident() == tracer._main
            frame = [0.0, 0.0]  # busy time of child spans, of it adopted by them
            stack.append(frame)
            adopted0 = tracer._adopted
            start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.thread_time() - start
                stack.pop()
                adopted = 0.0
                with tracer._lock:
                    if main:
                        adopted = tracer._adopted - adopted0
                        dur += adopted
                        frame[0] += adopted - frame[1]
                    elif not stack:
                        tracer._adopted += dur
                    tracer.busy[name] += dur
                    tracer.calls[name] += 1
                    tracer.self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                    stack[-1][1] += adopted
            if hook is not None:
                with tracer._lock:
                    hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _keep_graph(t: Tracer, args: tuple, result) -> None:
    if t.graph is None:
        t.graph = result[0]


def _count_colors(t: Tracer, args: tuple, result) -> None:
    t.counts["colorings"] += 1
    t.counts["colors"] += result.num_colors


def _count_step(t: Tracer, args: tuple, result) -> None:
    graph = args[0]
    t.counts["updates"] += graph.n
    t.counts["changed"] += len(result.last_changed)
    t.counts["edge_visits"] += 2 * graph.m


def _count_communities(t: Tracer, args: tuple, result) -> None:
    t.counts["extracts"] += 1
    t.counts["communities"] += len(result.communities)


def _keep_trial_labels(t: Tracer, args: tuple, result) -> None:
    t.trial_labels.append((args[0], result[0].labels))


# (namespace, attribute, layer, span name, hook)
_FUNCTIONS = [
    (cli, "load_edge_list", "graphs", "graphs.load", _keep_graph),
    (cli, "load_gml", "graphs", "graphs.load", _keep_graph),
    (fixtures, "load", "graphs", "graphs.load", _keep_graph),
    (cli, "color_from_labels", "coloring", "coloring.color", _count_colors),
    (harness, "color_from_labels", "coloring", "coloring.color", _count_colors),
    (coloring.Coloring, "check_proper", "coloring", "coloring.check", None),
    (cli, "run", "propagation", "propagation.run", None),
    (harness, "run", "propagation", "propagation.run", _keep_trial_labels),
    (propagation, "sync_step", "propagation", "propagation.step.sync", _count_step),
    (propagation, "async_step", "propagation", "propagation.step.async", _count_step),
    (propagation, "semi_sync_step", "propagation", "propagation.step.semi_sync", _count_step),
    (propagation, "monochromatic_edge_count", "propagation", "propagation.mono", None),
    (rng.Stream, "permutation", "rng", "rng.permutation", None),
    (propagation.DecisionRng, "tie_stream", "rng", "rng.tie_stream", None),
    (cli, "extract_communities", "partition", "partition.extract", _count_communities),
    (harness, "extract_communities", "partition", "partition.extract", _count_communities),
    (cli, "modularity", "partition", "partition.modularity", None),
    (harness, "modularity", "partition", "partition.modularity", None),
    (cli, "partition_stats", "partition", "partition.stats", None),
    (harness, "partition_stats", "partition", "partition.stats", None),
    (cli, "run_experiment", "harness", "harness.experiment", None),
    (harness, "_run_one", "harness", "harness.trial", None),
    (cli, "trials_csv", "harness", "harness.csv", None),
]


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every span in; return the function that takes them out."""
    saved = []
    for owner, attr, layer, name, hook in _FUNCTIONS:
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.span(layer, name, original, hook))

    class Pool(ThreadPoolExecutor):
        # run() hands decision batches to its pool; span them so the
        # enclosing step adopts their busy time.
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.span("propagation", "propagation.batch", fn), *args, **kwargs)

    saved.append((propagation, "ThreadPoolExecutor", propagation.ThreadPoolExecutor))
    propagation.ThreadPoolExecutor = Pool
    build = graphs.Graph.__dict__["from_edges"]
    saved.append((graphs.Graph, "from_edges", build))
    graphs.Graph.from_edges = classmethod(tracer.span("graphs", "graphs.build", build.__func__))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def command_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer figures for the one traced command just run."""
    step_names = ("sync", "async", "semi_sync")
    step_s = sum(t.busy[f"propagation.step.{s}"] for s in step_names)
    steps = sum(t.calls[f"propagation.step.{s}"] for s in step_names)
    run_s = t.busy["propagation.run"]
    out = {
        "graphs.load_s": t.busy["graphs.load"],
        "graphs.build_s": t.busy["graphs.build"],
        "coloring.color_s": t.busy["coloring.color"],
        "coloring.check_s": t.busy["coloring.check"],
        "coloring.check_calls": t.calls["coloring.check"],
        "coloring.num_colors": _ratio(t.counts["colors"], t.counts["colorings"]),
        "coloring.check_share": _ratio(t.busy["coloring.check"], run_s),
        "propagation.run_s": run_s,
        "propagation.steps": steps,
        "propagation.ms_per_step": 1000 * _ratio(step_s, steps),
        "propagation.edge_visits_per_s": _ratio(t.counts["edge_visits"], step_s),
        "propagation.mono_s": t.busy["propagation.mono"],
        "propagation.mono_calls": t.calls["propagation.mono"],
        "propagation.mono_share": _ratio(t.busy["propagation.mono"], run_s),
        "propagation.useful_update_ratio": _ratio(t.counts["changed"], t.counts["updates"]),
        "rng.permutation_s": t.busy["rng.permutation"],
        "rng.permutation_calls": t.calls["rng.permutation"],
        "rng.tie_streams": t.calls["rng.tie_stream"],
        "partition.extract_s": t.busy["partition.extract"],
        "partition.modularity_s": t.busy["partition.modularity"],
        "partition.communities": _ratio(t.counts["communities"], t.counts["extracts"]),
        "harness.experiment_s": t.busy["harness.experiment"],
        "harness.trials": t.calls["harness.trial"],
        "harness.trial_self_s": t.self_s["harness"],
        "harness.c1_not_maximal": sum(
            not propagation.labels_locally_maximal(g, labels) for g, labels in t.trial_labels
        ),
        "cli.self_s": t.self_s["cli"],
    }
    for s in step_names:
        out[f"propagation.step_s.{s}"] = t.busy[f"propagation.step.{s}"]
    return out
