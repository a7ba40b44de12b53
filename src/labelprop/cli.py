"""Command-line front end: single runs, experiments, dataset inspection.

Exit codes: 0 success/converged, 1 input error, 2 step cap hit without
convergence, 64 usage error.  Graph arguments accept an embedded fixture
name (karate, c4, path3, star4, triangles-bridge) or a file path; paths
ending in .gml parse as GML, anything else as an edge list.  Files are
read and written as UTF-8, whatever the locale.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import fixtures
from .coloring import color_from_labels, coloring_csv
from .graphs import Graph, GraphParseError, LoadReport, load_edge_list, load_gml
from .harness import ExperimentSummary, TestSetting, run_experiments, trials_csv
from .harness import run_experiment  # noqa: F401 - bench/layers.py patches this name
from .partition import extract_communities, modularity, partition_stats
from .propagation import (
    RunConfig,
    RunStatus,
    StopCriterion,
    TieStrategy,
    TimingModel,
    run,
)

_TIE_CHOICES = ["lpa", "random", "prec", "max", "prec-max"]
_TIMING_CHOICES = ["sync", "async", "semi-sync"]
_STOP_CHOICES = ["no-change", "c1", "c2"]
_FORMAT_CHOICES = ["json", "csv", "plot-data"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> "None":  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _tie(value: str) -> TieStrategy:
    return TieStrategy.RANDOM if value == "lpa" else TieStrategy(value)


def load_graph(ref: str) -> tuple[Graph, LoadReport, str]:
    """Resolve a graph reference: an embedded fixture name or a file path.

    Paths ending in .gml parse as GML, anything else as an edge list.
    Returns the graph, its load report and the name to display.
    """
    if ref in fixtures.names():
        graph, report = fixtures.load(ref)
        return graph, report, ref
    path = Path(ref)
    loader = load_gml if path.suffix.lower() == ".gml" else load_edge_list
    with path.open(encoding="utf-8") as source:  # an edge list is read in windows, never held whole
        graph, report = loader(source)
    return graph, report, path.name


def _note_report(report: LoadReport) -> None:
    """Tell stderr what loading a graph normalized away, if anything."""
    dropped = {k: v for k, v in dataclasses.asdict(report).items() if v}
    if dropped:
        fields = " ".join(f"{k}={json.dumps(v)}" for k, v in dropped.items())
        print(f"note: load report: {fields}", file=sys.stderr)


def _emit(text: str, out: "Path | None" = None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


# --- run -------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    graph, report, name = load_graph(args.graph)
    _note_report(report)
    config = RunConfig(
        timing=TimingModel(args.timing),
        tie=_tie(args.tie),
        stop=StopCriterion(args.stop),
        seed=args.seed,
        step_cap=args.cap,
    )
    coloring = None
    if config.timing is TimingModel.SEMI_SYNCHRONOUS:
        coloring = color_from_labels(graph, list(range(graph.n)))
    if args.coloring_out is not None:
        if coloring is None:
            raise ValueError("--coloring-out only applies to semi-sync timing")
        Path(args.coloring_out).write_text(coloring_csv(coloring), encoding="utf-8")
    state, metrics = run(graph, config, coloring)
    part = extract_communities(graph, state.labels)
    stats = partition_stats(part)
    q = modularity(graph, part) if graph.m else None

    if args.format == "json":
        doc = {
            "graph": {"name": name, "n": graph.n, "m": graph.m},
            "config": {
                "timing": config.timing.value,
                "tie": config.tie.value,
                "stop": config.stop.value,
                "seed": config.seed,
                "step_cap": config.step_cap,
            },
            "result": {
                "status": state.status.value,
                "stop_reason": state.stop_reason,
                "steps": metrics.steps,
                "stages": metrics.stages,
                "num_colors": metrics.num_colors,
                "modularity": q,
                "f_start": metrics.f_start,
                "f_trace": list(metrics.f_trace),
                "communities": stats.count,
                "largest_community": stats.largest,
                "membership": list(part.community_of),
            },
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        lines = [
            f"# graph={name} status={state.status.value} stop_reason={state.stop_reason}",
            f"# modularity={q!r} steps={metrics.steps} stages={metrics.stages}",
            f"# f_trace={','.join(map(str, (metrics.f_start,) + metrics.f_trace))}",
            "vertex,community",
        ]
        lines.extend(f"{v},{c}" for v, c in enumerate(part.community_of))
        _emit("\n".join(lines) + "\n")
    else:  # plot-data
        lines = ["x,y,series"]
        lines.append(f"0,{metrics.f_start},f")
        lines.extend(f"{i},{f},f" for i, f in enumerate(metrics.f_trace, start=1))
        _emit("\n".join(lines) + "\n")

    return 0 if state.status is RunStatus.CONVERGED else 2


# --- experiment ------------------------------------------------------------


def _summary_dict(summary: ExperimentSummary) -> dict:
    def metric(ms) -> dict:
        return {"mean": ms.mean, "std": ms.std}

    return {
        "timing": summary.timing.value,
        "tie": summary.tie.value,
        "network": summary.network,
        "trials": summary.trials,
        "base_seed": summary.base_seed,
        "modularity": metric(summary.modularity),
        "steps": metric(summary.steps),
        "stages": metric(summary.stages),
        "communities": metric(summary.communities),
        "largest_community": metric(summary.largest_community),
        "convergence_rate": summary.convergence_rate,
        "non_converged": summary.non_converged,
    }


_SUMMARY_CSV_HEADER = (
    "timing,tie,network,trials,base_seed,"
    "modularity_mean,modularity_std,steps_mean,steps_std,stages_mean,stages_std,"
    "communities_mean,communities_std,largest_mean,largest_std,"
    "convergence_rate,non_converged"
)


def _summary_csv_row(s: ExperimentSummary) -> str:
    return (
        f"{s.timing.value},{s.tie.value},{s.network},{s.trials},{s.base_seed},"
        f"{s.modularity.mean!r},{s.modularity.std!r},{s.steps.mean!r},{s.steps.std!r},"
        f"{s.stages.mean!r},{s.stages.std!r},{s.communities.mean!r},{s.communities.std!r},"
        f"{s.largest_community.mean!r},{s.largest_community.std!r},"
        f"{s.convergence_rate!r},{s.non_converged}"
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    graph, report, name = load_graph(args.graph)
    _note_report(report)
    timings = (
        [TimingModel.ASYNCHRONOUS, TimingModel.SEMI_SYNCHRONOUS]
        if args.both_timings
        else [TimingModel(args.timing)]
    )
    ties = list(TieStrategy) if args.all_ties else [_tie(args.tie)]

    outdir: Path | None = None
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)

    settings = [
        TestSetting(
            timing=timing,
            network=graph,
            tie=tie,
            trials=args.trials,
            base_seed=args.seed,
            step_cap=args.cap,
        )
        for timing in timings
        for tie in ties
    ]
    summaries = [dataclasses.replace(s, network=name) for s in run_experiments(settings)]
    if outdir is not None:
        for s in summaries:
            stem = f"trials_{s.timing.value}_{s.tie.value}".replace("-", "_")
            (outdir / f"{stem}.csv").write_text(trials_csv(s), encoding="utf-8")

    if args.format == "json":
        text = json.dumps(
            {"summaries": [_summary_dict(s) for s in summaries]},
            sort_keys=True,
            indent=2,
        ) + "\n"
    elif args.format == "csv":
        lines = [_SUMMARY_CSV_HEADER]
        lines.extend(_summary_csv_row(s) for s in summaries)
        text = "\n".join(lines) + "\n"
    else:  # plot-data
        lines = ["x,y,series"]
        for s in summaries:
            label = f"{s.timing.value}/{s.tie.value}/{s.network}"
            for series, ms in (
                ("modularity_mean", s.modularity),
                ("modularity_std", s.modularity),
                ("steps_mean", s.steps),
                ("stages_mean", s.stages),
                ("communities_mean", s.communities),
                ("largest_mean", s.largest_community),
            ):
                value = ms.std if series.endswith("_std") else ms.mean
                lines.append(f"{label},{value!r},{series}")
        text = "\n".join(lines) + "\n"

    _emit(text)
    if outdir is not None:
        suffix = "json" if args.format == "json" else "csv"
        _emit(text, outdir / f"summary.{suffix}")
    return 0


# --- info ------------------------------------------------------------------


def _cmd_info(args: argparse.Namespace) -> int:
    graph, report, name = load_graph(args.graph)
    components = len(extract_communities(graph, [0] * graph.n).communities)
    if args.format == "json":
        doc = {
            "name": name,
            "n": graph.n,
            "m": graph.m,
            "max_degree": graph.max_degree(),
            "components": components,
            "report": dataclasses.asdict(report),
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        rows = [
            ("name", name),
            ("n", graph.n),
            ("m", graph.m),
            ("max_degree", graph.max_degree()),
            ("components", components),
            *((k, str(v).lower()) for k, v in dataclasses.asdict(report).items()),
        ]
        _emit("\n".join(f"{k},{v}" for k, v in rows) + "\n")
    else:  # plot-data: per-vertex degrees, ready for a histogram
        lines = ["x,y,series"]
        lines.extend(f"{v},{graph.degree(v)},degree" for v in range(graph.n))
        _emit("\n".join(lines) + "\n")
    return 0


# --- wiring ----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="labelprop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser) -> None:
        p.add_argument("graph", help="fixture name or path to an edge-list/.gml file")
        p.add_argument("--format", choices=_FORMAT_CHOICES, default="json")

    p_run = sub.add_parser("run", help="one propagation run from identity labels")
    common(p_run)
    p_run.add_argument("--timing", choices=_TIMING_CHOICES, default="semi-sync")
    p_run.add_argument("--tie", choices=_TIE_CHOICES, default="random",
                       help="tie strategy; 'lpa' is an alias for 'random'")
    p_run.add_argument("--stop", choices=_STOP_CHOICES, default="c1")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--cap", type=int, default=1000, help="step cap")
    p_run.add_argument("--coloring-out",
                       help="also write the stage coloring as vertex,color CSV (semi-sync only)")
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("experiment", help="seeded repeated trials with aggregates")
    common(p_exp)
    p_exp.add_argument("--timing", choices=_TIMING_CHOICES, default="semi-sync")
    p_exp.add_argument("--tie", choices=_TIE_CHOICES, default="random",
                       help="tie strategy; 'lpa' is an alias for 'random'")
    p_exp.add_argument("--trials", type=int, default=100)
    p_exp.add_argument("--seed", type=int, default=0, help="base seed for trial derivation")
    p_exp.add_argument("--cap", type=int, default=1000, help="step cap per trial")
    p_exp.add_argument("--out", help="directory for per-trial CSVs and the summary file")
    p_exp.add_argument("--all-ties", action="store_true",
                       help="run every tie strategy (ignores --tie)")
    p_exp.add_argument("--both-timings", action="store_true",
                       help="run async and semi-sync (ignores --timing)")
    p_exp.set_defaults(func=_cmd_experiment)

    p_info = sub.add_parser("info", help="graph statistics and load report")
    common(p_info)
    p_info.set_defaults(func=_cmd_info)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
