"""Fresh process that runs one workload's CLI command in a loop.

Started by ``run.py`` as ``python3 bench/worker.py SPEC.json``; prints one
JSON object on its last stdout line.  Each command is a call of
``labelprop.cli.main(argv)`` in this process with stdout and stderr
captured, timed by wall clock; its output digest covers stdout and
every file it wrote to the workload's output directory.

A new command (or round) starts only while the previous one would still
end within ``seconds``, and at least one always runs.

Untraced (``"trace": 0``): commands run for ``seconds``, then the peak
RSS of this process is read, then the public loader is timed
``setup_repeats`` times on the workload's input.

Traced (``"trace": 1``): rounds of three commands run for ``seconds``:
untraced, traced (spans from ``layers.py``), and untraced with one
worker thread.  Per-layer figures are means over the traced commands.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def run_command(main, argv: list[str], out_dir: Path | None) -> dict:
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raw traceback is a failed command, not a crash of the bench
            code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    text = out.getvalue().encode()
    digest = hashlib.sha256(text)
    nbytes = len(text)
    if out_dir is not None and out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            digest.update(b"\0" + path.name.encode() + b"\0" + data)
            nbytes += len(data)
    return {
        "wall_s": wall,
        "code": code,
        "digest": digest.hexdigest(),
        "output_bytes": nbytes,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }


def _loader(spec: dict):
    from labelprop import fixtures
    from labelprop.graphs import load_edge_list, load_gml

    path = spec["input"]
    if path is None:
        return lambda: fixtures.load("karate")
    loader = load_gml if path.endswith(".gml") else load_edge_list
    return lambda: loader(Path(path).read_text())


def _untraced(spec: dict, cli) -> dict:
    out_dir = Path(spec["out_dir"]) if spec["out_dir"] else None
    deadline = time.perf_counter() + spec["seconds"]
    commands = []
    while not commands or time.perf_counter() + commands[-1]["wall_s"] <= deadline:
        commands.append(run_command(cli.main, spec["argv"], out_dir))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    load = _loader(spec)
    setup = []
    gc.collect()
    for _ in range(spec["setup_repeats"]):
        start = time.perf_counter()
        load()
        setup.append(time.perf_counter() - start)
    return {"commands": commands, "peak_rss_kib": peak_kib, "setup_s": setup}


def _traced(spec: dict, cli) -> dict:
    import layers
    from labelprop.graphs import Graph

    out_dir = Path(spec["out_dir"]) if spec["out_dir"] else None
    tracer = layers.Tracer()
    traced_main = tracer.span("cli", "cli.main", cli.main)
    threads = os.environ["LPA_THREADS"]
    deadline = time.perf_counter() + spec["seconds"]
    commands, per_command = [], []
    while not commands or time.perf_counter() + sum(c["wall_s"] for c in commands[-3:]) <= deadline:
        commands.append(dict(run_command(cli.main, spec["argv"], out_dir), mode="plain"))

        tracer.reset()
        uninstall = layers.install(tracer)
        try:
            rec = run_command(traced_main, spec["argv"], out_dir)
        finally:
            uninstall()
        commands.append(dict(rec, mode="traced"))
        figures = layers.command_metrics(tracer)
        g = tracer.graph
        gc.collect()
        start = time.perf_counter()
        Graph(g.n, g.m, g.adjacency, g.external_names)
        figures["graphs.validate_s"] = time.perf_counter() - start
        figures["graphs.sum_deg_sq"] = sum(len(a) ** 2 for a in g.adjacency)
        figures["graphs.input_bytes"] = spec["input_bytes"]
        figures["cli.output_bytes"] = rec["output_bytes"]
        per_command.append(figures)
        tracer.reset()
        del g

        os.environ["LPA_THREADS"] = "1"
        try:
            commands.append(dict(run_command(cli.main, spec["argv"], out_dir), mode="one_worker"))
        finally:
            os.environ["LPA_THREADS"] = threads

    def median_wall(mode: str) -> float:
        return statistics.median(c["wall_s"] for c in commands if c["mode"] == mode)

    figures = {k: statistics.fmean(f[k] for f in per_command) for k in per_command[0]}
    figures["trace.overhead_s"] = median_wall("traced") - median_wall("plain")
    figures["cli.worker_speedup"] = median_wall("one_worker") / median_wall("plain")
    return {"commands": commands, "layers": figures}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    if sys.flags.optimize:
        sys.exit("worker: refusing to run under -O, which drops the program's __debug__ checks")
    sys.path.insert(0, spec["src"])
    from labelprop import cli

    result = _traced(spec, cli) if spec["trace"] else _untraced(spec, cli)
    first = result["commands"][0]
    Path(spec["stdout_file"]).write_text(first["stdout"])
    for c in result["commands"]:
        del c["stdout"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
