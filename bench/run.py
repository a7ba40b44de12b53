"""labelprop benchmark: one CLI command per workload, run in a loop.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Workloads (see ``workloads.py``):
``planted-semisync``, ``hub-gml-sync`` and ``karate-sweep``.  The seed
drives the benchmark's own input generator (and the experiment seed of
karate-sweep); the program sees only the generated files.

One client in one process calls ``labelprop.cli.main`` in a closed loop
for ``--seconds``, in a fresh worker process so that its peak RSS is the
workload's alone.  ``LPA_THREADS`` is pinned to the number of usable
cores.  Every command's output is hashed and compared with the golden
digest recorded in ``goldens.json`` for that workload and seed (or, for a
seed without one, with the run's first command); ``run`` outputs are also
re-scored by an independent modularity computation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``cmd_s``, ``setup_s``, ``peak_rss_mib``); with ``--trace 1`` it
reports the per-layer metrics of a traced run.  Lines before it give
provenance and the same figures for people.  The benchmark refuses to
run under ``python -O``, which removes the program's ``__debug__``
checks and so measures a different program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170  # the whole run must end within 180 s

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
import oracle  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    return args


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=20
    )
    return done.stdout.strip() or None


def _tree_digest(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _for_seed(entry: str | dict, seed: int) -> str | None:
    """A golden digest: one for every seed, or one per recorded seed."""
    return entry if isinstance(entry, str) else entry.get(str(seed))


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def main(argv: list[str] | None = None) -> None:
    args = _parse(argv)
    if sys.flags.optimize:
        _fail("refusing to run under python -O: it drops the program's __debug__ checks")
    if not (SRC / "labelprop" / "__init__.py").is_file():
        _fail(f"no labelprop sources under {SRC}; run from a checkout of the repository")
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    golden = json.loads((BENCH / "goldens.json").read_text())[workload.name]
    golden_in, golden_out = (_for_seed(golden[k], args.seed) for k in ("input_sha256", "output_sha256"))
    threads = len(os.sched_getaffinity(0))
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if workload.input_kind is None:
            karate = (SRC / "labelprop" / "data" / "karate.edgelist").read_bytes()
            input_path, input_sha = None, hashlib.sha256(karate).hexdigest()
            input_bytes = len(karate)
            input_desc = f"karate fixture sha256={input_sha}"
        else:
            info, edges = gen.write_input(workload.input_kind, args.seed, work)
            input_path, input_sha, input_bytes = str(info.path), info.sha256, info.size_bytes
            input_desc = (
                f"{info.path.name} n={info.n} m={info.m} max_degree={info.max_degree} "
                f"sum_deg_sq={info.sum_deg_sq} bytes={info.size_bytes} sha256={info.sha256}"
            )
        if golden_in is not None and golden_in != input_sha:
            _fail(f"input digest {input_sha} differs from the recorded {golden_in}")

        out_dir = work / "out" if workload.input_kind is None else None
        spec = {
            "src": str(SRC),
            "argv": workload.argv(input_path, str(out_dir), args.seed),
            "seconds": args.seconds,
            "trace": args.trace,
            "setup_repeats": workload.setup_repeats,
            "input": input_path,
            "input_bytes": input_bytes,
            "out_dir": str(out_dir) if out_dir else None,
            "stdout_file": str(work / "stdout.txt"),
        }
        (work / "spec.json").write_text(json.dumps(spec))
        env = dict(os.environ, LPA_THREADS=str(threads))
        budget = TIME_LIMIT_S - (time.perf_counter() - started)
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(work / "spec.json")],
                capture_output=True, text=True, env=env, timeout=budget,
            )
        except subprocess.TimeoutExpired:
            _fail(f"worker did not finish within {budget:.0f} s")
        if done.returncode != 0:
            _fail(f"worker exited with {done.returncode}:\n{done.stderr[-4000:]}")
        result = json.loads(done.stdout.splitlines()[-1])

        commands = result["commands"]
        expected = golden_out or commands[0]["digest"]
        failed = [c for c in commands if c["code"] != golden["exit_code"] or c["digest"] != expected]
        problem = None
        if workload.input_kind is not None:
            order = oracle.dense_order(workload.input_kind, info.n, edges)
            problem = oracle.check_run_output((work / "stdout.txt").read_text(), order, edges)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(
        f"# workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"nproc={threads} LPA_THREADS={threads} python={platform.python_version()} "
        f"commit={_commit()} src_sha256={_tree_digest(SRC / 'labelprop')}"
    )
    print(f"# argv: {' '.join(spec['argv'])}")
    print(f"# input: {input_desc} golden={'match' if golden_in else 'none for this seed'}")
    print(
        f"# output sha256={commands[0]['digest']} "
        f"golden={'none for this seed' if not golden_out else 'MISMATCH' if failed else 'match'}"
    )
    for c in failed[:3]:
        print(f"# failed command: exit={c['code']!r} sha256={c['digest']} stderr={c['stderr']!r}")
    if problem:
        print(f"# independent check FAILED: {problem}")

    if args.trace:
        metrics = {name: {"value": value} for name, value in sorted(result["layers"].items())}
        print(f"# per-layer busy seconds are summed over up to {threads} worker threads")
    else:
        walls = [c["wall_s"] for c in commands]
        tail = _tail_percentile(walls)
        print(
            f"# cmd_s median={statistics.median(walls):.4f} s over {len(walls)} commands; "
            + (f"p{tail[0]}={tail[1]:.4f} s" if tail else "fewer than 20 samples, no tail percentile")
        )
        print(f"# setup_s median of {len(result['setup_s'])} loads")
        metrics = {
            "cmd_s": {"value": statistics.median(walls)},
            "setup_s": {"value": statistics.median(result["setup_s"])},
            "peak_rss_mib": {"value": result["peak_rss_kib"] / 1024},
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        _fail(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    for name, entry in metrics.items():
        entry["unit"] = units[name]
        print(f"# {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({
        "correct": not failed and problem is None,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
