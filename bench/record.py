"""Record the golden digests in ``goldens.json``.

    python3 bench/record.py [--seeds 0-19] [--workload NAME ...]

For each workload and seed: generate the input, run the workload's
command once, and store the input digest and the output digest (stdout
plus any files written).  The file workloads give the program the same
graph for every seed (see ``gen.py``), so their output digest is one
value, and the recorder refuses to store it unless every seed produced
it; karate-sweep passes the seed to the experiment and has one output
digest per seed.  Before a ``run`` output is stored, its modularity is
recomputed with ``networkx.community.modularity`` and with
``oracle.py``; both must match the CLI's exact value to 1e-9.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import gen  # noqa: E402
import oracle  # noqa: E402
from worker import run_command  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _networkx_check(stdout: str, order: list[int], edges: list[tuple[int, int]]) -> None:
    import networkx as nx

    result = json.loads(stdout)["result"]
    graph = nx.Graph(edges)
    groups: dict[int, set[int]] = {}
    for dense, community in enumerate(result["membership"]):
        groups.setdefault(community, set()).add(order[dense])
    theirs = nx.community.modularity(graph, list(groups.values()))
    if abs(theirs - result["modularity"]) > oracle.TOLERANCE:
        raise SystemExit(f"networkx modularity {theirs!r} != CLI {result['modularity']!r}")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-19"))
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args()
    os.environ["LPA_THREADS"] = str(len(os.sched_getaffinity(0)))
    from labelprop import cli

    path = BENCH / "goldens.json"
    goldens = json.loads(path.read_text())
    karate_sha = hashlib.sha256((SRC / "labelprop" / "data" / "karate.edgelist").read_bytes()).hexdigest()
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        inputs, outputs = {}, {}
        for seed in args.seeds:
            work = BENCH.parent / ".bench_work" / f"record-{name}-{seed}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                if workload.input_kind is None:
                    input_path, inputs[seed] = None, karate_sha
                else:
                    info, edges = gen.write_input(workload.input_kind, seed, work)
                    input_path, inputs[seed] = str(info.path), info.sha256
                out_dir = work / "out"
                rec = run_command(
                    cli.main, workload.argv(input_path, str(out_dir), seed),
                    out_dir if workload.input_kind is None else None,
                )
                if rec["code"] != 0:
                    raise SystemExit(f"{name} seed {seed}: exit code {rec['code']!r}\n{rec['stderr']}")
                if workload.input_kind is not None:
                    order = oracle.dense_order(workload.input_kind, info.n, edges)
                    problem = oracle.check_run_output(rec["stdout"], order, edges)
                    if problem:
                        raise SystemExit(f"{name} seed {seed}: {problem}")
                    _networkx_check(rec["stdout"], order, edges)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            outputs[seed] = rec["digest"]
            print(f"{name} seed {seed}: {rec['digest']} ({rec['wall_s']:.2f} s)", flush=True)
        entry = goldens.setdefault(name, {"exit_code": 0, "input_sha256": {}, "output_sha256": {}})
        if workload.input_kind is None:
            entry["input_sha256"] = karate_sha
            entry["output_sha256"].update({str(k): v for k, v in outputs.items()})
        else:
            if len(set(outputs.values())) != 1:
                raise SystemExit(f"{name}: outputs differ between seeds, but the graph does not")
            entry["input_sha256"].update({str(k): v for k, v in inputs.items()})
            entry["output_sha256"] = outputs[args.seeds[0]]
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
