"""The three benchmark workloads: one labelprop CLI command each.

Each workload names the input it needs, the command run on it, and how
many times its set-up (the public loader) is timed.  Shared by the
entry point (``run.py``) and the golden recorder (``record.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7
# Trials per setting in karate-sweep: 8 settings x 50 trials take about
# half a second, so one run holds a few dozen commands.
KARATE_TRIALS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    input_kind: str | None  # 'planted', 'hubbed' or None for the karate fixture
    argv_template: tuple[str, ...]
    setup_repeats: int
    why: str

    def argv(self, input_path: str | None, out_dir: str, seed: int) -> list[str]:
        fields = {"input": input_path, "out": out_dir, "seed": seed, "trials": KARATE_TRIALS}
        return [arg.format(**fields) for arg in self.argv_template]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-semisync", "planted",
            ("run", "{input}", "--timing", "semi-sync", "--tie", "prec-max", "--stop", "c1"),
            7,
            "paper's semi-sync Prec-Max on a 20k-vertex planted partition; the staged step dominates",
        ),
        Workload(
            "hub-gml-sync", "hubbed",
            ("run", "{input}", "--timing", "sync", "--tie", "max", "--stop", "c2"),
            3,
            "same size as GML with four degree-6000 hubs; parsing and Graph validation dominate",
        ),
        Workload(
            "karate-sweep", None,
            ("experiment", "karate", "--all-ties", "--both-timings", "--seed", "{seed}",
             "--trials", "{trials}", "--out", "{out}"),
            2000,
            "thousands of tiny seeded trials; per-call overhead in harness, rng and async dominates",
        ),
    )
}
