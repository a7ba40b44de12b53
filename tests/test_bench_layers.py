"""The traced bench's patch points: bench/layers.py wraps labelprop's
functions in place, so every name it patches must exist, and its
uninstall must put back the very objects it replaced."""

import importlib.util
from pathlib import Path

from labelprop import graphs, propagation

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_traced_bench_patches_existing_names_and_restores_them():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    points = {(owner, attr) for owner, attr, *_ in layers._FUNCTIONS}
    points |= {(propagation, "ThreadPoolExecutor"), (graphs.Graph, "from_edges")}
    owners = {owner for owner, _ in points}
    before = {owner: dict(vars(owner)) for owner in owners}

    uninstall = layers.install(layers.Tracer())
    try:
        patched = {(owner, attr) for owner in owners for attr, value in vars(owner).items()
                   if before[owner].get(attr) is not value}
    finally:
        uninstall()

    assert patched == points
    for owner in owners:
        after = vars(owner)
        assert after.keys() == before[owner].keys()
        assert all(after[attr] is value for attr, value in before[owner].items()), owner
    # the bench's harness.c1_not_maximal counter calls it
    assert callable(propagation.labels_locally_maximal)
