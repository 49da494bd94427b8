"""`max_clique_split` must reproduce recorded outcomes exactly.

``data/split_golden.json`` holds split outcomes recorded while the recursion
still built an induced ``Graph`` and a clique ``Qubo`` at every node:

* ``random``: 60 seeded ``gen_gnp`` graphs (n 0–40, mixed density and
  threshold), each split without persistency, with persistency, and (for
  n <= 26) with probing.  A drawn threshold is raised until the split
  without persistency makes at most 2,000 leaf calls, which keeps dense
  graphs from taking minutes.
* ``bench``: the split-dense benchmark graph at seeds 1–3, rebuilt from
  ``perfbench/workloads.py``, split with and without persistency.

Each record holds the clique, the three ``SplitStats`` counters and a digest
of the leaf calls: the sequence of graphs handed to the leaf solver, in call
order.  The records come from a custom leaf solver, which gets a leaf
``Graph``; :func:`~quboprep.decompose.default_leaf_solver` searches each leaf
on the root's masks instead and must give the same clique and counters.
Regenerate with ``PYTHONPATH=src python tests/test_split_golden.py``.
"""

import functools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from quboprep import decompose, persistency
from quboprep.decompose import LeafSolver, default_leaf_solver, max_clique_split
from quboprep.graphs import Graph, gen_gnp
from quboprep.oracle import exact_max_clique

_ROOT = Path(__file__).resolve().parent.parent
_PATH = _ROOT / "tests" / "data" / "split_golden.json"
_MODES = {
    "plain": {"use_persistency": False},
    "persistency": {"use_persistency": True},
    "probing": {"use_persistency": True, "use_probing": True},
}
_PROBING_MAX_N = 26
_MAX_PLAIN_LEAF_CALLS = 2000


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def counters(g: Graph, solver: LeafSolver, mode: str) -> dict:
    """The clique and the three counters of splitting ``g`` in ``mode``."""
    clique, stats = max_clique_split(g, solver, **_MODES[mode])
    return {
        "clique": list(clique),
        "n_calls": stats.n_calls,
        "max_depth": stats.max_depth,
        "eliminated": stats.vertices_eliminated_by_persistency,
    }


def record(g: Graph, threshold: int, mode: str) -> dict:
    """Outcome of splitting ``g`` in ``mode`` with the exact leaf solver."""
    leaves = hashlib.sha256()

    def leaf(sub: Graph):
        leaves.update(json.dumps([sub.n, sub.edges]).encode())
        return exact_max_clique(sub)

    outcome = counters(g, LeafSolver(leaf, threshold), mode)
    return dict(outcome, leaves=leaves.hexdigest()[:16])


def _default_solver_matches(g: Graph, threshold: int, mode: str, outcome: dict) -> bool:
    """Whether the default solver, which builds no leaf graphs, gives the
    recorded clique and counters."""
    want = {k: v for k, v in outcome.items() if k != "leaves"}
    return counters(g, default_leaf_solver(threshold), mode) == want


class _OverBudget(Exception):
    pass


def _fits(g: Graph, threshold: int) -> bool:
    """Whether splitting ``g`` without persistency makes at most
    _MAX_PLAIN_LEAF_CALLS leaf calls; stops counting past the budget."""
    calls = 0

    def leaf(sub: Graph):
        nonlocal calls
        calls += 1
        if calls > _MAX_PLAIN_LEAF_CALLS:
            raise _OverBudget
        return exact_max_clique(sub)

    try:
        max_clique_split(g, LeafSolver(leaf, threshold), use_persistency=False)
    except _OverBudget:
        return False
    return True


def _random_cases():
    rng = np.random.default_rng(2019)
    for k in range(60):
        n = int(rng.integers(0, 41))
        p = round(float(rng.uniform(0.05, 0.95)), 2)
        g = gen_gnp(n, p, k)
        threshold = int(rng.integers(1, 12))
        while not _fits(g, threshold):
            threshold += 1
        for mode in _MODES:
            if mode != "probing" or n <= _PROBING_MAX_N:
                case = {"n": n, "p": p, "seed": k, "threshold": threshold, "mode": mode}
                yield dict(case, outcome=record(g, threshold, mode))


def _bench_graph(seed: int) -> Graph:
    wl = _workloads()
    return wl.build_split(wl.op_seed(seed, 0)).graph


def regenerate() -> None:
    random = list(_random_cases())
    threshold = _workloads().SPLIT_THRESHOLD
    bench = [
        {"seed": seed, "mode": mode, "outcome": record(_bench_graph(seed), threshold, mode)}
        for seed in (1, 2, 3)
        for mode in ("persistency", "plain")
    ]
    _PATH.write_text(json.dumps({"random": random, "bench": bench}, separators=(",", ":")) + "\n")


_GOLDEN = json.loads(_PATH.read_text()) if _PATH.exists() else {"random": [], "bench": []}


@pytest.mark.parametrize("mode", list(_MODES))
def test_random_outcomes_match_golden(mode):
    cases = [c for c in _GOLDEN["random"] if c["mode"] == mode]
    assert cases
    for case in cases:
        g = gen_gnp(case["n"], case["p"], case["seed"])
        assert record(g, case["threshold"], mode) == case["outcome"], case


@pytest.mark.parametrize("mode", list(_MODES))
def test_default_solver_matches_golden(mode):
    """The default solver's root-mask leaves reproduce every recorded
    clique and counter."""
    cases = [c for c in _GOLDEN["random"] if c["mode"] == mode]
    assert cases
    for case in cases:
        g = gen_gnp(case["n"], case["p"], case["seed"])
        assert _default_solver_matches(g, case["threshold"], mode, case["outcome"]), case


def test_golden_random_set_exercises_the_recursion():
    """The oracle covers deep splits, persistency shrinking and leaf-only graphs."""
    outcomes = [c["outcome"] for c in _GOLDEN["random"]]
    assert len(outcomes) >= 150
    assert sum(o["max_depth"] >= 5 for o in outcomes) >= 20
    assert sum(o["eliminated"] > 0 for o in outcomes) >= 20
    assert sum(o["n_calls"] == 1 for o in outcomes) >= 5


@pytest.mark.parametrize("budget", [0, 60])
def test_outcomes_match_golden_with_small_unions(budget, monkeypatch):
    """With a union budget of a few quadratic entries, each level is cut
    into many matchings; the outcomes must not change."""
    runs = []
    weak_labels = decompose._weak_labels

    def spy(qi, qj, starts):
        runs.append((len(starts) - 1, len(qi)))
        return weak_labels(qi, qj, starts)

    monkeypatch.setattr(persistency, "UNION_ENTRIES", budget)
    monkeypatch.setattr(decompose, "_weak_labels", spy)
    cases = [c for c in _GOLDEN["random"] if c["mode"] == "persistency"][:40]
    for case in cases:
        g = gen_gnp(case["n"], case["p"], case["seed"])
        assert record(g, case["threshold"], "persistency") == case["outcome"], case
    assert len(runs) > 100
    # Only a problem larger than the budget by itself makes a run exceed it.
    assert all(size == 1 for size, entries in runs if entries > budget)
    if budget:
        assert any(size > 1 for size, _ in runs)


@pytest.mark.parametrize("cells", [1, 600])
def test_outcomes_match_golden_in_small_row_blocks(cells, monkeypatch):
    """With _RUN_CELLS cut to a few cells, each level is planned in many
    blocks of at most that many node-vertex and node-pair cells (or one
    node); the outcomes must not change."""
    blocks = []
    level = decompose._level

    def block_spy(member, pairs):
        rows, n = member.shape
        blocks.append(rows)
        assert rows * max(n, len(pairs[0])) <= cells or rows == 1
        return level(member, pairs)

    monkeypatch.setattr(decompose, "_RUN_CELLS", cells)
    monkeypatch.setattr(decompose, "_level", block_spy)
    for mode in ("plain", "persistency"):
        for case in [c for c in _GOLDEN["random"] if c["mode"] == mode][:40]:
            g = gen_gnp(case["n"], case["p"], case["seed"])
            assert record(g, case["threshold"], mode) == case["outcome"], case
    assert len(blocks) > 100
    assert (max(blocks) > 1) == (cells > 1)


@pytest.mark.parametrize(
    "seed, mode", [(c["seed"], c["mode"]) for c in _GOLDEN["bench"]]
)
def test_bench_outcomes_match_golden(seed, mode):
    (case,) = [c for c in _GOLDEN["bench"] if (c["seed"], c["mode"]) == (seed, mode)]
    threshold = _workloads().SPLIT_THRESHOLD
    assert record(_bench_graph(seed), threshold, mode) == case["outcome"]



@pytest.mark.parametrize(
    "seed, mode", [(c["seed"], c["mode"]) for c in _GOLDEN["bench"]]
)
def test_default_solver_matches_bench_golden(seed, mode):
    (case,) = [c for c in _GOLDEN["bench"] if (c["seed"], c["mode"]) == (seed, mode)]
    threshold = _workloads().SPLIT_THRESHOLD
    assert _default_solver_matches(_bench_graph(seed), threshold, mode, case["outcome"])


if __name__ == "__main__":
    regenerate()
