"""`probe` must reproduce recorded outcomes exactly.

``data/probe_golden.json`` holds probe outcomes recorded before probing
kept its working problem in scaled arrays:

* ``random``: 120 seeded QUBOs with 1–12 variables, stored with the
  outcome.  Every second one has Fraction coefficients (denominators 1–4)
  and an offset; every other pair is the QUBO of a random Ising spin glass,
  whose frustration leaves relations and implications for probing.
* ``bench``: the first instance of the benchmark workloads probe-cfat,
  probe-gcut and probe-rational at seeds 1–3, rebuilt from
  ``perfbench/workloads.py``.

Values are stored canonically: dict items sorted, exact numbers as strings.
"""

import functools
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quboprep.model import Qubo
from quboprep.probing import ProbeOutcome, probe

_ROOT = Path(__file__).resolve().parent.parent
_GOLDEN = json.loads((_ROOT / "tests" / "data" / "probe_golden.json").read_text())


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _qubo_record(q: Qubo) -> dict:
    return {
        "num_vars": q.num_vars,
        "linear": [[i, str(a)] for i, a in sorted(q.linear.items())],
        "quadratic": [[i, j, str(a)] for (i, j), a in sorted(q.quadratic.items())],
        "offset": str(q.offset),
    }


def _qubo(record: dict) -> Qubo:
    return Qubo.from_terms(
        record["num_vars"],
        {i: Fraction(a) for i, a in record["linear"]},
        {(i, j): Fraction(a) for i, j, a in record["quadratic"]},
        Fraction(record["offset"]),
    )


def canonical(out: ProbeOutcome) -> dict:
    red = out.reduction
    return {
        "num_vars": out.num_vars,
        "fixed": [[v, x] for v, x in sorted(out.fixed.items())],
        "relations": [[j, i, c] for j, i, c in out.relations],
        "bound": str(out.bound),
        "passes": out.passes,
        "reduction": {
            "fixed": [[v, x] for v, x in sorted(red.fixed.items())],
            "substitutions": [[j, i, c] for j, (i, c) in sorted(red.substitutions.items())],
            "surviving": list(red.surviving),
            "reduced": _qubo_record(red.reduced),
            "delta": str(red.delta),
        },
    }


@pytest.mark.parametrize("chunk", range(4))
def test_random_outcomes_match_golden(chunk):
    cases = _GOLDEN["random"][chunk::4]
    for case in cases:
        q = _qubo(case["qubo"])
        assert _qubo_record(q) == case["qubo"]
        assert canonical(probe(q)) == case["outcome"]


def test_golden_random_set_exercises_probing():
    """The oracle covers relations, second passes and unresolved variables."""
    outcomes = [case["outcome"] for case in _GOLDEN["random"]]
    assert len(outcomes) == 120
    assert sum(bool(o["relations"]) for o in outcomes) >= 5
    assert sum(o["passes"] > 1 for o in outcomes) >= 5
    assert sum(bool(o["reduction"]["surviving"]) for o in outcomes) >= 5


@pytest.mark.parametrize(
    "workload, seed",
    [(case["workload"], case["seed"]) for case in _GOLDEN["bench"]],
)
def test_bench_outcomes_match_golden(workload, seed):
    (case,) = [c for c in _GOLDEN["bench"] if (c["workload"], c["seed"]) == (workload, seed)]
    wl = _workloads()
    inst = wl.WORKLOADS[workload].build(wl.op_seed(seed, 0))
    assert canonical(probe(inst.qubo)) == case["outcome"]
