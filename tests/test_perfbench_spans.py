"""The traced benchmark wraps package attributes by name; a refactor that
moves or renames one of them must fail here rather than in a traced run."""

import functools
import importlib.util
from pathlib import Path

import pytest

from quboprep._fast import BranchPair, analyze_branch
from quboprep.experiments import problem_qubo
from quboprep.graphs import Graph
from quboprep.persistency import analyze
from quboprep.posiform import IntArrays
from quboprep.probing import probe

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets():
    return _spans_module()._targets()


@pytest.mark.parametrize(
    "owner, attr, kind",
    [(owner, attr, kind) for owner, attr, _, kind, _ in _targets()],
    ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", None),
)
def test_wrapped_call_site_is_bound(owner, attr, kind):
    assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
    value = vars(owner)[attr]
    if kind == "classmethod":
        assert isinstance(value, classmethod)
    elif kind == "cached_property":
        assert isinstance(value, functools.cached_property)
    else:
        assert callable(value)


def test_wrapped_call_sites_are_called():
    """A name that stays bound but is no longer called records no span."""
    tracer = _spans_module().Tracer()
    # Roof duality labels nothing on max-cut of C5, so probing must branch.
    q = problem_qubo(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), "cut")
    with tracer.installed():
        analyze(q)
        analyze_branch(BranchPair.of(IntArrays.from_qubo(q)), [0])
        probe(q)
    _, calls = tracer.self_times()
    for name in (
        "posiform.to_posiform",
        "network.build_network",
        "network.max_flow",
        "persistency.extract_labels",
        "fast.from_qubo",
        "fast.analyze_branch",
        "model.fix_variables",
        "model.substitute",
    ):
        assert calls.get(name, 0) > 0, f"{name} was never called"
