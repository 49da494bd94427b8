"""`analyze_all` runs many problems through one max flow; each problem must
get exactly the result (repr-identical: labels in the same dict order, the
same bound) that the single-problem pipeline gives it alone."""

import math
from fractions import Fraction

import numpy as np
import pytest

from quboprep import decompose
from quboprep.model import Qubo, as_coeff
from quboprep.network import build_network, max_flow
from quboprep.persistency import PersistencyResult, analyze, analyze_all, extract_labels
from quboprep.posiform import IntArrays, to_posiform

from helpers import random_qubo, with_fractions
from test_split_golden import _bench_graph, _workloads


def _alone(arr: IntArrays) -> PersistencyResult:
    """One problem through posiform, network, flow and labels by itself."""
    p = to_posiform(arr)
    net = build_network(p)
    flow = max_flow(net)
    strong, weak = extract_labels(flow, arr.num_vars)
    bound = as_coeff(p.constant + Fraction(flow.flow_value, net.scale))
    return PersistencyResult(arr.num_vars, strong, weak, bound)


def _assert_batch_matches(problems: list[IntArrays]) -> None:
    results = analyze_all(problems)
    assert len(results) == len(problems)
    for arr, result in zip(problems, results):
        assert repr(result) == repr(_alone(arr))


def _random_problem(rng: np.random.Generator) -> Qubo:
    n = int(rng.integers(0, 16))
    density = float(rng.choice([0.0, rng.uniform(0.1, 0.9)]))
    q = random_qubo(rng, n, coeff_range=(-6, 6), density=density)
    return Qubo.from_terms(n, q.linear, q.quadratic, int(rng.integers(-5, 6)))


@pytest.mark.parametrize("seed", range(40))
def test_int_batches_match_single_analyses(seed):
    rng = np.random.default_rng(4400 + seed)
    qs = [_random_problem(rng) for _ in range(int(rng.integers(1, 9)))]
    _assert_batch_matches([IntArrays.from_qubo(q) for q in qs])
    if len(qs) == 1:
        assert repr(analyze(qs[0])) == repr(_alone(IntArrays.from_qubo(qs[0])))


def test_batches_with_empty_and_term_free_problems():
    empty = IntArrays.from_qubo(Qubo.from_terms(0, {}, {}, 7))
    linear = IntArrays.from_qubo(Qubo.from_terms(3, {0: -2, 2: 5}, {}, -1))
    bare = IntArrays.from_qubo(Qubo.from_terms(2, {}, {}))
    quad = IntArrays.from_qubo(Qubo.from_terms(3, {0: -1}, {(0, 1): 2, (1, 2): -3}))
    for batch in ([empty], [empty, empty], [linear, empty, bare, quad, empty], [bare, quad]):
        _assert_batch_matches(batch)
    assert analyze_all([]) == []


def _at_scale(arr: IntArrays, scale: int) -> IntArrays:
    """The same problem with its coefficients multiplied out to ``scale``."""
    k = scale // arr.scale
    return IntArrays(arr.num_vars, scale, arr.lin * k, arr.qi, arr.qj, arr.qv * k, arr.offset)


@pytest.mark.parametrize("seed", range(10))
def test_fraction_batches_sharing_one_scale(seed):
    """Each problem is compared with its analysis at its own scale, so the
    batch's common scale must not change any label or bound."""
    rng = np.random.default_rng(4500 + seed)
    qs = [with_fractions(rng, _random_problem(rng)) for _ in range(int(rng.integers(1, 7)))]
    arrs = [IntArrays.from_qubo(q) for q in qs]
    scale = math.lcm(*(arr.scale for arr in arrs))
    results = analyze_all([_at_scale(arr, scale) for arr in arrs])
    for arr, result in zip(arrs, results):
        assert repr(result) == repr(_alone(arr))


def test_mismatched_scales_raise():
    halves = IntArrays.from_qubo(Qubo.from_terms(2, {0: Fraction(1, 2)}, {(0, 1): -1}))
    ints = IntArrays.from_qubo(Qubo.from_terms(2, {0: 1}, {(0, 1): -1}))
    assert halves.scale != ints.scale
    with pytest.raises(ValueError, match="scale"):
        analyze_all([ints, halves])


def test_every_split_dense_node_matches(monkeypatch):
    """All nodes the split solver analyzes on the split-dense benchmark
    graph (seed 1), level by level in batches."""
    batches = []

    def record(problems):
        results = analyze_all(problems)
        batches.append((problems, results))
        return results

    monkeypatch.setattr(decompose, "analyze_all", record)
    solver = decompose.default_leaf_solver(_workloads().SPLIT_THRESHOLD)
    decompose.max_clique_split(_bench_graph(1), solver)
    assert sum(len(problems) for problems, _ in batches) > 1000
    assert max(len(problems) for problems, _ in batches) > 20
    for problems, results in batches:
        for arr, result in zip(problems, results):
            assert repr(result) == repr(_alone(arr))
