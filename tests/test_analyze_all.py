"""`analyze_union` runs many problems through one max flow, as blocks of
their disjoint union (`IntArrays.union`); each problem must get exactly the
result (repr-identical: labels in the same dict order, the same bound) that
the single-problem pipeline gives it alone.  The split solver's matching
route must give each node the weak labels of both."""

import math
from fractions import Fraction

import numpy as np
import pytest

from quboprep import decompose
from quboprep.model import Qubo, as_coeff
from quboprep.network import max_flow
from quboprep.persistency import PersistencyResult, analyze, analyze_union, extract_labels
from quboprep.posiform import IntArrays, to_posiform

from helpers import random_qubo, reference_network, with_fractions
from test_split_golden import _bench_graph, _workloads


def _alone(arr: IntArrays) -> PersistencyResult:
    """One problem through posiform, network, flow and labels by itself."""
    p = to_posiform(arr)
    net = reference_network(p)
    flow = max_flow(net)
    strong, weak = extract_labels(flow.residual_adjacency())
    bound = as_coeff(p.constant + Fraction(flow.flow_value, net.scale))
    return PersistencyResult(arr.num_vars, strong, weak, bound)


def _batch(problems: list[IntArrays]) -> list[PersistencyResult]:
    """Each problem's result from one ``analyze_union`` of them all."""
    starts = np.cumsum([0] + [arr.num_vars for arr in problems])
    blocks = analyze_union(IntArrays.union(problems), starts, [arr.offset for arr in problems])
    return [
        PersistencyResult(arr.num_vars, strong, weak, as_coeff(bound))
        for arr, (strong, weak, bound) in zip(problems, blocks)
    ]


def _assert_batch_matches(problems: list[IntArrays]) -> None:
    results = _batch(problems)
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
    for q in qs:
        assert repr(analyze(q)) == repr(_alone(IntArrays.from_qubo(q)))


def test_batches_with_empty_and_term_free_problems():
    empty = IntArrays.from_qubo(Qubo.from_terms(0, {}, {}, 7))
    linear = IntArrays.from_qubo(Qubo.from_terms(3, {0: -2, 2: 5}, {}, -1))
    bare = IntArrays.from_qubo(Qubo.from_terms(2, {}, {}))
    quad = IntArrays.from_qubo(Qubo.from_terms(3, {0: -1}, {(0, 1): 2, (1, 2): -3}))
    for batch in ([empty], [empty, empty], [linear, empty, bare, quad, empty], [bare, quad]):
        _assert_batch_matches(batch)


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
    results = _batch([_at_scale(arr, scale) for arr in arrs])
    for arr, result in zip(arrs, results):
        assert repr(result) == repr(_alone(arr))


def test_mismatched_scales_raise():
    halves = IntArrays.from_qubo(Qubo.from_terms(2, {0: Fraction(1, 2)}, {(0, 1): -1}))
    ints = IntArrays.from_qubo(Qubo.from_terms(2, {0: 1}, {(0, 1): -1}))
    assert halves.scale != ints.scale
    with pytest.raises(ValueError, match="scale"):
        _batch([ints, halves])


def _blocks(union: IntArrays, starts, offsets) -> list[IntArrays]:
    """Block b of ``union`` (variables ``starts[b]:starts[b + 1]``, offset
    ``offsets[b]``) as a problem of its own."""
    bounds = np.searchsorted(union.qi, starts).tolist()
    out = []
    for a, b, lo, hi, offset in zip(starts, starts[1:], bounds, bounds[1:], offsets):
        out.append(
            IntArrays(
                int(b - a), union.scale, union.lin[a:b],
                union.qi[lo:hi] - a, union.qj[lo:hi] - a, union.qv[lo:hi], offset,
            )
        )
    return out


def test_every_split_dense_node_matches(monkeypatch):
    """All nodes the split solver analyzes on the split-dense benchmark
    graph (seed 1), level by level in unions: the matching route gives each
    node the weak labels of ``analyze`` alone, and ``analyze_union`` on the
    same unions gives each node the strong labels, weak labels and bound of
    the single-problem pipeline."""
    batches = []
    weak_labels = decompose._weak_labels

    def record(union, starts):
        weak = weak_labels(union, starts)
        batches.append((union, starts, weak))
        return weak

    monkeypatch.setattr(decompose, "_weak_labels", record)
    solver = decompose.default_leaf_solver(_workloads().SPLIT_THRESHOLD)
    decompose.max_clique_split(_bench_graph(1), solver)
    assert sum(len(weak) for _, _, weak in batches) > 1000
    assert max(len(weak) for _, _, weak in batches) > 20
    for union, starts, weak in batches:
        offsets = [0] * (len(starts) - 1)
        problems = _blocks(union, starts, offsets)
        blocks = analyze_union(union, starts, offsets)
        assert len(problems) == len(weak) == len(blocks)
        for arr, matched, (strong, weak_union, bound) in zip(problems, weak, blocks):
            assert repr(matched) == repr(analyze(arr).weak)
            result = PersistencyResult(arr.num_vars, strong, weak_union, as_coeff(bound))
            assert repr(result) == repr(_alone(arr))
