"""Both branches of a probe, analyzed in one flow on the pair network, must
each agree with analyzing the fixed-out problem alone (fix_variables, then
analyze), dict order included, for integer and Fraction coefficients
alike."""

from fractions import Fraction

import numpy as np
import pytest

from quboprep import _fast, persistency
from quboprep._fast import BranchPair, IntArrays, analyze_branch
from quboprep.model import Qubo, fix_variables
from quboprep.network import SOURCE, max_flow
from quboprep.persistency import analyze

from helpers import count_kernel_calls, random_qubo, scaled_qubo, with_fractions

_INT32_MAX = 2**31 - 1


def _assert_pair_matches_single(q: Qubo) -> None:
    pair = BranchPair.of(IntArrays.from_qubo(q))
    for u in range(q.num_vars):
        for b, (strong, weak, bound) in enumerate(analyze_branch(pair, u)):
            red = fix_variables(q, {u: b})
            ref = analyze(red.reduced)
            assert bound == ref.bound + red.delta
            assert repr(strong) == repr({red.surviving[j]: v for j, v in ref.strong.items()})
            assert repr(weak) == repr({red.surviving[j]: v for j, v in ref.weak.items()})


def _source_total(net) -> int:
    return int(net.caps[: net.indptr[SOURCE + 1]].sum())


@pytest.mark.parametrize("seed", range(10))
def test_branch_analysis_matches_dict_pipeline(seed):
    rng = np.random.default_rng(7000 + seed)
    q_int = random_qubo(rng, int(rng.integers(3, 12)))
    for q in (q_int, with_fractions(rng, q_int)):
        _assert_pair_matches_single(q)


def test_isolated_and_empty_branches():
    q = Qubo.from_terms(2, {0: 3})
    (_, _, bound0), (strong, weak, bound) = analyze_branch(BranchPair.of(IntArrays.from_qubo(q)), 0)
    # fixing the only active variable leaves an isolated one
    assert (bound0, bound) == (0, 3)
    assert weak == {1: 0}
    assert strong == {}
    # a one-variable problem leaves both branches empty
    _assert_pair_matches_single(Qubo.from_terms(1, {0: -2}, {}, Fraction(1, 2)))


def test_all_isolated_problem():
    """No terms at all: every network arc has capacity 0."""
    q = Qubo.from_terms(3, {}, {}, 5)
    _assert_pair_matches_single(q)
    for strong, weak, bound in analyze_branch(BranchPair.of(IntArrays.from_qubo(q)), 1):
        assert (strong, weak, bound) == ({}, {0: 0, 2: 0}, 5)


@pytest.mark.parametrize("seed", range(4))
def test_pair_on_the_dinic_path(seed, monkeypatch):
    """Coefficients scaled so that every branch's source capacity fits int32
    but some pair's does not.  The name is historical: the pair used to fall
    back to a second kernel here.  Every arc fits int32, so each flow is one
    call of scipy's kernel, and the pair must match each branch alone."""
    sources: dict[str, list[int]] = {"pair": [], "single": []}

    def spy(kind):
        def run(net):
            sources[kind].append(_source_total(net))
            return max_flow(net)

        return run

    monkeypatch.setattr(_fast, "max_flow", spy("pair"))
    monkeypatch.setattr(persistency, "max_flow", spy("single"))
    calls = count_kernel_calls(monkeypatch)
    small = random_qubo(np.random.default_rng(7100 + seed), 6)
    _assert_pair_matches_single(small)
    k = _INT32_MAX // max(sources["single"])
    assert max(sources["pair"]) * k > _INT32_MAX
    for seen in sources.values():
        seen.clear()
    calls.clear()
    _assert_pair_matches_single(scaled_qubo(small, k))
    assert max(sources["single"]) <= _INT32_MAX
    assert max(sources["pair"]) > _INT32_MAX
    assert len(calls) == len(sources["single"]) + len(sources["pair"])
