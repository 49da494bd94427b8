"""Soundness tests for strong/weak persistency extraction."""

from fractions import Fraction

import numpy as np
import pytest

from quboprep._fast import BranchPair, analyze_branch
from quboprep.errors import SizeGuardError
from quboprep.model import Qubo, fix_variables
from quboprep import persistency
from quboprep.persistency import PersistencyResult, analyze, reduce, roof_dual
from quboprep.posiform import IntArrays
from quboprep.probing import probe

from helpers import count_kernel_calls, exact_min, random_qubo, scaled_qubo, with_fractions


def test_unique_optimum_is_strong():
    res = analyze(Qubo.from_terms(1, {0: -2}))
    assert res.strong == {0: 1}
    assert res.weak == {0: 1}
    assert res.bound == -2


def test_isolated_variable_reported_weak_zero():
    res = analyze(Qubo.from_terms(2, {0: -1}))
    assert res.strong == {0: 1}
    assert res.weak == {0: 1, 1: 0}


def test_strong_subset_of_weak_enforced():
    with pytest.raises(ValueError):
        PersistencyResult(2, strong={0: 1}, weak={0: 0})


def test_path_center_vertex_is_strong():
    # P3's center sits in both maximum cliques.
    from quboprep.graphs import Graph
    from quboprep.problems import clique_qubo

    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    res = analyze(clique_qubo(p3))
    assert res.strong == {1: 1}
    assert len(res.weak) == 3


def _assert_sound(q: Qubo, res) -> None:
    minimum, minimizers = exact_min(q)
    assert res.bound <= minimum
    for var, val in res.strong.items():
        assert all(m[var] == val for m in minimizers), "strong label violated"
    assert any(
        all(m[var] == val for var, val in res.weak.items()) for m in minimizers
    ), "no minimizer realizes the weak assignment"


@pytest.mark.parametrize("seed", range(40))
def test_soundness_on_random_instances(seed):
    rng = np.random.default_rng(1000 + seed)
    q = random_qubo(rng, int(rng.integers(2, 11)))
    _assert_sound(q, analyze(q))


@pytest.mark.parametrize("seed", range(40))
def test_bound_equals_roof_dual(seed):
    """``analyze`` and ``roof_dual`` each take the posiform constant plus the
    flow over the scale; both must give the same bound, repr for repr, on
    the QUBOs above, their Fraction versions and their 2**32-scaled copies
    (several capacity-scaling phases)."""
    rng = np.random.default_rng(1000 + seed)
    q = random_qubo(rng, int(rng.integers(2, 11)))
    for case in (q, with_fractions(rng, q), scaled_qubo(q, 2**32)):
        assert repr(analyze(case).bound) == repr(roof_dual(case))


def test_roof_dual_extracts_no_labels(monkeypatch):
    """``roof_dual`` stops at the flow: taking the bound through ``analyze``
    (labels and all) took cfat(500,1)'s bound from 82 to 122 ms."""
    rng = np.random.default_rng(27)
    qs = [random_qubo(rng, int(rng.integers(2, 11))) for _ in range(10)]
    bounds = [repr(analyze(q).bound) for q in qs]

    def refuse(adj):
        raise AssertionError("roof_dual extracted labels")

    monkeypatch.setattr(persistency, "extract_labels", refuse)
    assert [repr(roof_dual(q)) for q in qs] == bounds


def test_scaled_problem_agrees_across_flow_paths():
    """2**32·q takes several capacity-scaling phases, q one; labels must
    agree and bounds scale exactly."""
    k = 2**32
    for seed in range(40):
        q = random_qubo(np.random.default_rng(300 + seed), 9)
        big = scaled_qubo(q, k)
        res, res_big = analyze(q), analyze(big)
        assert (res_big.strong, res_big.weak) == (res.strong, res.weak)
        assert res_big.bound == k * res.bound
        assert roof_dual(big) == k * roof_dual(q)


@pytest.mark.parametrize("chunk", range(4))
def test_analyze_and_probe_past_int32_equal_the_unscaled_run(chunk, monkeypatch):
    """Int and Fraction QUBOs of 10–16 variables, × 2**40, run every flow
    through several scaling phases; analyze's labels and probe's fixes,
    relations and passes equal the unscaled run's, bounds × 2**40."""
    k = 2**40
    rng = np.random.default_rng(3300 + chunk)
    calls = count_kernel_calls(monkeypatch)
    for case in range(5):
        q = random_qubo(rng, int(rng.integers(10, 17)), density=rng.uniform(0.2, 0.7))
        q = with_fractions(rng, q) if case % 2 else q
        big = scaled_qubo(q, k)
        calls.clear()
        res, out = analyze(q), probe(q)
        small_calls = len(calls)
        res_big, out_big = analyze(big), probe(big)
        assert len(calls) - small_calls > small_calls
        assert (res_big.strong, res_big.weak) == (res.strong, res.weak)
        assert res_big.bound == k * res.bound
        assert (out_big.fixed, out_big.relations) == (out.fixed, out.relations)
        assert out_big.passes == out.passes
        assert out_big.bound == k * out.bound


@pytest.mark.parametrize("denominator", [1, 3])
def test_huge_coefficients_hit_the_size_guard(denominator):
    # Σ|a| = 2**64: int64 sums wrapped here, and the true minimum is -2**64.
    a = Fraction(-(2**62), denominator)
    q = Qubo.from_terms(3, {1: a, 2: a}, {(0, 1): a, (0, 2): a})
    runs = (
        analyze,
        roof_dual,
        probe,
        lambda q: analyze_branch(BranchPair.of(IntArrays.from_qubo(q)), [0]),
    )
    for run in runs:
        with pytest.raises(SizeGuardError):
            run(q)


def test_coefficients_near_2_to_58_stay_sound():
    rng = np.random.default_rng(58)
    for _ in range(20):
        # 15 terms of magnitude <= 2**58 + 3 keep Σ|a| below 2**62.
        q = random_qubo(rng, 5, coeff_range=(-1, 1), density=1.0)
        q = Qubo.from_terms(
            5,
            {i: a * 2**58 + int(rng.integers(-3, 4)) for i, a in q.linear.items()},
            {k: a * 2**58 + int(rng.integers(-3, 4)) for k, a in q.quadratic.items()},
        )
        res = analyze(q)
        _assert_sound(q, res)
        assert roof_dual(q) == res.bound
        _, (strong, weak, bound) = analyze_branch(BranchPair.of(IntArrays.from_qubo(q)), [0])
        red = fix_variables(q, {0: 1})
        ref = analyze(red.reduced)
        assert bound == ref.bound + red.delta
        assert weak == {red.surviving[j]: v for j, v in ref.weak.items()}


@pytest.mark.parametrize("seed", range(12))
def test_autarky_property(seed):
    rng = np.random.default_rng(2000 + seed)
    q = random_qubo(rng, 9)
    res = analyze(q)
    for _ in range(200):
        x = [int(b) for b in rng.integers(0, 2, q.num_vars)]
        overwritten = list(x)
        for var, val in res.weak.items():
            overwritten[var] = val
        assert q.energy(overwritten) <= q.energy(x)


def test_monotone_reporting():
    for seed in range(20):
        q = random_qubo(np.random.default_rng(3000 + seed), 8)
        res = analyze(q)
        assert res.strong_pct <= res.weak_pct


def test_percentages():
    res = analyze(Qubo.from_terms(4, {0: -2}))
    assert res.strong_pct == 25.0
    assert res.weak_pct == 100.0  # isolated variables get weak zeros
    assert analyze(Qubo.from_terms(0)).weak_pct == 100.0


class TestReduce:
    def test_empty_result_is_identity(self):
        q = random_qubo(np.random.default_rng(0), 5)
        red = reduce(q, PersistencyResult(5), mode="weak")
        assert red.reduced == q

    def test_mode_validation(self):
        q = Qubo.from_terms(2)
        with pytest.raises(ValueError):
            reduce(q, PersistencyResult(2), mode="both")
        with pytest.raises(ValueError):
            reduce(q, PersistencyResult(3), mode="weak")

    @pytest.mark.parametrize("seed", range(15))
    def test_weak_reduction_preserves_minimum(self, seed):
        rng = np.random.default_rng(4000 + seed)
        q = random_qubo(rng, int(rng.integers(3, 13)))
        res = analyze(q)
        red = reduce(q, res, mode="weak")
        assert exact_min(red.reduced)[0] + red.delta == exact_min(q)[0]

    def test_strong_reduction_keeps_all_optima(self):
        rng = np.random.default_rng(77)
        q = random_qubo(rng, 8)
        res = analyze(q)
        red = reduce(q, res, mode="strong")
        _, full_mins = exact_min(q)
        _, sub_mins = exact_min(red.reduced)
        lifted = {red.lift(m) for m in sub_mins}
        assert lifted == set(full_mins)

    def test_hamming_weak_reduction_lifts_to_a_maximum_clique(self):
        from quboprep.graphs import gen_hamming
        from quboprep.problems import clique_qubo, decode_clique

        g = gen_hamming(6, 2)
        q = clique_qubo(g)
        res = analyze(q)
        assert res.weak_pct == 100.0
        red = reduce(q, res, mode="weak")
        assert red.reduced.num_vars == 0
        support, valid = decode_clique(g, red.lift(()))
        assert valid
        assert len(support) == 32  # even-weight codewords form the maximum clique


def test_serialization_rows():
    q = Qubo.from_terms(3, {0: -2, 1: 3})
    res = analyze(q)
    text = res.to_csv_text()
    assert text.startswith("var,value,class")
    assert "0,1,strong" in text
    assert "strong_pct,weak_pct,bound" in text
