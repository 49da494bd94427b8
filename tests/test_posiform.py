"""Posiform rewrite tests: positivity, pointwise equality, exact arrays."""

from fractions import Fraction

import numpy as np
import pytest

from quboprep.model import Qubo
from quboprep.posiform import IntArrays, to_posiform

from helpers import enumerate_energies, posiform_energy, random_qubo


def _posiform(q: Qubo):
    return to_posiform(IntArrays.from_qubo(q))


def _assert_arrays(p, lin_codes, lin_vals, qu, qv, quad_vals):
    for got, want in (
        (p.lin_codes, lin_codes),
        (p.lin_vals, lin_vals),
        (p.qu, qu),
        (p.qv, qv),
        (p.quad_vals, quad_vals),
    ):
        assert got.tolist() == want


def _assert_well_formed(p):
    assert (p.lin_vals > 0).all() and (p.quad_vals > 0).all()
    assert len(set((p.lin_codes >> 1).tolist())) == len(p.lin_codes)
    assert (p.qu >> 1 != p.qv >> 1).all()
    codes = np.concatenate([p.lin_codes, p.qu, p.qv])
    assert ((codes >= 0) & (codes >> 1 < p.num_vars)).all()


def _assert_pointwise_equal(q: Qubo):
    p = _posiform(q)
    _assert_well_formed(p)
    for values, energy in enumerate_energies(q):
        assert posiform_energy(p, values) == energy


def test_negative_linear_rewrite():
    p = _posiform(Qubo.from_terms(1, {0: -3}))
    assert p.constant == -3 and p.scale == 1
    _assert_arrays(p, [1], [3], [], [], [])


def test_positive_quadratic_unchanged():
    p = _posiform(Qubo.from_terms(2, {}, {(0, 1): 2}))
    assert p.constant == 0
    _assert_arrays(p, [], [], [0], [2], [2])


def test_negative_quadratic_complements_higher_index():
    p = _posiform(Qubo.from_terms(2, {}, {(0, 1): -2}))
    # induced -2 on x0's linear term turns into constant + complement
    assert p.constant == -2
    _assert_arrays(p, [1], [2], [0], [3], [2])


@pytest.mark.parametrize("seed", range(6))
def test_pointwise_equality_random_10_vars(seed):
    _assert_pointwise_equal(random_qubo(np.random.default_rng(seed), 10, coeff_range=(-5, 5)))


def test_constant_is_a_lower_bound():
    for seed in range(8):
        q = random_qubo(np.random.default_rng(100 + seed), 8)
        minimum = min(e for _, e in enumerate_energies(q))
        assert _posiform(q).constant <= minimum


def test_fractional_coefficients_stay_exact():
    _assert_pointwise_equal(Qubo.from_terms(2, {0: Fraction(-1, 3)}, {(0, 1): Fraction(1, 6)}))
    for seed in range(4):
        rng = np.random.default_rng(600 + seed)
        q = random_qubo(rng, 8)
        q = Qubo.from_terms(
            q.num_vars,
            {i: Fraction(a, int(rng.integers(1, 7))) for i, a in q.linear.items()},
            {k: Fraction(a, int(rng.integers(1, 7))) for k, a in q.quadratic.items()},
            Fraction(-2, 5),
        )
        _assert_pointwise_equal(q)


def test_clique_qubo_of_random_graph_matches_model_evaluate():
    from quboprep.graphs import gen_gnp
    from quboprep.problems import clique_qubo

    _assert_pointwise_equal(clique_qubo(gen_gnp(8, 0.5, 42)))


def test_evaluate_constant_only():
    p = _posiform(Qubo.from_terms(0, offset=Fraction(5, 2)))
    assert posiform_energy(p, ()) == Fraction(5, 2)


def test_evaluate_complemented_literal():
    p = _posiform(Qubo.from_terms(1, {0: -3}, offset=3))
    assert posiform_energy(p, (0,)) == 3
    assert posiform_energy(p, (1,)) == 0
