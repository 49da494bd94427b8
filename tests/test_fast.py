"""A probe branch, folded into the problem's arrays, must agree with
analyzing the fixed-out problem (fix_variables, then analyze), for integer
and Fraction coefficients alike."""

from fractions import Fraction

import numpy as np
import pytest

from quboprep._fast import IntArrays, analyze_branch
from quboprep.model import Qubo, fix_variables
from quboprep.persistency import analyze

from helpers import random_qubo


def _with_fractions(rng, q: Qubo) -> Qubo:
    """``q`` with every coefficient divided by a random small denominator."""
    dens = (2, 3, 4, 6)
    return Qubo.from_terms(
        q.num_vars,
        {i: Fraction(a, int(rng.choice(dens))) for i, a in q.linear.items()},
        {k: Fraction(a, int(rng.choice(dens))) for k, a in q.quadratic.items()},
        Fraction(1, 3),
    )


@pytest.mark.parametrize("seed", range(10))
def test_branch_analysis_matches_dict_pipeline(seed):
    rng = np.random.default_rng(7000 + seed)
    q_int = random_qubo(rng, int(rng.integers(3, 12)))
    for q in (q_int, _with_fractions(rng, q_int)):
        arr = IntArrays.from_qubo(q)
        for u in range(q.num_vars):
            for b in (0, 1):
                strong, weak, bound = analyze_branch(arr, u, b)
                red = fix_variables(q, {u: b})
                ref = analyze(red.reduced)
                assert bound == ref.bound + red.delta
                assert strong == {red.surviving[j]: v for j, v in ref.strong.items()}
                assert weak == {red.surviving[j]: v for j, v in ref.weak.items()}


def test_isolated_and_empty_branches():
    q = Qubo.from_terms(2, {0: 3})
    arr = IntArrays.from_qubo(q)
    strong, weak, bound = analyze_branch(arr, 0, 1)
    # fixing the only active variable leaves an empty problem
    assert bound == 3
    assert weak == {1: 0}
    assert strong == {}
