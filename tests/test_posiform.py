"""Posiform rewrite tests: positivity, pointwise equality, exact arrays."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from quboprep.errors import SizeGuardError
from quboprep.model import Qubo, _fold, fix_variables, substitute
from quboprep.posiform import IntArrays, to_posiform
from quboprep.probing import probe

from helpers import class_and_fixes, enumerate_energies, posiform_energy, random_qubo


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


# --- IntArrays as probing's working problem ----------------------------------


def _entries(arr: IntArrays) -> tuple[list, list]:
    return arr.lin.tolist(), list(zip(arr.qi.tolist(), arr.qj.tolist(), arr.qv.tolist()))


def _scaled_entries(q: Qubo, scale: int) -> tuple[list, list]:
    """(lin, sorted quadratic triples) of ``q`` times ``scale``, as ints."""
    lin = [int(q.linear.get(i, 0) * scale) for i in range(q.num_vars)]
    quad = [(i, j, int(a * scale)) for (i, j), a in sorted(q.quadratic.items())]
    return lin, quad


@settings(max_examples=200, deadline=None)
@given(class_and_fixes())
def test_fold_matches_dict_fold(case):
    q, cls, fixes = case
    arr = IntArrays.from_qubo(q)
    folded, delta = arr.fold(fixes, cls)
    red = _fold(q, fixes, cls)
    assert delta == red.delta
    assert (folded.num_vars, folded.scale, folded.offset) == (len(red.surviving), arr.scale, q.offset)
    assert _entries(folded) == _scaled_entries(red.reduced, arr.scale)
    # The state probing keeps is a chain of folds; a second fold of the
    # sorted result still matches the dicts.
    if folded.num_vars:
        again, delta2 = folded.fold({0: 1}, {})
        red2 = fix_variables(red.reduced, {0: 1})
        assert delta2 == red2.delta
        assert _entries(again) == _scaled_entries(red2.reduced, arr.scale)


def test_fold_of_a_complemented_class_hand_example():
    # x2 := 1 - x0, x3 := x0 in -x2 + 2·x2·x1 + 3·x3·x1 + x0·x2:
    # -(1 - y0) + 2(1 - y0)y1 + 3·y0·y1 + y0(1 - y0) = -1 + y0 + 2y1 + y0·y1.
    q = Qubo.from_terms(4, {2: -1}, {(1, 2): 2, (1, 3): 3, (0, 2): 1})
    folded, delta = IntArrays.from_qubo(q).fold({}, {2: (0, True), 3: (0, False)})
    assert delta == -1
    assert _entries(folded) == ([1, 2], [(0, 1, 1)])
    assert _entries(folded) == _scaled_entries(substitute(q, {2: (0, True), 3: (0, False)}).reduced, 1)


def _at_scale(q: Qubo, scale: int) -> IntArrays:
    arr = IntArrays.from_qubo(q)
    k = scale // arr.scale
    return IntArrays.merged(q.num_vars, scale, arr.lin * k, arr.qi, arr.qj, arr.qv * k, q.offset)


def test_plus_matches_the_dicts():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        p, r = random_qubo(rng, n), random_qubo(rng, n)
        p = Qubo.from_terms(n, {i: Fraction(a, 3) for i, a in p.linear.items()}, p.quadratic, 2)
        r = Qubo.from_terms(n, r.linear, {k: Fraction(a, 3) for k, a in r.quadratic.items()}, 1)
        total = Qubo.from_terms(
            n,
            {i: p.linear.get(i, 0) + r.linear.get(i, 0) for i in range(n)},
            {k: p.quadratic.get(k, 0) + r.quadratic.get(k, 0) for k in p.quadratic.keys() | r.quadratic.keys()},
            p.offset + r.offset,
        )
        ap, ar = _at_scale(p, 3), _at_scale(r, 3)
        both = ap.plus(ar)
        assert _entries(both) == _scaled_entries(total, 3)
        assert both.offset == total.offset


def test_fold_past_the_limit_raises_without_wrapping():
    # a·x2·x3 with x2 := 1 - y0, x3 := 1 - y1 is a - a·y0 - a·y1 + a·y0·y1:
    # the magnitude triples to 3a >= 2**63, where an int64 sum wraps.
    a = 2**62 - 1
    arr = IntArrays.from_qubo(Qubo.from_terms(4, {}, {(2, 3): a}))
    wrapped = np.abs(np.array([-a, -a, a], dtype=np.int64)).sum()
    assert wrapped < 2**62  # what an int64 guard would have seen
    with pytest.raises(SizeGuardError):
        arr.fold({}, {2: (0, True), 3: (1, True)})
    # Just inside the limit the fold is exact.
    b = (2**62 - 1) // 3
    folded, delta = IntArrays.from_qubo(Qubo.from_terms(4, {}, {(2, 3): b})).fold(
        {}, {2: (0, True), 3: (1, True)}
    )
    assert delta == b
    assert _entries(folded) == ([-b, -b], [(0, 1, b)])


def test_probe_raises_when_a_complemented_relation_passes_the_limit():
    # Probing this instance substitutes x3 := 1 - x1, which raises the
    # coefficient magnitude by 2.4%; scaled to just below 2**62, that step
    # crosses the limit.
    lin = {0: -6, 1: -4, 2: -8, 3: 2, 4: 6, 5: 6, 6: -4, 7: 4}
    quad = {
        (0, 1): -4, (0, 2): 12, (0, 5): -8, (0, 6): 12, (1, 3): 12, (2, 3): -8, (2, 6): 12,
        (3, 4): 8, (3, 6): -8, (3, 7): -12, (4, 6): -12, (4, 7): -4, (5, 7): -4, (6, 7): 8,
    }
    q = Qubo.from_terms(8, lin, quad)
    assert (3, 1, True) in probe(q).relations
    k = (2**62 - 1) // (sum(map(abs, lin.values())) + sum(map(abs, quad.values())))
    big = Qubo.from_terms(8, {i: k * a for i, a in lin.items()}, {key: k * a for key, a in quad.items()})
    IntArrays.from_qubo(big)  # the input itself is within the limit
    with pytest.raises(SizeGuardError):
        probe(big)
