"""Posiform rewrite tests: positivity, pointwise equality, exact arrays."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quboprep.errors import SizeGuardError
from quboprep.model import Qubo, _fold, fix_variables, substitute
from quboprep.posiform import IntArrays, to_posiform
from quboprep.probing import probe

from helpers import (
    assert_same_arrays,
    class_and_fixes,
    enumerate_energies,
    posiform_energy,
    random_qubo,
    reference_fold,
    reference_merged,
    reference_plus,
    with_fractions,
)


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


# --- the key invariant, against argsort-based references ----------------------


def _assert_invariant(arr: IntArrays) -> None:
    """Keys qi * num_vars + qj strictly increase, qi < qj, no zero entry."""
    keys = arr.qi * arr.num_vars + arr.qj
    assert (np.diff(keys) > 0).all() and (arr.qi < arr.qj).all() and (arr.qv != 0).all()


def _same_or_both_raise(got, want) -> bool:
    """Run ``got`` and ``want``: both raise SizeGuardError, or both return
    equal arrays (and equal deltas, for folds) and ``got``'s arrays keep the
    invariant.  Returns whether they raised."""
    try:
        expected = want()
    except SizeGuardError:
        with pytest.raises(SizeGuardError):
            got()
        return True
    result = got()
    if isinstance(result, tuple):
        (result, delta), (expected, expected_delta) = result, expected
        assert delta == expected_delta
    _assert_invariant(result)
    assert_same_arrays(result, expected)
    return False


@st.composite
def _qubos(draw, n: int, within: bool = False):
    """A Qubo on ``n`` variables whose terms come in shuffled key order,
    with small int, small Fraction, or int and Fraction coefficients up to
    2**61.  With ``within``, large coefficients are divided down until the
    scaled magnitude stays just below the 2**62 limit, which a complemented
    fold can then cross."""
    kind = draw(st.sampled_from(["int", "fraction", "huge", "huge fraction"]))
    top = 2**61 if kind.startswith("huge") else 4
    num = st.integers(-top, top)
    den = st.integers(1, 4) if kind.endswith("fraction") else st.just(1)
    pairs = draw(st.permutations([(i, j) for i in range(n) for j in range(i + 1, n)]))
    lin = {i: (draw(num), draw(den)) for i in range(n) if draw(st.booleans())}
    quad = {k: (draw(num), draw(den)) for k in pairs if draw(st.booleans())}
    terms = [*lin.values(), *quad.values()]
    scale = math.lcm(*(d for _, d in terms))
    shrink = sum(abs(a) * (scale // d) for a, d in terms) // (2**62 - 2**10) + 1 if within else 1
    return Qubo.from_terms(
        n,
        {i: Fraction(a // shrink, d) for i, (a, d) in lin.items()},
        {k: Fraction(a // shrink, d) for k, (a, d) in quad.items()},
        Fraction(draw(num), draw(den)),
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(_qubos))
def test_from_qubo_sorts_once_and_guards_the_magnitude(q):
    coeffs = [*q.linear.values(), *q.quadratic.values()]
    scale = math.lcm(*(Fraction(a).denominator for a in coeffs))
    n = q.num_vars
    lin = [int(q.linear.get(i, 0) * scale) for i in range(n)]
    keys = list(q.quadratic)  # in the Qubo's own, shuffled, order
    qv = [int(q.quadratic[k] * scale) for k in keys]
    _same_or_both_raise(
        lambda: IntArrays.from_qubo(q),
        lambda: reference_merged(
            n, scale, lin, [i for i, _ in keys], [j for _, j in keys], qv, q.offset
        ),
    )


@pytest.mark.parametrize("seed", range(20))
def test_from_qubo_scales_fractions_by_integer_products(seed):
    """Each coefficient a scales to a.numerator * (scale // a.denominator),
    which equals the old int(a * scale), with ints and Fractions mixed."""
    rng = np.random.default_rng(seed)
    q = with_fractions(rng, random_qubo(rng, int(rng.integers(1, 16)), (-9, 9)))
    coeffs = [*q.linear.values(), *q.quadratic.values()]
    assert any(isinstance(a, Fraction) for a in coeffs)
    scale = math.lcm(*(Fraction(a).denominator for a in coeffs))
    arr = IntArrays.from_qubo(q)
    assert arr.scale == scale
    assert arr.lin.tolist() == [int(q.linear.get(i, 0) * scale) for i in range(q.num_vars)]
    quad = {k: int(a * scale) for k, a in sorted(q.quadratic.items()) if a}
    assert list(zip(arr.qi.tolist(), arr.qj.tolist())) == list(quad)
    assert arr.qv.tolist() == list(quad.values())
    assert arr.offset == q.offset


@st.composite
def _raw_entries(draw):
    """Unmerged arrays for ``IntArrays.merged``: repeated keys, zeros, sums
    that cancel, keys sorted or not, and values whose total stays below
    2**63 (merged's precondition) but may pass the 2**62 limit."""
    n = draw(st.integers(0, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = draw(st.integers(0, 12)) if pairs else 0
    top = 2**63 // (2 * count + n + 1) if draw(st.booleans()) else 4
    value = st.integers(-top, top) | st.sampled_from([-top, top, top])
    entries = [(*draw(st.sampled_from(pairs)), draw(value)) for _ in range(count)]
    entries += [(i, j, -a) for i, j, a in entries if draw(st.booleans())]
    if draw(st.booleans()):
        entries.sort()
    lin = [draw(value) for _ in range(n)]
    cols = [[e[k] for e in entries] for k in range(3)]
    return n, draw(st.sampled_from([1, 6])), lin, *cols, Fraction(draw(st.integers(-3, 3)), 2)


@settings(max_examples=300, deadline=None)
@given(_raw_entries())
def test_merged_matches_the_reference(case):
    n, scale, lin, qi, qj, qv, offset = case
    arrays = [np.array(col, dtype=np.int64) for col in (lin, qi, qj, qv)]
    _same_or_both_raise(
        lambda: IntArrays.merged(n, scale, *arrays, offset),
        lambda: reference_merged(n, scale, lin, qi, qj, qv, offset),
    )


@st.composite
def _summands(draw):
    """Two problems over the same variables and scale, each with strictly
    increasing keys; the second cancels some of the first one's entries.
    Each stays below 2**62, and their sum may pass it."""
    n = draw(st.integers(0, 7))
    scale = draw(st.sampled_from([1, 6]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out: list[IntArrays] = []
    for _ in range(2):
        cancel = []
        if out:
            a = out[0]
            triples = zip(a.qi.tolist(), a.qj.tolist(), a.qv.tolist())
            cancel = [(i, j, -v) for i, j, v in triples if draw(st.booleans())]
        keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        room = 2**62 - 1 - sum(abs(v) for _, _, v in cancel)
        top = room // (len(keys) + n + 1) if draw(st.booleans()) else 4
        value = st.integers(-top, top) | st.sampled_from([-top, top])
        entries = [(i, j, draw(value)) for i, j in keys] + cancel
        cols = [[e[k] for e in entries] for k in range(3)]
        lin = [draw(value) for _ in range(n)]
        offset = Fraction(draw(st.integers(-6, 6)), scale)
        out.append(reference_merged(n, scale, lin, *cols, offset))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(_summands())
def test_plus_matches_the_reference(case):
    a, b = case
    _same_or_both_raise(lambda: a.plus(b), lambda: reference_plus(a, b))
    _same_or_both_raise(lambda: b.plus(a), lambda: reference_plus(b, a))


@st.composite
def _fold_cases(draw):
    """A problem within the limit, one relation class with random
    complement flags, and fixes of other variables."""
    n = draw(st.integers(0, 7))
    arr = IntArrays.from_qubo(draw(_qubos(n, within=True)))
    order = draw(st.permutations(range(n)))
    size = draw(st.integers(min(n, 1), n))
    cls = {m: (order[0], draw(st.booleans())) for m in order[1:size]}
    fixes = {v: draw(st.integers(0, 1)) for v in order[size:] if draw(st.booleans())}
    return arr, fixes, cls


@settings(max_examples=300, deadline=None)
@given(_fold_cases())
def test_fold_matches_the_reference(case):
    arr, fixes, cls = case
    _same_or_both_raise(lambda: arr.fold(fixes, cls), lambda: reference_fold(arr, fixes, cls))


@st.composite
def _batches(draw):
    """One to five problems of 0 to 5 variables with int or Fraction
    coefficients, some without any term, and whether to bring them to one
    scale."""
    qs = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 5))
        coeff = st.integers(-4, 4)
        if draw(st.booleans()):
            coeff = st.builds(Fraction, coeff, st.integers(1, 4))
        terms = draw(st.booleans())
        lin = {i: draw(coeff) for i in range(n) if terms}
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        quad = {k: draw(coeff) for k in pairs if terms and draw(st.booleans())}
        qs.append(Qubo.from_terms(n, lin, quad, draw(coeff)))
    return qs, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_batches())
def test_union_shifts_each_block(case):
    """Block b of the union is problem b with its variables shifted by the
    variable count of the problems before it; mixed scales raise."""
    qs, shared = case
    arrs = [IntArrays.from_qubo(q) for q in qs]
    if shared:
        scale = math.lcm(*(arr.scale for arr in arrs))
        arrs = [_at_scale(q, scale) for q in qs]
    if len({arr.scale for arr in arrs}) > 1:
        with pytest.raises(ValueError, match="scale"):
            IntArrays.union(arrs)
        return
    union = IntArrays.union(arrs)
    _assert_invariant(union)
    assert (union.num_vars, union.scale, union.offset) == (
        sum(arr.num_vars for arr in arrs), arrs[0].scale, 0
    )
    start = at = 0
    for arr in arrs:
        n, m = arr.num_vars, len(arr.qv)
        qi, qj = union.qi[at : at + m] - start, union.qj[at : at + m] - start
        block = IntArrays(
            n, union.scale, union.lin[start : start + n], qi, qj, union.qv[at : at + m], arr.offset
        )
        assert_same_arrays(block, arr)
        start, at = start + n, at + m
    assert (start, at) == (union.num_vars, len(union.qv))


@pytest.mark.parametrize("extra", [0, 1])
def test_the_limit_is_kept_exactly(extra):
    """Results of magnitude 2**62 - 1 pass and results of 2**62 raise, in
    from_qubo, merged, plus and a complemented fold, as in the references."""
    edge = 2**62 - 1 + extra
    rest = edge - 2**61 - 1
    q = Qubo.from_terms(3, {2: 1}, {(1, 2): 2**61, (0, 1): rest})
    entries = ([0, 0, 1], [1, 0], [2, 1], [2**61, rest])
    from_qubo = (lambda: IntArrays.from_qubo(q), lambda: reference_merged(3, 1, *entries, 0))
    # Unsorted, with a repeated key: (1, 2) twice.
    cols = [np.array(c) for c in ([0, 0, 1], [1, 0, 1], [2, 1, 2], [2**60, rest, 2**60])]
    merged = (lambda: IntArrays.merged(3, 1, *cols, 0), lambda: reference_merged(3, 1, *cols, 0))
    a = IntArrays.from_qubo(Qubo.from_terms(3, {}, {(0, 2): 2**61 - 1}))
    b = IntArrays.from_qubo(Qubo.from_terms(3, {}, {(0, 1): 2**61 + extra}))
    plus = (lambda: a.plus(b), lambda: reference_plus(a, b))
    # a·(1 − y0)(1 − y1) = a − a·y0 − a·y1 + a·y0·y1 triples the magnitude.
    arr = IntArrays.from_qubo(Qubo.from_terms(4, {3: edge % 3}, {(2, 3): edge // 3}))
    subs = {2: (0, True), 3: (1, True)}
    fold = (lambda: arr.fold({}, subs), lambda: reference_fold(arr, {}, subs))
    for got, want in (from_qubo, merged, plus, fold):
        assert _same_or_both_raise(got, want) == bool(extra)
