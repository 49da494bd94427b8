"""Probing tests: rules, soundness, dominance, termination."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quboprep import persistency, probing
from quboprep._fast import BranchPair
from quboprep.model import IsingModel, Qubo, ising_to_qubo
from quboprep.persistency import analyze
from quboprep.probing import probe

from helpers import (
    assert_same_arrays,
    exact_min,
    random_qubo,
    reference_add_implications,
    with_fractions,
)
from test_probe_golden import _workloads


def test_fully_weak_problem_resolves_in_pass_one():
    q = Qubo.from_terms(3, {0: -1, 1: -2, 2: -3})
    out = probe(q)
    assert out.probe_pct == 100.0
    assert out.passes == 1
    assert out.reduction.fixed == {0: 1, 1: 1, 2: 1}


def test_max_passes_validation():
    with pytest.raises(ValueError):
        probe(Qubo.from_terms(1, {0: 1}), max_passes=0)


def test_relations_discovered_and_canonicalized():
    # Optima are exactly {x0=1,x1=0} and {x0=0,x1=1}: probing pins x1 = !x0
    # (or resolves the pair outright; either way the reduction must keep
    # one of the two optima).
    q = Qubo.from_terms(2, {0: -1, 1: -1}, {(0, 1): 2})
    out = probe(q)
    assert out.probe_pct == 100.0
    for j, i, comp in out.relations:
        assert i < j
    minimum, minimizers = exact_min(q)
    lifted = out.reduction.lift([0] * out.reduction.reduced.num_vars)
    assert q.energy(lifted) == minimum


def test_relation_instance_with_frustration():
    # A frustrated triangle plus an equality chain hanging off it: plain
    # analysis resolves nothing on the triangle, probing must still be sound.
    q = Qubo.from_terms(
        4,
        {0: -2, 1: -2, 2: -2, 3: -1},
        {(0, 1): 3, (0, 2): 3, (1, 2): 3, (2, 3): 2},
    )
    out = probe(q)
    minimum, minimizers = exact_min(q)
    mn2, _ = exact_min(out.reduction.reduced)
    assert mn2 + out.reduction.delta == minimum


@pytest.mark.parametrize("seed", range(30))
def test_optimum_preserved_and_claims_sound(seed):
    rng = np.random.default_rng(5000 + seed)
    q = random_qubo(rng, int(rng.integers(2, 12)))
    out = probe(q)
    minimum, minimizers = exact_min(q)
    mn2, _ = exact_min(out.reduction.reduced)
    assert mn2 + out.reduction.delta == minimum
    assert out.bound <= minimum
    # fixed and relation-eliminated variables are disjoint
    eliminated = {j for j, _, _ in out.relations}
    assert not (set(out.fixed) & eliminated)
    # the full reduction must agree with at least one minimizer
    def consistent(m):
        if any(m[v] != val for v, val in out.fixed.items()):
            return False
        return all(m[j] == (1 - m[i] if c else m[i]) for j, i, c in out.relations)
    assert any(consistent(m) for m in minimizers)


@pytest.mark.parametrize("seed", range(15))
def test_probe_dominates_weak_persistency(seed):
    rng = np.random.default_rng(6000 + seed)
    q = random_qubo(rng, 10)
    res = analyze(q)
    out = probe(q)
    assert out.probe_pct >= res.weak_pct


def test_termination_respects_max_passes():
    rng = np.random.default_rng(9)
    q = random_qubo(rng, 10)
    out = probe(q, max_passes=1)
    assert out.passes == 1


def test_incumbent_dead_branch_rule():
    # x0=0 branch has minimum 0; an incumbent of -1 kills it, so probing
    # must fix x0=1 even though both optima of the quadratic tie remain.
    q = Qubo.from_terms(3, {0: -2, 1: -1, 2: -1}, {(1, 2): 1, (0, 1): 1})
    minimum, _ = exact_min(q)
    out = probe(q, incumbent=minimum)
    mn2, _ = exact_min(out.reduction.reduced)
    assert mn2 + out.reduction.delta == minimum


def test_incumbent_below_optimum_raises():
    # frustrated triangle: nothing pre-resolves, so probing runs and both
    # branch bounds exceed the impossible incumbent
    q = Qubo.from_terms(
        3, {0: -2, 1: -2, 2: -2}, {(0, 1): 3, (0, 2): 3, (1, 2): 3}
    )
    with pytest.raises(ValueError):
        probe(q, incumbent=-50)


def test_report_text():
    q = Qubo.from_terms(2, {0: -1, 1: 2})
    out = probe(q)
    text = out.to_csv_text()
    assert "probe_pct,passes,bound" in text
    assert text.startswith("var,value,class")


def test_fractional_coefficients_keep_optimum():
    q = Qubo.from_terms(3, {0: Fraction(-3, 2), 1: -1}, {(0, 1): Fraction(5, 2)})
    out = probe(q)
    minimum, _ = exact_min(q)
    mn2, _ = exact_min(out.reduction.reduced)
    assert mn2 + out.reduction.delta == minimum


# Fixing or substituting a variable that carries implication penalties moves
# constants into the step's delta; the working problem must keep them, or
# later working bounds come out too high.  On these instances dropping them
# reports bound -3 for minimum -4 (-5 for -6 when scaled by 3/2).
_IMPL_LIN = {0: -2, 1: 2, 2: 3}
_IMPL_QUAD = {
    (0, 1): 3, (0, 2): -3, (0, 3): 2, (1, 2): -4, (1, 3): -1,
    (1, 4): -3, (2, 3): -4, (2, 4): 3, (3, 4): 2,
}


@pytest.mark.parametrize(
    "scale, expected_min", [(1, -4), (Fraction(3, 2), -6)], ids=["int", "fraction"]
)
def test_bound_sound_after_applying_implied_variables(scale, expected_min):
    q = Qubo.from_terms(
        5,
        {i: a * scale for i, a in _IMPL_LIN.items()},
        {k: a * scale for k, a in _IMPL_QUAD.items()},
    )
    minimum, _ = exact_min(q)
    assert minimum == expected_min
    out = probe(q)
    assert out.bound <= minimum
    mn2, _ = exact_min(out.reduction.reduced)
    assert mn2 + out.reduction.delta == minimum


def test_no_false_dead_branches_on_soundness_sweep_instance():
    # Instance 187 of the acceptance soundness sweep (rng 20240): skewed
    # working bounds make both branches of a variable look dead, and probe
    # raises "incumbent -13 is below the optimum".
    lin = {0: -3, 1: 2, 2: -2, 5: -3, 6: 1, 7: 2, 8: 4, 9: 3, 10: -2}
    quad = {
        (0, 1): 3, (0, 2): 3, (0, 3): 4, (0, 4): 4, (0, 8): -2, (0, 9): 2,
        (1, 2): -3, (1, 3): -2, (1, 4): 3, (1, 5): -1, (1, 6): 2, (1, 7): 2,
        (1, 8): -1, (1, 9): -2, (1, 10): -1, (2, 3): 3, (2, 7): -1, (2, 8): -3,
        (2, 10): 1, (3, 4): 4, (3, 5): 2, (3, 8): -1, (3, 9): -1, (3, 10): 4,
        (4, 5): -1, (4, 7): 2, (4, 8): -4, (4, 9): -3, (5, 6): -3, (5, 7): 2,
        (5, 9): 1, (6, 7): 4, (6, 8): 3, (6, 9): -4, (6, 10): -3, (7, 8): 1,
        (7, 10): 1, (8, 9): 4, (8, 10): -1, (9, 10): 4,
    }
    q = Qubo.from_terms(11, lin, quad)
    minimum, _ = exact_min(q)
    out = probe(q)
    assert out.bound <= minimum
    mn2, _ = exact_min(out.reduction.reduced)
    assert mn2 + out.reduction.delta == minimum


# Each sweep holds an instance whose probe bound exceeds the minimum when
# the constants of fixing implied variables are dropped from the penalty.
@pytest.mark.parametrize(
    "seed, fractional",
    [(7, False), (20, False), (31, False), (41, True)],
    ids=["7", "20", "31", "fraction-41"],
)
def test_probe_bound_sound_on_random_sweep(seed, fractional):
    rng = np.random.default_rng(seed)
    for _ in range(150):
        n = int(rng.integers(2, 11))
        q = random_qubo(rng, n, coeff_range=(-4, 4), density=float(rng.uniform(0.2, 0.9)))
        if fractional:  # a random denominator of 1..4 per coefficient
            q = Qubo.from_terms(
                n,
                {i: Fraction(a, int(rng.integers(1, 5))) for i, a in q.linear.items()},
                {k: Fraction(a, int(rng.integers(1, 5))) for k, a in q.quadratic.items()},
            )
        minimum, _ = exact_min(q)
        out = probe(q)
        assert out.bound <= minimum



def test_implication_entries_are_added_in_key_order(monkeypatch):
    """``add_implications`` hands ``plus`` its u–j entries with strictly
    increasing keys, whatever the order of the implications."""
    from quboprep.posiform import IntArrays
    from quboprep.probing import _ProbeState

    state = _ProbeState(Qubo.from_terms(6, {k: 1 for k in range(6)}))
    plus, added = IntArrays.plus, []
    monkeypatch.setattr(
        IntArrays, "plus", lambda self, other: added.append(other) or plus(self, other)
    )
    # x3 = 1 forces x5 = 0 and x4 = 1; x3 = 0 forces x1 = 1: keys 23, 22, 9.
    state.add_implications(3, [(1, 5, 0), (0, 1, 1), (1, 4, 1)])
    (entries,) = added
    assert (entries.qi * 6 + entries.qj).tolist() == [9, 22, 23]
    assert (state.penalty.qi * 6 + state.penalty.qj).tolist() == [9, 22, 23]


@st.composite
def _implication_rounds(draw):
    """A QUBO whose u–j couplings have random signs (or are absent), with
    int or Fraction coefficients, and rounds of implications (b, j, v) on
    u, each j at most once per round.  Later rounds repeat implications
    and meet the penalties of earlier ones."""
    n = draw(st.integers(2, 6))
    size = st.integers(1, 3)
    if draw(st.booleans()):
        size = st.builds(Fraction, size, st.integers(1, 4))
    u = draw(st.integers(0, n - 1))
    others = [j for j in range(n) if j != u]
    lin = {i: draw(st.integers(-1, 1)) * draw(size) for i in range(n)}
    quad = {}
    for i in range(n):
        for j in range(i + 1, n):
            sign = draw(st.sampled_from([-1, 0, 1]))
            if sign:
                quad[i, j] = sign * draw(size)
    rounds = [
        [(draw(st.integers(0, 1)), j, draw(st.integers(0, 1))) for j in js]
        for js in draw(st.lists(st.lists(st.sampled_from(others), unique=True), max_size=3))
    ]
    return Qubo.from_terms(n, lin, quad), u, rounds


def _scaled_energy(arr, values) -> Fraction:
    x = np.array(values, dtype=np.int64)
    quad = int((arr.qv * x[arr.qi] * x[arr.qj]).sum())
    return arr.offset + Fraction(int(arr.lin @ x) + quad, arr.scale)


@settings(max_examples=300, deadline=None)
@given(_implication_rounds())
def test_implication_penalties_match_the_four_sign_cases(case):
    """``add_implications`` leaves the penalty arrays and the recorded
    implications of the four-case reference, and each implication it
    records adds exactly p·[x_u = b]·[x_j ≠ v] to every assignment."""
    q, u, rounds = case
    state, reference = probing._ProbeState(q), probing._ProbeState(q)
    for implied in rounds:
        before, seen = state.penalty, set(state._impl_seen)
        state.add_implications(u, implied)
        reference_add_implications(reference, u, implied)
        assert_same_arrays(state.penalty, reference.penalty)
        assert repr(state.penalty.offset) == repr(reference.penalty.offset)
        assert state._impl_seen == reference._impl_seen
        new = state._impl_seen - seen
        for values in np.ndindex(*[2] * q.num_vars):
            want = sum(
                probing.IMPLICATION_WEIGHT * (values[u] == b) * (values[j] != v)
                for _, b, j, v in new
            )
            got = _scaled_energy(state.penalty, values) - _scaled_energy(before, values)
            assert got == want


def _spin_glass(rng: np.random.Generator, n: int, density: float, field: float) -> Qubo:
    """The QUBO of a random Ising spin glass: couplings ±1 or ±2 on a
    G(n, density) graph, and a field ±1 on each spin with probability
    ``field``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    couplings = {key: int(rng.choice([-2, -1, 1, 2])) for key in pairs}
    fields = {i: int(rng.choice([-1, 1])) for i in range(n) if rng.random() < field}
    return ising_to_qubo(IsingModel.from_terms(n, fields, couplings))


def _batch_cases(chunk: int):
    """100 seeded QUBOs per chunk with 5–14 variables, every second one
    with Fraction coefficients.  Every other pair is a spin glass with no
    fields, whose frustration leaves long runs of probes that change
    nothing, so most of their probes run in batches."""
    rng = np.random.default_rng(4400 + chunk)
    for k in range(100):
        n, density = int(rng.integers(5, 15)), rng.uniform(0.2, 0.9)
        if k % 4 < 2:
            q = random_qubo(rng, n, density=density)
        else:
            q = _spin_glass(rng, n, density, 0.0)
        yield with_fractions(rng, q) if k % 2 else q


@pytest.mark.parametrize("chunk", range(4))
def test_batched_probes_match_single_probes(chunk, monkeypatch):
    """Outcomes are repr-identical with up to 4 (or 3, or 2) probes per max
    flow and with one; every batch of more than one pair stays within the
    entries budget, which every sixth case cuts to about 3 pairs."""
    batches = []
    analyze_branch = probing.analyze_branch

    def spy(pair, us):
        batches.append((len(us), 2 * len(us) * len(pair.arr.qv), persistency.UNION_ENTRIES))
        return analyze_branch(pair, us)

    for k, q in enumerate(_batch_cases(chunk)):
        monkeypatch.setattr(probing, "analyze_branch", spy)
        monkeypatch.setattr(probing, "_BATCH", 1)
        alone = repr(probe(q))
        monkeypatch.setattr(probing, "_BATCH", (4, 3, 2)[k % 3])
        if k % 6 == 0:
            monkeypatch.setattr(persistency, "UNION_ENTRIES", 6 * len(q.quadratic))
        assert repr(probe(q)) == alone
        monkeypatch.undo()
    assert {2, 3, 4} <= {size for size, _, _ in batches}
    assert all(entries <= budget for size, entries, budget in batches if size > 1)


def test_batch_results_never_outlive_their_working_problem(monkeypatch):
    """Each probe's result was computed on the working problem it is used
    on: a change drops the rest of a batch, also where a stale result would
    give the same outcome (it is still sound, only weaker)."""
    made = {}  # id of a branch result -> (the result, the problem it is of)
    analyze_branch = probing.analyze_branch
    analyze_branches = probing._ProbeState.analyze_branches

    def spy(pair, us):
        out = analyze_branch(pair, us)
        made.update((id(branch), (branch, pair.arr)) for branch in out)
        return out

    def checked(state, u, ahead):
        result = analyze_branches(state, u, ahead)
        assert all(made[id(branch)][1] is state.working() for branch in result)
        return result

    monkeypatch.setattr(probing, "analyze_branch", spy)
    monkeypatch.setattr(probing._ProbeState, "analyze_branches", checked)
    # Sparse spin glasses with a few fields: some probes record implications
    # or fix variables after long runs that change nothing.
    rng = np.random.default_rng(4500)
    for _ in range(100):
        probe(_spin_glass(rng, int(rng.integers(12, 24)), rng.uniform(0.05, 0.25), 0.2))
    assert len(made) > 1000


def test_probing_reuses_its_layout(monkeypatch):
    """A pair layout is laid out again only for another working problem or
    another number of pairs: no two consecutive layouts have the same
    ``(arr, pairs)``, on the benchmark's probe inputs and on seeded int and
    Fraction QUBOs, whose long unchanged runs switch between one pair and
    batches."""
    layouts = []
    of = BranchPair.of.__func__

    def spy(cls, arr, pairs=1):
        layouts.append((arr, pairs))
        return of(cls, arr, pairs)

    monkeypatch.setattr(BranchPair, "of", classmethod(spy))
    wl = _workloads()
    for name in ("probe-cfat", "probe-gcut", "probe-rational"):
        probe(wl.WORKLOADS[name].build(wl.op_seed(1, 0)).qubo)
    rng = np.random.default_rng(4600)
    for k in range(60):
        n, density = int(rng.integers(5, 15)), rng.uniform(0.2, 0.9)
        q = random_qubo(rng, n, density=density) if k % 4 < 2 else _spin_glass(rng, n, density, 0.0)
        probe(with_fractions(rng, q) if k % 2 else q)
    assert {pairs for _, pairs in layouts} >= {1, 4}
    for (arr, pairs), (next_arr, next_pairs) in zip(layouts, layouts[1:]):
        assert next_arr is not arr or next_pairs != pairs
