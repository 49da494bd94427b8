"""Tests for the QUBO/Ising representations and reductions."""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quboprep.errors import FormatError
from quboprep.model import (
    IsingModel,
    Qubo,
    Reduction,
    fix_variables,
    ising_to_qubo,
    read_qubo,
    spins_to_binary,
    substitute,
    write_qubo,
)

from helpers import class_and_fixes, enumerate_energies, exact_min, random_qubo


class TestEvaluate:
    def test_hand_example(self):
        q = Qubo.from_terms(2, {0: -1, 1: -1}, {(0, 1): 2})
        assert q.energy((1, 1)) == 0
        assert q.energy((1, 0)) == -1

    def test_all_zeros_gives_offset(self):
        q = Qubo.from_terms(3, {0: 5, 2: -7}, {(0, 2): 3}, offset=Fraction(9, 2))
        assert q.energy((0, 0, 0)) == Fraction(9, 2)

    def test_k3_fixed_size_encoding_is_zero_on_the_clique(self):
        from quboprep.graphs import Graph
        from quboprep.problems import CliqueEncodingParams, clique_qubo

        k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        q = clique_qubo(k3, CliqueEncodingParams.fixed_size(3, A=4, B=1))
        assert q.energy((1, 1, 1)) == 0

    def test_dimension_mismatch(self):
        q = Qubo.from_terms(2, {0: 1})
        with pytest.raises(ValueError):
            q.energy((1,))

    def test_domain_check(self):
        q = Qubo.from_terms(2, {0: 1})
        with pytest.raises(ValueError):
            q.energy((2, 0))
        m = IsingModel.from_terms(2, {0: 1})
        with pytest.raises(ValueError):
            m.energy((0, 1))


class TestCanonicalization:
    def test_duplicates_accumulate_and_zeros_drop(self):
        q = Qubo.from_terms(3, {0: 1, 1: 0}, {(2, 1): 2, (1, 2): -2, (0, 2): 1})
        assert q.linear == {0: 1}
        assert q.quadratic == {(0, 2): 1}
        assert q.num_terms == 2

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            Qubo.from_terms(2, {}, {(1, 1): 1})

    def test_index_range(self):
        with pytest.raises(ValueError):
            Qubo.from_terms(2, {2: 1})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_rejected(self, value):
        for terms in ((1, {0: value}), (2, {}, {(0, 1): value}), (1, {}, {}, value)):
            with pytest.raises(ValueError, match="coefficient must be finite"):
                Qubo.from_terms(*terms)


class TestConversions:
    def test_single_coupling(self):
        m = IsingModel.from_terms(2, {}, {(0, 1): 1})
        q = ising_to_qubo(m)
        assert q.energy((1, 1)) == 1  # spins (+1,+1)
        assert q.energy((0, 1)) == -1  # spins (-1,+1)

    def test_empty_models(self):
        m = IsingModel.from_terms(0, offset=Fraction(3, 7))
        q = ising_to_qubo(m)
        assert q.num_vars == 0 and q.offset == Fraction(3, 7)
        assert q.energy(()) == m.energy(()) == Fraction(3, 7)

    def test_exhaustive_equivalence_8_vars(self):
        rng = np.random.default_rng(3)
        h = {i: int(rng.integers(-3, 4)) for i in range(8)}
        jj = {(i, j): int(rng.integers(-3, 4)) for i in range(8) for j in range(i + 1, 8)}
        m = IsingModel.from_terms(8, h, jj, offset=2)
        q = ising_to_qubo(m)
        for code in range(256):
            spins = tuple(1 if (code >> i) & 1 else -1 for i in range(8))
            bits = spins_to_binary(spins)
            assert m.energy(spins) == q.energy(bits)

    def test_argmin_sets_correspond(self):
        rng = np.random.default_rng(5)
        h = {i: int(rng.integers(-4, 5)) for i in range(7)}
        jj = {(i, j): int(rng.integers(-4, 5)) for i in range(7) for j in range(i + 1, 7)}
        m = IsingModel.from_terms(7, h, jj)
        q = ising_to_qubo(m)
        _, qubo_mins = exact_min(q)
        spin_mins = {tuple(2 * b - 1 for b in values) for values in qubo_mins}
        best = min(m.energy(tuple(1 if (c >> i) & 1 else -1 for i in range(7)))
                   for c in range(128))
        actual = {
            s for c in range(128)
            if m.energy(s := tuple(1 if (c >> i) & 1 else -1 for i in range(7))) == best
        }
        assert actual == spin_mins


class TestFixVariables:
    def test_identity(self):
        q = random_qubo(np.random.default_rng(0), 5)
        red = fix_variables(q, {})
        assert red.reduced == q and red.delta == 0
        assert red.lift((1, 0, 1, 0, 1)) == (1, 0, 1, 0, 1)

    def test_hand_example(self):
        q = Qubo.from_terms(2, {0: -1}, {(0, 1): 2})
        red = fix_variables(q, {0: 1})
        assert red.reduced.linear == {0: 2}
        assert red.reduced.quadratic == {}
        assert red.delta == -1

    def test_energy_identity_over_completions(self):
        rng = np.random.default_rng(1)
        q = random_qubo(rng, 10)
        red = fix_variables(q, {1: 1, 4: 0, 6: 1, 9: 0})
        for code in range(64):
            sub = tuple((code >> i) & 1 for i in range(6))
            assert q.energy(red.lift(sub)) == red.reduced.energy(sub) + red.delta

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            fix_variables(Qubo.from_terms(2), {5: 1})


class TestSubstitute:
    def test_plain_identifies_square(self):
        q = Qubo.from_terms(2, {}, {(0, 1): 1})
        red = substitute(q, {1: (0, False)})
        assert red.reduced.linear == {0: 1}
        assert red.reduced.quadratic == {}

    def test_complemented_vanishes(self):
        q = Qubo.from_terms(2, {}, {(0, 1): 1})
        red = substitute(q, {1: (0, True)})
        assert red.reduced.num_terms == 0
        for b in (0, 1):
            assert q.energy(red.lift((b,))) == red.reduced.energy((b,)) + red.delta

    def test_same_variable_rejected(self):
        with pytest.raises(ValueError):
            substitute(Qubo.from_terms(2), {1: (1, False)})

    @pytest.mark.parametrize(
        "relations",
        [{2: (1, False), 1: (0, True)}, {3: (0, False)}, {1: (-1, True)}],
        ids=["substituted-target", "index-too-large", "negative-index"],
    )
    def test_bad_relations_rejected(self, relations):
        with pytest.raises(ValueError):
            substitute(Qubo.from_terms(3), relations)

    def test_energies_agree_on_consistent_assignments(self):
        rng = np.random.default_rng(2)
        q = random_qubo(rng, 8)
        red = substitute(q, {5: (3, True)})
        for code in range(128):
            sub = tuple((code >> i) & 1 for i in range(7))
            full = red.lift(sub)
            assert full[5] == 1 - full[3]
            assert q.energy(full) == red.reduced.energy(sub) + red.delta

    def test_compose_resolves_fixed_targets(self):
        q = Qubo.from_terms(3, {0: -1}, {(0, 1): 2, (1, 2): 1})
        r1 = substitute(q, {2: (1, True)})  # x2 := 1 - x1
        r2 = fix_variables(r1.reduced, {1: 1})  # fixes x1, so x2 resolves to 0
        total = r1.compose(r2)
        assert total.fixed == {1: 1, 2: 0}
        assert total.surviving == (0,)
        for b in (0, 1):
            assert q.energy(total.lift((b,))) == total.reduced.energy((b,)) + total.delta


@settings(max_examples=150, deadline=None)
@given(class_and_fixes())
def test_substitute_class_in_one_pass(case):
    q, cls, fixes = case
    one = substitute(q, cls)
    chain = Reduction.identity(q)
    for m, (i, comp) in cls.items():
        pos = {o: k for k, o in enumerate(chain.surviving)}
        chain = chain.compose(substitute(chain.reduced, {pos[m]: (pos[i], comp)}))
    fields = ("reduced", "delta", "fixed", "substitutions", "surviving")
    assert [getattr(one, f) for f in fields] == [getattr(chain, f) for f in fields]

    pos = {o: k for k, o in enumerate(one.surviving)}
    red = one.compose(fix_variables(one.reduced, {pos[v]: b for v, b in fixes.items()}))
    for y, energy in enumerate_energies(red.reduced):
        assert q.energy(red.lift(y)) == energy + red.delta


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), st.integers(-8, 8))
def test_ising_to_qubo_energy_property(code, offset):
    m = IsingModel.from_terms(
        4,
        {i: ((code >> i) & 1) * Fraction(i - 2, 3) for i in range(4)},
        {(0, 3): code % 5 - 2, (1, 2): Fraction(code % 7 - 3, 2)},
        offset,
    )
    q = ising_to_qubo(m)
    for values, energy in enumerate_energies(q):
        spins = tuple(2 * b - 1 for b in values)
        assert m.energy(spins) == energy


class TestQuboFormat:
    def test_roundtrip(self):
        q = Qubo.from_terms(4, {0: -1, 3: Fraction(1, 2)}, {(1, 2): 7}, offset=-3)
        buf = io.StringIO()
        write_qubo(q, buf)
        assert read_qubo(io.StringIO(buf.getvalue())) == q

    def test_comments_and_linear_terms(self):
        text = "# a comment\np qubo 3 2\no 5\n0 0 -2\n1 2 0.5\n"
        q = read_qubo(io.StringIO(text))
        assert q.linear == {0: -2}
        assert q.quadratic == {(1, 2): Fraction(1, 2)}
        assert q.offset == 5

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p qubo x 2\n", 1),
            ("0 0 1\n", 1),
            ("p qubo 2 1\n0 5 1\n", 2),
            ("p qubo 2 1\n0 1 zz\n", 2),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(FormatError) as err:
            read_qubo(io.StringIO(text))
        assert err.value.line == line

    def test_term_count_mismatch(self):
        with pytest.raises(FormatError):
            read_qubo(io.StringIO("p qubo 2 2\n0 1 1\n"))
