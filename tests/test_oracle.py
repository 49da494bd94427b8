"""Oracle tests: enumeration minima, exact clique/cut, claim verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quboprep.errors import SizeGuardError
from quboprep.graphs import Graph, gen_cfat, gen_gnp, set_bits
from quboprep.model import Qubo
from quboprep.oracle import (
    _color_order,
    _greedy_clique,
    brute_force_qubo,
    exact_max_clique,
    exact_max_cut,
    max_clique_within,
    verify_persistency,
)
from quboprep.persistency import PersistencyResult, analyze

from helpers import exact_min, random_qubo, reference_color_order

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def graphs(max_n: int):
    """Seeded G(n, p) graphs on up to ``max_n`` vertices, density drawn too."""
    return st.builds(
        gen_gnp, st.integers(0, max_n), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1)
    )


def brute_force_clique_size(g: Graph) -> int:
    """Size of a maximum clique by checking every vertex subset (n small)."""
    adj = g.adjacency_bits
    is_clique = [True] * (1 << g.n)
    best = 0
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        rest = mask ^ low
        is_clique[mask] = is_clique[rest] and adj[low.bit_length() - 1] & rest == rest
        if is_clique[mask]:
            best = max(best, mask.bit_count())
    return best


class TestBruteForce:
    def test_single_variable(self):
        minimum, minimizers = brute_force_qubo(Qubo.from_terms(1, {0: -1}), True)
        assert minimum == -1
        assert minimizers == [(1,)]

    def test_p3_clique_qubo(self):
        from quboprep.problems import clique_qubo

        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        minimum, minimizers = brute_force_qubo(clique_qubo(p3), True)
        assert minimum == -2
        assert len(minimizers) == 2

    def test_agrees_with_direct_enumeration(self):
        for seed in range(10):
            q = random_qubo(np.random.default_rng(seed), 9)
            minimum, minimizers = brute_force_qubo(q, True)
            ref_min, ref_args = exact_min(q)
            assert minimum == ref_min
            assert sorted(minimizers) == sorted(ref_args)

    def test_fractional_coefficients(self):
        from fractions import Fraction

        q = Qubo.from_terms(3, {0: Fraction(-1, 3), 1: Fraction(1, 7)}, {(0, 2): Fraction(2, 3)})
        minimum, _ = brute_force_qubo(q)
        assert minimum == exact_min(q)[0]

    def test_zero_vars(self):
        minimum, minimizers = brute_force_qubo(Qubo.from_terms(0, offset=4))
        assert (minimum, minimizers) == (4, [()])

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            brute_force_qubo(Qubo.from_terms(26))

    def test_magnitude_guard(self):
        # Summed in int64, these energies would wrap (2**63 reads as -2**63).
        with pytest.raises(SizeGuardError):
            brute_force_qubo(Qubo.from_terms(2, {0: 2**62, 1: 2**62}))
        assert brute_force_qubo(Qubo.from_terms(2, {0: 2**60, 1: -(2**60)}), True) == (
            -(2**60),
            [(0, 1)],
        )


class TestExactMaxClique:
    def test_complete_graph(self):
        kn = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        assert len(exact_max_clique(kn)) == 6

    def test_c5(self):
        assert len(exact_max_clique(C5)) == 2

    def test_cfat200_1_against_qubo_oracle(self):
        g = gen_cfat(200, 1)
        clique = exact_max_clique(g)
        assert g.is_clique(clique)
        assert len(clique) == 12  # published DIMACS value
        # cross-check: the clique-QUBO energy of the indicator is -|clique|
        from quboprep.problems import clique_qubo

        q = clique_qubo(g)
        indicator = [1 if v in set(clique) else 0 for v in range(g.n)]
        assert q.energy(indicator) == -12

    def test_random_graphs_against_brute_force(self):
        from quboprep.problems import clique_qubo

        for seed in range(6):
            g = gen_gnp(12, 0.5, seed)
            clique = exact_max_clique(g)
            assert -exact_min(clique_qubo(g))[0] == len(clique)

    @settings(max_examples=300, deadline=None)
    @given(graphs(max_n=30), st.data())
    def test_peeled_colors_match_first_fit(self, g, data):
        """Classes peeled off a candidate mask are first-fit's classes, in the
        same order and with the same bounds; colors up to the floor are left
        out."""
        cand = data.draw(st.integers(0, (1 << g.n) - 1))
        floor = data.draw(st.integers(0, g.n))
        adj = g.adjacency_bits
        outside = [~(a | 1 << v) for v, a in enumerate(adj)]
        ordered, bounds = reference_color_order(set_bits(cand), adj)
        assert _color_order(cand, outside, 0) == (ordered, bounds)
        kept = [k for k, b in enumerate(bounds) if b > floor]
        assert _color_order(cand, outside, floor) == (
            [ordered[k] for k in kept],
            [bounds[k] for k in kept],
        )

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=16))
    def test_returns_a_maximum_clique(self, g):
        clique = exact_max_clique(g)
        assert list(clique) == sorted(set(clique))
        assert g.is_clique(clique)
        assert len(clique) == brute_force_clique_size(g)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=80), st.data())
    def test_search_within_a_mask_is_the_induced_subgraphs_search(self, g, data):
        """On the root's masks, the clique found within ``cand`` is the one
        found on the induced subgraph, mapped back to root indices; n up to
        80 makes masks span several words."""
        cand = data.draw(st.integers(0, (1 << g.n) - 1))
        adj = g.adjacency_bits
        outside = [~(a | 1 << v) for v, a in enumerate(adj)]
        sub, labels = g.induced(set_bits(cand))
        want = sum(1 << labels[v] for v in exact_max_clique(sub))
        assert max_clique_within(adj, outside, cand) == want

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=80), st.data())
    def test_need_bounds_the_search_by_the_clique_to_beat(self, g, data):
        """With ``need``, the search returns the clique of the unbounded
        search when that has at least ``need`` vertices, else 0; ``need <=
        0`` is the unbounded search.  Half the draws sit next to the clique
        size, where the bound decides."""
        cand = data.draw(st.integers(0, (1 << g.n) - 1))
        adj = g.adjacency_bits
        outside = [~(a | 1 << v) for v, a in enumerate(adj)]
        want = max_clique_within(adj, outside, cand)
        size = want.bit_count()
        need = data.draw(
            st.one_of(st.integers(-1, cand.bit_count() + 1), st.integers(size - 1, size + 1))
        )
        got = max_clique_within(adj, outside, cand, need)
        assert got == (want if size >= need else 0)

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=40), st.data())
    def test_greedy_start_stops_without_changing_its_clique(self, g, data):
        """Stopping once the best clique outgrows the next seed's degree
        gives the clique that growing from all 8 seeds gives."""
        cand = data.draw(st.integers(0, (1 << g.n) - 1))
        adj = g.adjacency_bits
        members = set_bits(cand)
        degree = {v: (adj[v] & cand).bit_count() for v in members}
        want = 0
        for seed in sorted(members, key=lambda v: (-degree[v], v))[:8]:
            mask, grow = 1 << seed, adj[seed] & cand
            while grow:
                low = grow & -grow
                mask |= low
                grow &= adj[low.bit_length() - 1]
            if mask.bit_count() > want.bit_count():
                want = mask
        assert _greedy_clique(adj, cand) == want


class TestExactMaxCut:
    def test_k2_and_triangle(self):
        assert exact_max_cut(Graph.from_edges(2, [(0, 1)]))[1] == 1
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert exact_max_cut(k3)[1] == 2

    def test_c5(self):
        (s0, s1), value = exact_max_cut(C5)
        assert value == 4
        assert sorted(s0 + s1) == list(range(5))

    def test_partition_realizes_value(self):
        g = gen_gnp(10, 0.5, 3)
        (s0, s1), value = exact_max_cut(g)
        side = set(s1)
        assert sum(1 for u, v in g.edges if (u in side) != (v in side)) == value

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            exact_max_cut(Graph.from_edges(26, []))


class TestVerifyPersistency:
    def test_clean_result(self):
        q = Qubo.from_terms(1, {0: -1})
        report = verify_persistency(q, analyze(q))
        assert report.ok and report.weak_satisfied

    def test_corrupted_strong_claim_is_reported(self):
        q = Qubo.from_terms(1, {0: -1})
        fake = PersistencyResult(1, strong={0: 0}, weak={0: 0})
        report = verify_persistency(q, fake)
        assert not report.ok
        assert report.strong_violations

    def test_inconsistent_weak_assignment_reported(self):
        q = Qubo.from_terms(2, {0: -1, 1: -1})
        fake = PersistencyResult(2, strong={}, weak={0: 0, 1: 0})
        report = verify_persistency(q, fake)
        assert not report.ok and not report.weak_satisfied

    def test_probe_outcome_with_relations(self):
        from quboprep.probing import probe

        q = Qubo.from_terms(2, {0: -1, 1: -1}, {(0, 1): 2})
        report = verify_persistency(q, probe(q))
        assert report.ok

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            verify_persistency(Qubo.from_terms(26), PersistencyResult(26))
