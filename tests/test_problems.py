"""Clique and Max Cut encodings: optima identities and decoders."""

import numpy as np
import pytest

from quboprep.experiments import problem_qubo
from quboprep.graphs import Graph, gen_gnp
from quboprep.problems import (
    CliqueEncodingParams,
    clique_qubo,
    decode_clique,
    decode_cut,
    maxcut_ising,
)

from helpers import exact_min

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


class TestCliqueComplementPenalty:
    def test_k3_has_no_quadratic_terms(self):
        q = clique_qubo(K3)
        assert q.linear == {0: -1, 1: -1, 2: -1}
        assert not q.quadratic
        assert exact_min(q)[0] == -3

    def test_p3_minimum_and_optima(self):
        q = clique_qubo(P3)
        minimum, minimizers = exact_min(q)
        assert minimum == -2
        assert set(minimizers) == {(1, 1, 0), (0, 1, 1)}

    def test_default_weights(self):
        params = CliqueEncodingParams.complement_penalty()
        assert (params.A, params.B) == (1, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_minimum_equals_negative_clique_size(self, seed):
        from quboprep.oracle import exact_max_clique

        rng = np.random.default_rng(seed)
        g = gen_gnp(int(rng.integers(4, 13)), float(rng.uniform(0.2, 0.8)), seed)
        q = clique_qubo(g)
        assert -exact_min(q)[0] == len(exact_max_clique(g))


class TestCliqueFixedSize:
    def test_defaults(self):
        params = CliqueEncodingParams.fixed_size(5)
        assert (params.A, params.B, params.K) == (6, 1, 5)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            clique_qubo(K3, CliqueEncodingParams.fixed_size(4))
        with pytest.raises(ValueError):
            CliqueEncodingParams.fixed_size(0)

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_iff_clique_of_size_k(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 9))
        g = gen_gnp(n, 0.6, seed)
        for k in (1, 2, min(3, n)):
            q = clique_qubo(g, CliqueEncodingParams.fixed_size(k))
            for code in range(1 << n):
                values = tuple((code >> i) & 1 for i in range(n))
                support = tuple(v for v in range(n) if values[v])
                is_k_clique = len(support) == k and g.is_clique(support)
                if is_k_clique:
                    assert q.energy(values) == 0
                else:
                    assert q.energy(values) > 0


class TestMaxCut:
    """The max-cut QUBO (``problem_qubo(g, "cut")``, the Ising form
    Σ s_u·s_v over the edges) has energy |E| − 2·cut, so its minimum is
    |E| − 2·maxcut."""

    def test_k2(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert exact_min(problem_qubo(g, "cut"))[0] == 1 - 2 * 1
        m = maxcut_ising(g)
        assert m.energy((1, -1)) == -1

    def test_triangle(self):
        minimum = exact_min(problem_qubo(K3, "cut"))[0]
        assert minimum == -1
        assert K3.num_edges - minimum == 2 * 2

    def test_c5(self):
        assert exact_min(problem_qubo(C5, "cut"))[0] == C5.num_edges - 2 * 4

    @pytest.mark.parametrize("seed", range(8))
    def test_qubo_and_ising_agree(self, seed):
        """Energies agree with the Ising form and the cut on every
        assignment, and the minimum gives the maximum cut."""
        rng = np.random.default_rng(200 + seed)
        g = gen_gnp(int(rng.integers(3, 10)), 0.5, seed)
        q, m = problem_qubo(g, "cut"), maxcut_ising(g)
        cuts = []
        for code in range(1 << g.n):
            bits = tuple((code >> v) & 1 for v in range(g.n))
            cut = decode_cut(g, bits)[1]
            assert q.energy(bits) == m.energy(tuple(2 * b - 1 for b in bits))
            assert q.energy(bits) == g.num_edges - 2 * cut
            cuts.append(cut)
        assert exact_min(q)[0] == g.num_edges - 2 * max(cuts)


class TestDecoders:
    def test_decode_clique_valid(self):
        support, valid = decode_clique(K3, (1, 1, 1))
        assert support == (0, 1, 2) and valid

    def test_decode_clique_invalid(self):
        support, valid = decode_clique(P3, (1, 1, 1))
        assert support == (0, 1, 2) and not valid

    def test_decode_cut_binary_and_spin(self):
        (s0, s1), value = decode_cut(K3, (1, 0, 0))
        assert value == 2 and s1 == (0,)
        (_, s1b), value_b = decode_cut(K3, (1, -1, -1))
        assert (s1b, value_b) == ((0,), 2)

    def test_decode_cut_matches_energy_identity(self):
        rng = np.random.default_rng(17)
        m = maxcut_ising(C5)
        for _ in range(20):
            spins = tuple(int(s) for s in rng.choice([-1, 1], C5.n))
            _, value = decode_cut(C5, spins)
            assert 2 * value == C5.num_edges - m.energy(spins)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decode_clique(K3, (1, 0))
        with pytest.raises(ValueError):
            decode_cut(K3, (2, 0, 0))
