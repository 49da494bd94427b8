"""Graph type, generators, perturbation, and DIMACS I/O tests."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quboprep.errors import FormatError
from quboprep.graphs import (
    Graph,
    gen_cfat,
    gen_g,
    gen_gnp,
    gen_hamming,
    gen_u,
    perturb,
    read_dimacs,
    set_bits,
    write_dimacs,
)

from helpers import reference_cfat_edges, reference_set_bits

# Edge counts and clique sizes of the published DIMACS c-fat instances.
CFAT_PUBLISHED = {
    (200, 1): (1534, 12),
    (200, 2): (3235, 24),
    (200, 5): (8473, 58),
    (500, 1): (4459, 14),
    (500, 2): (9139, 26),
    (500, 5): (23191, 64),
    (500, 10): (46627, 126),
}


@pytest.mark.parametrize("mask", [0, *(1 << k for k in (0, 1, 31, 63, 64, 65, 200))])
def test_set_bits_on_zero_and_single_bits(mask):
    assert set_bits(mask) == reference_set_bits(mask)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 130) - 1))
def test_set_bits_matches_the_loop(mask):
    """Random masks below and past 2**64, as ascending positions."""
    assert set_bits(mask) == reference_set_bits(mask)


@pytest.mark.parametrize("mask", [-1, -5, -(1 << 70)])
def test_set_bits_rejects_negative_masks(mask):
    with pytest.raises(ValueError, match="nonnegative"):
        set_bits(mask)


class TestGraphType:
    def test_canonicalization(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == ((0, 2), (1, 2))
        assert g.degree(2) == 2
        assert g.has_edge(2, 0)

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])

    def test_complement_involution(self):
        for n, p, seed in ((40, 0.3, 0), (200, 0.1, 1)):
            g = gen_gnp(n, p, seed)
            assert g.complement().complement() == g

    def test_complement_of_complete_is_empty(self):
        g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert g.complement().num_edges == 0

    def test_induced_subgraph(self):
        g = Graph.from_edges(5, [(0, 1), (1, 3), (3, 4)])
        sub, labels = g.induced([1, 3, 4])
        assert labels == (1, 3, 4)
        assert sub.edges == ((0, 1), (1, 2))

    def test_is_clique(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.is_clique([0, 1])
        assert not g.is_clique([0, 1, 2])
        assert g.is_clique([]) and g.is_clique([2]) and g.is_clique([1, 1, 2])

    def test_is_clique_matches_pairwise_edges(self):
        g = gen_gnp(12, 0.6, 4)
        rng = np.random.default_rng(0)
        for _ in range(200):
            vs = rng.choice(12, size=int(rng.integers(0, 6)), replace=False).tolist()
            pairwise = all(g.has_edge(u, v) for u in vs for v in vs if u < v)
            assert g.is_clique(vs) == pairwise

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (3, 0), (0, 3), (-3, 2)])
    def test_has_edge_rejects_out_of_range_vertices(self, u, v):
        g = Graph.from_edges(3, [(0, 2)])
        with pytest.raises(ValueError, match="out of range"):
            g.has_edge(u, v)

    @pytest.mark.parametrize("vertices", [[-1, 0], [0, 3], [-1], [5]])
    def test_is_clique_rejects_out_of_range_vertices(self, vertices):
        g = Graph.from_edges(3, [(0, 2)])
        with pytest.raises(ValueError, match="out of range"):
            g.is_clique(vertices)

    @pytest.mark.parametrize(
        "n, p, seed",
        [(0, 0.5, 0), (1, 0.5, 1), (2, 1.0, 2), (2, 0.0, 3), (30, 0.4, 4), (65, 0.5, 5), (130, 0.2, 6)],
    )
    def test_from_bits_matches_from_edges(self, n, p, seed):
        ref = Graph.from_edges(n, gen_gnp(n, p, seed).edges)
        bits = [0] * n
        for u, v in ref.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        g = Graph._from_bits(bits)
        assert g.n == n
        assert g.adjacency_bits == ref.adjacency_bits
        assert "edges" not in vars(g)  # derived only when read
        assert Graph._from_bits(bits) == ref and ref == Graph._from_bits(bits)
        assert hash(Graph._from_bits(bits)) == hash(ref)
        assert repr(Graph._from_bits(bits)) == repr(ref)
        assert g.edges == ref.edges
        assert all(type(v) is int for e in g.edges for v in e)
        assert g.adjacency == ref.adjacency
        assert g.num_edges == ref.num_edges

    def test_from_bits_has_no_other_lazy_attributes(self):
        g = Graph._from_bits([0b10, 0b01])
        assert not hasattr(g, "missing")
        with pytest.raises(AttributeError):
            Graph(1, ()).missing


class TestHamming:
    def test_6_2_counts(self):
        g = gen_hamming(6, 2)
        assert g.n == 64
        assert g.num_edges == 1824  # each vertex misses only its 6 neighbors

    def test_8_2_clique_qubo_size(self):
        from quboprep.problems import clique_qubo

        g = gen_hamming(8, 2)
        q = clique_qubo(g)
        assert q.num_terms == 1280  # 256 linear + 1024 complement edges

    def test_d1_is_complete(self):
        g = gen_hamming(4, 1)
        assert g.num_edges == 16 * 15 // 2

    def test_bounds(self):
        with pytest.raises(ValueError):
            gen_hamming(4, 5)
        with pytest.raises(ValueError):
            gen_hamming(17, 2)


class TestCfat:
    @pytest.mark.parametrize("n,c", sorted(CFAT_PUBLISHED))
    def test_matches_published_edge_counts(self, n, c):
        assert gen_cfat(n, c).num_edges == CFAT_PUBLISHED[(n, c)][0]

    @pytest.mark.parametrize("c", [1, 2, 3, 5, 10, 50, 1000])
    def test_edges_match_group_loop(self, c):
        """The pair mask gives the edges of joining each group to itself and
        to the next group on the ring, in sorted order."""
        for n in [*range(2, 120), 200, 300, 500, 777, 1000]:
            assert gen_cfat(n, c).edges == reference_cfat_edges(n, c), (n, c)
        assert gen_cfat(1, c).edges == ()

    def test_matches_published_clique_sizes(self):
        from quboprep.oracle import exact_max_clique

        for (n, c), (_, omega) in sorted(CFAT_PUBLISHED.items()):
            if n == 200:
                assert len(exact_max_clique(gen_cfat(n, c))) == omega

    def test_simple_and_connected(self):
        g = gen_cfat(100, 2)
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in g.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert len(seen) == g.n

    def test_bounds(self):
        with pytest.raises(ValueError):
            gen_cfat(0, 1)
        with pytest.raises(ValueError):
            gen_cfat(10, 0)


class TestRandomFamilies:
    def test_density_extremes(self):
        assert gen_g(30, 0, 1).num_edges == 0
        assert gen_g(30, 100, 1).num_edges == 30 * 29 // 2
        assert gen_u(30, 0, 1).num_edges == 0
        assert gen_u(30, 100, 1).num_edges == 30 * 29 // 2

    def test_gnp_edge_count_within_3_sigma(self):
        n, p = 500, 0.05
        g = gen_gnp(n, p, 123)
        pairs = n * (n - 1) / 2
        sigma = (pairs * p * (1 - p)) ** 0.5
        assert abs(g.num_edges - pairs * p) <= 3 * sigma

    def test_u_density_calibration(self):
        n, pct = 400, 5.0
        counts = [gen_u(n, pct, s).num_edges for s in range(5)]
        pairs = n * (n - 1) / 2
        mean = sum(counts) / len(counts)
        assert abs(mean - pairs * pct / 100) < 0.25 * pairs * pct / 100

    @pytest.mark.parametrize("gen", [gen_g, gen_gnp, gen_u])
    @pytest.mark.parametrize("n", [-1, -7])
    def test_negative_vertex_counts_raise(self, gen, n):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            gen(n, 0.5, 0)

    def test_seeded_reproducibility(self):
        assert gen_g(50, 10, 7) == gen_g(50, 10, 7)
        assert gen_u(50, 10, 7) == gen_u(50, 10, 7)
        assert gen_g(50, 10, 7) != gen_g(50, 10, 8)

    def test_param_bounds(self):
        with pytest.raises(ValueError):
            gen_g(10, 101, 0)
        with pytest.raises(ValueError):
            gen_gnp(10, 1.5, 0)


class TestPerturb:
    def test_p0_identity(self):
        g = gen_hamming(4, 2)
        assert perturb(g, 0.0, "insert", 0) == g
        assert perturb(g, 0.0, "delete", 0) == g

    def test_p1_extremes(self):
        g = gen_hamming(4, 2)
        assert perturb(g, 1.0, "insert", 0).num_edges == 16 * 15 // 2
        assert perturb(g, 1.0, "delete", 0).num_edges == 0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            perturb(gen_hamming(3, 1), 0.5, "flip", 0)
        with pytest.raises(ValueError):
            perturb(gen_hamming(3, 1), 1.5, "insert", 0)

    def test_deterministic(self):
        g = gen_hamming(5, 2)
        assert perturb(g, 0.3, "delete", 4) == perturb(g, 0.3, "delete", 4)


class TestDimacs:
    def test_roundtrip(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        buf = io.StringIO()
        write_dimacs(g, buf)
        assert read_dimacs(io.StringIO(buf.getvalue())) == g

    def test_duplicate_edge_warns_and_dedupes(self):
        text = "p edge 2 2\ne 1 2\ne 1 2\n"
        with pytest.warns(UserWarning, match="duplicate"):
            g = read_dimacs(io.StringIO(text))
        assert g.num_edges == 1

    def test_comments_tolerated(self):
        text = "c header comment\np edge 3 1\nc mid comment\ne 1 3\n"
        g = read_dimacs(io.StringIO(text))
        assert g.edges == ((0, 2),)

    @pytest.mark.parametrize(
        "text",
        [
            "e 1 2\n",              # edge before header
            "p edge x 1\n",         # malformed header
            "p edge 2 1\ne 1 3\n",  # vertex out of range
            "p edge 2 1\ne 1 1\n",  # self loop
            "p edge 2 1\nq 1 2\n",  # unknown line
        ],
    )
    def test_errors(self, text):
        with pytest.raises(FormatError):
            read_dimacs(io.StringIO(text))

    def test_file_roundtrip(self, tmp_path):
        g = gen_cfat(50, 1)
        path = tmp_path / "g.dimacs"
        write_dimacs(g, path)
        assert read_dimacs(path) == g

    def test_generators_produce_simple_graphs(self):
        for g in (gen_cfat(60, 2), gen_hamming(5, 2), gen_g(40, 20, 3), gen_u(40, 20, 3)):
            assert all(u != v for u, v in g.edges)
            assert len(set(g.edges)) == g.num_edges
            assert all(0 <= u < g.n and 0 <= v < g.n for u, v in g.edges)
