"""Implication-network construction and exact max-flow tests."""

from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from quboprep import _fast, decompose, network, persistency
from quboprep._fast import BranchPair, analyze_branch
from quboprep.errors import SizeGuardError
from quboprep.graphs import gen_gnp
from quboprep.model import Qubo
from quboprep.network import SINK, SOURCE, build_network, max_flow
from quboprep.persistency import roof_dual
from quboprep.posiform import IntArrays, to_posiform
from quboprep.probing import probe

from helpers import (
    arc_dict,
    arc_reverses,
    arc_tails,
    assert_skew_partners,
    count_kernel_calls,
    exact_min,
    flow_fractions,
    level_run_union,
    literal_node,
    network_flow_value,
    network_from_arcs,
    random_qubo,
    reference_network,
    residual_caps,
    with_fractions,
)
from test_probe_golden import _workloads
from test_split_golden import _GOLDEN as _SPLIT_GOLDEN
from test_split_golden import _bench_graph


def _network(q: Qubo):
    return build_network(IntArrays.from_qubo(q))


def test_empty_posiform_network():
    net = _network(Qubo.from_terms(0))
    assert net.num_nodes == 2
    assert net.num_arcs == 0
    assert max_flow(net).flow_value == 0


def test_single_quadratic_term_arcs():
    q = Qubo.from_terms(2, {}, {(0, 1): 2})
    net = _network(q)
    x0, x1 = literal_node(0), literal_node(1)
    assert arc_dict(net) == {(x0, x1 ^ 1): 2, (x1, x0 ^ 1): 2}
    assert net.scale == 2


def test_linear_term_arcs():
    q = Qubo.from_terms(1, {0: 3})
    net = _network(q)
    x0 = literal_node(0)
    assert arc_dict(net) == {(SOURCE, x0 ^ 1): 3, (x0, SINK): 3}


def test_skew_symmetry_of_clique_network():
    from quboprep.graphs import Graph
    from quboprep.problems import clique_qubo

    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    net = _network(clique_qubo(p3))
    assert_skew_partners(net)


def test_random_networks_store_skew_partners():
    for seed in range(5):
        assert_skew_partners(_network(random_qubo(np.random.default_rng(600 + seed), 9)))


def test_parallel_arcs_merge():
    # (s → x̄0) twice and its partner (x0 → t) once, with the summed capacity.
    net = network_from_arcs(1, [(SOURCE, 3, 1), (SOURCE, 3, 2), (2, SINK, 3)])
    assert arc_dict(net) == {(SOURCE, 3): 3, (2, SINK): 3}


def test_flow_matches_independent_oracle():
    for seed in range(8):
        q = random_qubo(np.random.default_rng(200 + seed), 10)
        net = _network(q)
        assert max_flow(net).flow_value == network_flow_value(net)


def test_scaled_capacities_scale_the_flow():
    """Capacities × 2**32 leave int32, so the scaled copy takes several
    scaling phases; its flow value is the unscaled one × 2**32."""
    for seed in range(4):
        q = random_qubo(np.random.default_rng(300 + seed), 9)
        net = _network(q)
        big = replace(net, caps=net.caps * 2**32)
        assert int(big.caps.max()) > 2**31 - 1
        assert max_flow(big).flow_value == 2**32 * max_flow(net).flow_value


def test_flow_value_invariant_under_arc_order():
    q = random_qubo(np.random.default_rng(7), 8)
    net = _network(q)
    shuffled = list(zip(arc_tails(net).tolist(), net.heads.tolist(), net.caps.tolist()))
    rng = np.random.default_rng(0)
    rng.shuffle(shuffled)
    net2 = network_from_arcs(q.num_vars, shuffled, scale=net.scale)
    assert max_flow(net).flow_value == max_flow(net2).flow_value


def test_symmetric_flow_and_residuals():
    q = random_qubo(np.random.default_rng(11), 8)
    net = _network(q)
    result = max_flow(net)
    flows = flow_fractions(result)
    for (u, v), f in flows.items():
        assert flows[(v ^ 1, u ^ 1)] == f
        assert flows[(v, u)] == -f
    for value in residual_caps(result).values():
        assert value >= 0
    # conservation at every non-terminal node: every arc's reverse is stored
    # and carries the negated flow, so a node's out-arcs hold its net outflow
    balance = {}
    for (u, v), f in flows.items():
        balance[u] = balance.get(u, 0) + f
    for node, net_out in balance.items():
        if node not in (SOURCE, SINK):
            assert net_out == 0
    assert balance.get(SOURCE, 0) == Fraction(result.flow_value, net.scale)


@pytest.mark.parametrize("seed", range(12))
def test_residual_adjacency_matches_residual_caps(seed):
    """The CSR holds exactly the arcs of positive residual capacity."""
    rng = np.random.default_rng(700 + seed)
    result = max_flow(_network(random_qubo(rng, int(rng.integers(2, 12)))))
    adj = result.residual_adjacency()
    rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
    got = set(zip(rows.tolist(), adj.indices.tolist()))
    want = {arc for arc, r in residual_caps(result).items() if r > 0}
    assert got == want
    assert adj.dtype == np.float64
    assert adj.indices.dtype == adj.indptr.dtype == np.int32


@pytest.mark.parametrize("seed", range(8))
def test_csr_graph_from_stored_indptr_matches_coo(seed):
    """scipy's flow on the stored CSR equals its flow on a graph built from COO."""
    net = _network(random_qubo(np.random.default_rng(800 + seed), 10))
    caps32 = net.caps.astype(np.int32)
    shape = (net.num_nodes, net.num_nodes)
    stored = csr_matrix((caps32, net.heads, net.indptr), shape=shape)
    tails = arc_tails(net)
    from_coo = csr_matrix((caps32, (tails, net.heads)), shape=shape)
    for a, b in ((stored.indptr, from_coo.indptr), (stored.indices, from_coo.indices)):
        assert a.tolist() == b.tolist()
    f1, f2 = maximum_flow(stored, SOURCE, SINK), maximum_flow(from_coo, SOURCE, SINK)
    assert (f1.flow != f2.flow).nnz == 0
    coo = f2.flow.tocoo()
    by_arc = dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist()))
    per_arc = np.array([by_arc[arc] for arc in zip(tails.tolist(), net.heads.tolist())])
    result = max_flow(net)
    assert result.flow_value == f2.flow_value
    assert result.flow2.tolist() == (per_arc + per_arc[net.partner]).tolist()


class TestRoofDual:
    def test_negative_linear_only_is_tight(self):
        q = Qubo.from_terms(2, {0: -2, 1: -1})
        assert roof_dual(q) == -3

    def test_k3_clique_qubo(self):
        from quboprep.graphs import Graph
        from quboprep.problems import clique_qubo

        k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        q = clique_qubo(k3)
        assert exact_min(q)[0] == -3
        assert roof_dual(q) == -3

    def test_triangle_maxcut_bound(self):
        from quboprep.graphs import Graph
        from quboprep.model import ising_to_qubo
        from quboprep.problems import maxcut_ising

        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        q = ising_to_qubo(maxcut_ising(g))
        assert roof_dual(q) <= exact_min(q)[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_lower_bound_on_random_instances(self, seed):
        q = random_qubo(np.random.default_rng(400 + seed), 9)
        assert roof_dual(q) <= exact_min(q)[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_submodular_tightness(self, seed):
        rng = np.random.default_rng(500 + seed)
        lin = {i: int(rng.integers(-4, 5)) for i in range(9)}
        quad = {
            (i, j): int(rng.integers(-4, 0))
            for i in range(9)
            for j in range(i + 1, 9)
            if rng.random() < 0.6
        }
        q = Qubo.from_terms(9, lin, quad)
        assert roof_dual(q) == exact_min(q)[0]

    def test_fractional_coefficients(self):
        q = Qubo.from_terms(2, {0: Fraction(-1, 3)}, {(0, 1): Fraction(1, 6)})
        assert roof_dual(q) <= exact_min(q)[0]


def test_flow_matrix_layout_is_checked(monkeypatch):
    """max_flow reads scipy's flow entries by position, so a flow matrix
    whose entries are ordered otherwise than the network's arcs must raise."""
    net = _network(random_qubo(np.random.default_rng(5), 6))
    real = network.maximum_flow

    def reordered(graph, source, sink):
        res = real(graph, source, sink)
        f = res.flow
        order = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(f.indptr[:-1], f.indptr[1:])])
        flow = csr_matrix((f.data[order], f.indices[order], f.indptr), shape=f.shape)
        return SimpleNamespace(flow_value=res.flow_value, flow=flow)

    monkeypatch.setattr(network, "maximum_flow", reordered)
    with pytest.raises(AssertionError, match="arc layout"):
        max_flow(net)


def _assert_max_flow_certificate(result) -> None:
    """Max-flow/min-cut duality and flow feasibility, checked arc by arc in
    Python ints, without enumerating assignments:

    * the arcs leaving the source-reachable residual set carry a total
      capacity equal to the flow value, and the sink is not in that set;
    * flow is conserved at every literal node (every arc's reverse is
      stored and carries the negated flow, so a node's out-arcs hold its
      net outflow), and the source sends out the flow value;
    * 0 ≤ flow2 ≤ 2·cap on every arc of positive capacity.
    """
    net = result.network
    tails, heads = arc_tails(net).tolist(), net.heads.tolist()
    caps, flow2 = net.caps.tolist(), result.flow2.tolist()
    rev = arc_reverses(net).tolist()
    out: dict[int, list[int]] = {}
    for k, u in enumerate(tails):
        out.setdefault(u, []).append(k)
    reached = {SOURCE}
    stack = [SOURCE]
    while stack:
        for k in out.get(stack.pop(), []):
            if 2 * caps[k] - flow2[k] > 0 and heads[k] not in reached:
                reached.add(heads[k])
                stack.append(heads[k])
    assert SINK not in reached
    cut = sum(c for u, v, c in zip(tails, heads, caps) if u in reached and v not in reached)
    assert cut == result.flow_value
    assert sum(flow2[k] for k in out.get(SOURCE, [])) == 2 * result.flow_value
    for node in range(2, net.num_nodes):
        assert sum(flow2[k] for k in out.get(node, [])) == 0
    for k, c in enumerate(caps):
        assert flow2[rev[k]] == -flow2[k]
        if c > 0:
            assert 0 <= flow2[k] <= 2 * c


def _certificate_cases():
    rng = np.random.default_rng(900)
    for k in range(6):
        q = random_qubo(rng, int(rng.integers(20, 41)), density=rng.uniform(0.1, 0.5))
        yield q if k % 2 == 0 else with_fractions(rng, q)


@pytest.mark.parametrize("case", range(6))
def test_max_flow_certificate_on_one_and_many_phases(case):
    """With one scaling phase, and with several on capacities × 2**32."""
    q = list(_certificate_cases())[case]
    net = _network(q)
    _assert_max_flow_certificate(max_flow(net))
    big = replace(net, caps=net.caps * 2**32)
    assert int(big.caps.max()) > 2**31 - 1
    _assert_max_flow_certificate(max_flow(big))


@pytest.mark.parametrize("seed", range(3))
def test_source_total_past_int32_stays_on_scipy(seed, monkeypatch):
    """Every arc fits int32 but the source capacities, and the flow value,
    add up past 2**31: scipy's kernel runs once (an arc's flow never
    exceeds its capacity) and its int64 flow value is the oracle's."""
    net = _network(random_qubo(np.random.default_rng(960 + seed), 16, density=0.3))
    big = replace(net, caps=net.caps * ((2**31 - 1) // int(net.caps.max())))
    assert int(big.caps.max()) <= 2**31 - 1
    expected = network_flow_value(big)
    assert expected > 2**31
    calls = count_kernel_calls(monkeypatch)
    result = max_flow(big)
    assert len(calls) == 1
    assert result.flow_value == expected
    _assert_max_flow_certificate(result)


def _scaled_networks():
    """Random int and Fraction QUBO networks with capacities × 10**7, × 2**40
    and × the largest factor that keeps Σ caps below 2**62."""
    rng = np.random.default_rng(1300)
    for k in range(8):
        q = random_qubo(rng, int(rng.integers(6, 15)), density=rng.uniform(0.2, 0.8))
        net = _network(q if k % 2 == 0 else with_fractions(rng, q))
        for factor in (10**7, 2**40, (2**62 - 1) // int(net.caps.sum())):
            yield replace(net, caps=net.caps * factor)


@pytest.mark.parametrize("case", range(24))
def test_multi_phase_flow_equals_the_oracle(case, monkeypatch):
    """One kernel call per scaling phase, top + 1 of them, with the
    oracle's flow value and a max-flow certificate."""
    net = list(_scaled_networks())[case]
    assert int(net.caps.sum()) < 2**62
    top = max(0, int(net.caps.max()).bit_length() - 31)
    calls = count_kernel_calls(monkeypatch)
    result = max_flow(net)
    assert len(calls) == top + 1
    assert result.flow_value == network_flow_value(net)
    _assert_max_flow_certificate(result)


def test_max_flow_certificate_on_pair_networks(monkeypatch):
    """Every layout of 1, 2 and 4 pairs that probes flow on, for int and
    Fraction QUBOs: each probe of u and the next k - 1 variables, cyclically."""
    flows = []

    def record(net):
        flows.append(max_flow(net))
        return flows[-1]

    monkeypatch.setattr(_fast, "max_flow", record)
    rng = np.random.default_rng(910)
    for q in (random_qubo(rng, 14), with_fractions(rng, random_qubo(rng, 14))):
        n = q.num_vars
        for k in (1, 2, 4):
            pair = BranchPair.of(IntArrays.from_qubo(q), k)
            for u in range(n):
                analyze_branch(pair, [(u + d) % n for d in range(k)])
    assert len(flows) == 2 * 3 * 14
    assert {r.network.num_vars for r in flows} == {2 * 14, 4 * 14, 8 * 14}
    for result in flows:
        _assert_max_flow_certificate(result)


# --- the direct layout against the sort-and-merge layout ----------------------


def _assert_reference_layout(arr: IntArrays) -> None:
    """``build_network(arr)`` equals the sort-and-merge network of the
    posiform of ``arr`` in all four arrays, their dtypes, num_vars and scale."""
    net, ref = build_network(arr), reference_network(to_posiform(arr))
    assert (net.num_vars, net.scale) == (ref.num_vars, ref.scale)
    for name in ("heads", "caps", "indptr", "partner"):
        got, want = getattr(net, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _layout_cases(chunk: int):
    """60 seeded QUBOs per chunk, every second one with Fraction
    coefficients: n from 0, no quadratic terms (density 0) and a zero
    linear part among them."""
    rng = np.random.default_rng(1200 + chunk)
    for k in range(60):
        n = int(rng.integers(0, 16))
        density = float(rng.choice([0.0, 1.0, rng.uniform(0.05, 0.9)]))
        q = random_qubo(rng, n, coeff_range=(-6, 6), density=density)
        if k % 3 == 0:
            q = Qubo.from_terms(n, {}, q.quadratic)
        yield with_fractions(rng, q) if k % 2 else q


@pytest.mark.parametrize("chunk", range(8))
def test_layout_equals_the_reference_on_random_qubos(chunk):
    for q in _layout_cases(chunk):
        _assert_reference_layout(IntArrays.from_qubo(q))


def test_layout_equals_the_reference_on_edge_cases():
    for q in (
        Qubo.from_terms(0),
        Qubo.from_terms(0, offset=3),
        Qubo.from_terms(1, {0: -2}),
        Qubo.from_terms(4, {}, {}),
        Qubo.from_terms(3, {}, {(0, 2): -1}),
        Qubo.from_terms(5, {1: 3}, {(0, 4): 2, (1, 2): -5, (3, 4): 1}),
    ):
        _assert_reference_layout(IntArrays.from_qubo(q))


def test_layout_rejects_unsorted_keys():
    arr = IntArrays.from_qubo(Qubo.from_terms(3, {}, {(0, 1): 1, (1, 2): 1}))
    swapped = replace(arr, qi=arr.qi[::-1], qj=arr.qj[::-1])
    with pytest.raises(ValueError, match="strictly increasing"):
        build_network(swapped)


def test_int32_index_bound_raises_at_the_bound():
    network.check_int32_index(2**31 - 1)
    with pytest.raises(SizeGuardError, match="do not fit int32"):
        network.check_int32_index(2**31)


def test_index_arrays_past_int32_raise(monkeypatch):
    """A network or a split residual CSR whose largest index passes the
    int32 bound raises instead of wrapping.  The bound is lowered to the
    sizes of small ones, which build at the bound and raise one below it."""
    arr = IntArrays.from_qubo(Qubo.from_terms(3, {0: 1}, {(0, 1): 2, (1, 2): -1}))
    arcs = build_network(arr).num_arcs
    tails, heads = np.array([0, 0, 2]), np.array([1, 2, 3])
    monkeypatch.setattr(network, "INT32_INDEX_MAX", arcs)
    assert build_network(arr).num_arcs == arcs
    monkeypatch.setattr(network, "INT32_INDEX_MAX", arcs - 1)
    with pytest.raises(SizeGuardError):
        build_network(arr)
    monkeypatch.setattr(network, "INT32_INDEX_MAX", 4)
    csr = decompose._csr(tails, heads, 4)
    assert csr.indices.dtype == csr.indptr.dtype == np.int32
    assert csr.indptr.tolist() == [0, 2, 2, 3, 3]
    monkeypatch.setattr(network, "INT32_INDEX_MAX", 3)
    with pytest.raises(SizeGuardError):
        decompose._csr(tails, heads, 4)


def test_split_residual_past_int32_raises(monkeypatch):
    """A split level run's residual CSR builds with the int32 bound at its
    arc count and raises one below it, inside ``decompose._residual``; the
    bound is lowered, so nothing large is allocated."""
    g = gen_gnp(12, 0.5, 0)
    pairs = np.nonzero(np.triu(~decompose._membership(g.adjacency_bits, g.n), 1))
    ((_, qi, qj, starts, _),) = decompose._level(decompose._membership([(1 << g.n) - 1], g.n), pairs)
    calls, made = [], []
    residual = decompose._residual

    def spy(*args):
        calls.append(args)
        made.append(residual(*args))
        return made[-1]

    monkeypatch.setattr(decompose, "_residual", spy)
    weak = decompose._weak_labels(qi, qj, starts)
    arcs = made[0].nnz
    assert arcs > 2 * starts[-1] + 2
    monkeypatch.setattr(network, "INT32_INDEX_MAX", arcs)
    assert decompose._weak_labels(qi, qj, starts) == weak
    monkeypatch.setattr(network, "INT32_INDEX_MAX", arcs - 1)
    with pytest.raises(SizeGuardError):
        decompose._weak_labels(qi, qj, starts)
    assert (len(calls), len(made)) == (3, 2)


def _spy_on_build_network(monkeypatch, module) -> list:
    """Check every network ``module`` builds against the reference."""
    seen = []

    def checked(arr):
        _assert_reference_layout(arr)
        seen.append(arr)
        return build_network(arr)

    monkeypatch.setattr(module, "build_network", checked)
    return seen


def test_layout_equals_the_reference_on_split_unions(monkeypatch):
    """The level unions (``decompose._level``) of the split-golden graphs,
    persistency mode, and of the split-dense benchmark graph at seed 1."""
    seen = []
    level = decompose._level

    def spy(member, pairs):
        runs = level(member, pairs)
        seen.extend(level_run_union(qi, qj, starts) for _, qi, qj, starts, _ in runs)
        return runs

    monkeypatch.setattr(decompose, "_level", spy)
    solver = decompose.default_leaf_solver(_workloads().SPLIT_THRESHOLD)
    decompose.max_clique_split(_bench_graph(1), solver)
    for case in _SPLIT_GOLDEN["random"]:
        if case["mode"] == "persistency":
            g = gen_gnp(case["n"], case["p"], case["seed"])
            decompose.max_clique_split(g, decompose.default_leaf_solver(case["threshold"]))
    assert len(seen) > 100
    assert max(arr.num_vars for arr in seen) > 200
    for arr in seen:
        _assert_reference_layout(arr)


@pytest.mark.parametrize("workload", ["probe-cfat", "probe-gcut", "probe-rational"])
def test_layout_equals_the_reference_on_probe_pairs(workload, monkeypatch):
    """Every ``BranchPair.of`` pair of the first seed-1 probe of each
    probe workload."""
    seen = _spy_on_build_network(monkeypatch, _fast)
    wl = _workloads()
    probe(wl.WORKLOADS[workload].build(wl.op_seed(1, 0)).qubo)
    assert seen
