"""Label extraction against the component-level reference and against the
closure loop it replaced, dict order included."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from quboprep import _fast
from quboprep._fast import BranchPair, analyze_branch
from quboprep.graphs import Graph
from quboprep.model import Qubo, ising_to_qubo
from quboprep.network import SINK, SOURCE, FlowResult, build_network, max_flow
from quboprep.persistency import extract_labels
from quboprep.posiform import IntArrays, Posiform
from quboprep.problems import maxcut_ising

from helpers import reference_extract_labels, reference_labels, reference_network


def _flow(q: Qubo) -> FlowResult:
    return max_flow(build_network(IntArrays.from_qubo(q)))


def _random_qubo(rng: np.random.Generator, fractional: bool) -> Qubo:
    """n in 1..14, random density, ±5 coefficients (over 1..4 when fractional)."""
    n = int(rng.integers(1, 15))
    density = rng.random()

    def coeff():
        a = int(rng.integers(-5, 6))
        return Fraction(a, int(rng.integers(1, 5))) if fractional else a

    lin = {i: coeff() for i in range(n)}
    quad = {
        (i, j): coeff() for i in range(n) for j in range(i + 1, n) if rng.random() < density
    }
    offset = Fraction(int(rng.integers(-3, 4)), 3) if fractional else 0
    return Qubo.from_terms(n, lin, quad, offset)


def _random_cases(chunk: int, count: int = 60):
    rng = np.random.default_rng(9000 + chunk)
    return [_random_qubo(rng, fractional=k % 2 == 1) for k in range(count)]


def _odd_cycle_cuts():
    """Max-cut of odd cycles, alone, with a vertex joined to two cycle
    vertices, or with a pendant path; their residuals have frustrated
    variables."""
    out = []
    for n in (3, 5, 7, 9, 11):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        for size, extra in ((n, []), (n + 1, [(0, n), (2, n)]), (n + 2, [(0, n), (n, n + 1)])):
            g = Graph.from_edges(size, cycle + extra)
            out.append(ising_to_qubo(maxcut_ising(g)))
    return out


def _same_labels(flow: FlowResult) -> tuple[dict, dict]:
    got = extract_labels(flow.residual_adjacency())
    assert repr(got) == repr(reference_labels(flow))
    assert repr(got) == repr(reference_extract_labels(flow.residual_adjacency()))
    return got


@st.composite
def _qubos(draw, fractional: bool | None = None) -> Qubo:
    """A QUBO on 1–10 variables with ±5 coefficients, over 1..4 when
    ``fractional`` (drawn when None), and an offset."""
    if fractional is None:
        fractional = draw(st.booleans())
    n = draw(st.integers(1, 10))
    coeff = st.integers(-5, 5)
    if fractional:
        coeff = st.builds(Fraction, coeff, st.integers(1, 4))
    lin = {i: draw(coeff) for i in range(n)}
    quad = {(i, j): draw(coeff) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    return Qubo.from_terms(n, lin, quad, draw(coeff))


@st.composite
def _label_flows(draw) -> list[FlowResult]:
    """The flows of one layout: a QUBO's network, the network of the
    ``IntArrays.union`` of 1–4 int QUBOs (one scale), or the flow of each
    ``analyze_branch`` call on a 1-, 2- or 4-pair ``BranchPair`` layout."""
    kind = draw(st.sampled_from(["single", "union", "pairs"]))
    if kind == "single":
        return [_flow(draw(_qubos()))]
    if kind == "union":
        parts = [IntArrays.from_qubo(draw(_qubos(False))) for _ in range(draw(st.integers(1, 4)))]
        return [max_flow(build_network(IntArrays.union(parts)))]
    q = draw(_qubos())
    pairs = draw(st.sampled_from([1, 2, 4]))
    layout = BranchPair.of(IntArrays.from_qubo(q), pairs)
    flows = []

    def spy(net):
        flows.append(max_flow(net))
        return flows[-1]

    probes = st.lists(st.integers(0, q.num_vars - 1), min_size=pairs, max_size=pairs)
    with mock.patch.object(_fast, "max_flow", spy):
        for _ in range(draw(st.integers(1, 3))):
            analyze_branch(layout, draw(probes))
    return flows


@settings(max_examples=300, deadline=None)
@given(_label_flows())
def test_labels_match_the_full_closure_test(flows):
    """Cutting the closure test to a frustrated literal or the start's
    complement, and searching closures over the unfrustrated middle
    literals alone, changes no strong or weak label and no dict order."""
    for flow in flows:
        _same_labels(flow)


@pytest.mark.parametrize("chunk", range(8))
def test_labels_match_reference_on_random_qubos(chunk):
    """480 seeded instances, every second one with Fraction coefficients."""
    for q in _random_cases(chunk):
        _same_labels(_flow(q))


def test_labels_match_reference_with_frustrated_variables():
    frustrated_seen = 0
    for q in _odd_cycle_cuts():
        _, weak = _same_labels(_flow(q))
        frustrated_seen += q.num_vars - len(weak)
    assert frustrated_seen > 0


@pytest.mark.parametrize("pairs", [1, 4])
def test_labels_match_reference_on_branch_layouts(pairs, monkeypatch):
    """The flows of probe branch layouts, whose probed variables are
    isolated in every copy; many middle x̄ there reach no middle literal,
    which extract_labels values in one search step."""
    flows = []

    def spy(net):
        flows.append(max_flow(net))
        return flows[-1]

    monkeypatch.setattr(_fast, "max_flow", spy)
    for q in _random_cases(200 + pairs, 30) + _odd_cycle_cuts():
        layout = BranchPair.of(IntArrays.from_qubo(q), pairs)
        n = q.num_vars
        for start in range(0, n, pairs):
            analyze_branch(layout, [(start + p) % n for p in range(pairs)])
    lone = 0
    for flow in flows:
        _same_labels(flow)
        adj = flow.residual_adjacency()
        strong, _ = extract_labels(adj)
        middle = np.ones(flow.network.num_nodes, dtype=bool)
        middle[:2] = False
        for var in strong:
            middle[2 * var + 2 : 2 * var + 4] = False
        for var in np.flatnonzero(middle[3::2]).tolist():
            x_bar = 2 * var + 3
            lone += not middle[adj.indices[adj.indptr[x_bar] : adj.indptr[x_bar + 1]]].any()
    assert lone > 0


def _hand_posiform(num_vars, lin, quad) -> Posiform:
    """Posiform from (code, value) and (code, code, value) triples, scale 1."""
    lin_codes, lin_vals = (np.array([t[k] for t in lin], dtype=np.int64) for k in range(2))
    qu, qv, quad_vals = (np.array([t[k] for t in quad], dtype=np.int64) for k in range(3))
    return Posiform(num_vars, 1, 0, lin_codes, lin_vals, qu, qv, quad_vals)


def test_rejected_negative_closure_falls_back_to_positive():
    """x̄0·ȳ + x̄0·y: x̄0 reaches y and ȳ, so x0 cannot be 0; x0 = 1 alone
    is consistent, and y then takes its preferred value 0."""
    p = _hand_posiform(2, [], [(1, 3, 1), (1, 2, 1)])
    flow = max_flow(reference_network(p))
    assert flow.flow_value == 0
    assert _same_labels(flow) == ({}, {0: 1, 1: 0})


def test_both_literals_reachable_raises():
    """x0 + x1 + x̄0·x̄1 with a zero flow: the source reaches x0 and x̄0."""
    p = _hand_posiform(2, [(0, 1), (2, 1)], [(1, 3, 1)])
    net = reference_network(p)
    flow = FlowResult(net, 0, np.zeros(net.num_arcs, dtype=np.int64))
    with pytest.raises(AssertionError, match="max flow is not maximal"):
        extract_labels(flow.residual_adjacency())
    with pytest.raises(AssertionError, match="max flow is not maximal"):
        reference_labels(flow)


def test_reachable_sink_raises():
    """A zero flow on the network of −x0 − x1 + 2·x0·x1, which has the
    augmenting path s → x0 → x̄1 → t; and a residual over one variable with
    only s → x0 → t, where the sink is the one sign that the flow is not
    maximum."""
    net = build_network(IntArrays.from_qubo(Qubo.from_terms(2, {0: -1, 1: -1}, {(0, 1): 2})))
    flow = FlowResult(net, 0, np.zeros(net.num_arcs, dtype=np.int64))
    with pytest.raises(AssertionError, match="source reaches the sink"):
        extract_labels(flow.residual_adjacency())
    path = csr_matrix((np.ones(2), np.array([2, 1]), np.array([0, 1, 1, 2, 2])), shape=(4, 4))
    with pytest.raises(AssertionError, match="source reaches the sink"):
        extract_labels(path)


def _reach_is_consistent(adj, start: int, middle: np.ndarray) -> bool:
    reach = breadth_first_order(adj, start, directed=True, return_predecessors=False)
    reach = reach[middle[reach]]
    return not np.isin(reach ^ 1, reach).any()


def test_no_unfrustrated_variable_has_two_failing_closures():
    """On a skew-symmetric residual, x reaching y and ȳ means x reaches x̄;
    so if both closures of x fail, x and x̄ share a component (frustrated).
    This is why no test instance has a variable whose closures both fail."""
    checked = 0
    for q in _random_cases(100) + _odd_cycle_cuts():
        flow = _flow(q)
        if flow.network.num_arcs == 0:
            continue
        adj = flow.residual_adjacency()
        strong, _ = extract_labels(adj)
        _, comp = connected_components(adj, directed=True, connection="strong")
        middle = np.ones(flow.network.num_nodes, dtype=bool)
        middle[:2] = False
        for var in strong:
            middle[2 * var + 2 : 2 * var + 4] = False
        for var in range(q.num_vars):
            x, x_bar = 2 * var + 2, 2 * var + 3
            if not middle[x] or comp[x] == comp[x_bar]:
                continue
            checked += 1
            assert _reach_is_consistent(adj, x, middle) or _reach_is_consistent(adj, x_bar, middle)
    assert checked > 0


def _residual(num_vars: int, arcs, unpaired=()) -> csr_matrix:
    """A residual CSR over the 2·num_vars + 2 nodes with the arcs (y, z),
    each with its skew partner z̄ → ȳ, and the ``unpaired`` arcs without."""
    arcs = sorted({*arcs, *((z ^ 1, y ^ 1) for y, z in arcs), *unpaired})
    tails = np.array([y for y, _ in arcs], dtype=np.int32)
    heads = np.array([z for _, z in arcs], dtype=np.int32)
    n = 2 * num_vars + 2
    indptr = np.searchsorted(tails, np.arange(n + 1)).astype(np.int32)
    return csr_matrix((np.ones(len(heads)), heads, indptr), shape=(n, n))


# Nodes: s = 0, t = 1, x_k = 2k + 2 and x̄_k = 2k + 3.  Variable 0 has no arc
# in any case, so the x̄ rows read do not start at the first row.
@pytest.mark.parametrize(
    "residual, labels",
    [
        # x̄1's only arc runs to the sink.  Its skew partner s → x1 would make
        # x1 strong, so it is left out; x̄2 → x3 pairs with x̄3 → x2.
        (_residual(4, [(7, 8)], unpaired=[(5, 1)]),
         ({}, {0: 0, 1: 0, 2: 0, 3: 1})),
        # s → x1 (with x̄1 → t); x̄2's only arc runs to x1, which the source
        # reaches, and x̄3 follows with no arc at all.
        (_residual(4, [(0, 4), (7, 4)]), ({1: 1}, {1: 1, 0: 0, 2: 0, 3: 0})),
        # x̄1 → x2 (with x̄2 → x1): one arc each into a middle literal.
        (_residual(3, [(5, 6)]), ({}, {0: 0, 1: 0, 2: 1})),
        # x3 ⇄ x̄3 (frustrated) and x̄1 → x3: x̄1's closure fails, x1's holds.
        (_residual(4, [(8, 9), (9, 8), (5, 8)]), ({}, {0: 0, 1: 1, 2: 0})),
    ],
    ids=["into-sink", "into-reached", "into-middle", "into-frustrated"],
)
def test_closures_on_hand_made_residuals(residual, labels):
    """Residuals whose x̄ rows run only to the sink, only to a literal the
    source reaches, once into a middle literal, or into a frustrated one:
    the lone variables (valued 0 in one search step) and every label are
    those of the full closure test, dict order included."""
    got = extract_labels(residual)
    assert repr(got) == repr(labels)
    assert repr(got) == repr(reference_extract_labels(residual))
    _same_mirrored_labels(residual)


def _swap_literals(adj: csr_matrix) -> csr_matrix:
    """``adj`` with every literal pair x_k ↔ x̄_k relabelled (the source and
    the sink stay): the residual of the problem with every variable
    complemented."""
    perm = np.arange(adj.shape[0]) ^ 1
    perm[:2] = [SOURCE, SINK]
    coo = adj.tocoo()
    return csr_matrix((coo.data, (perm[coo.row], perm[coo.col])), shape=adj.shape)


def _complemented(labels: dict[int, int]) -> dict[int, int]:
    return {k: 1 - v for k, v in labels.items()}


def _same_mirrored_labels(adj: csr_matrix) -> None:
    """extract_labels' mirror orientation (x before x̄), complemented, is the
    reference's weak labels of ``adj`` with every literal pair swapped,
    dict order included; its first two dicts are the plain call's."""
    strong, weak, flipped = extract_labels(adj, mirror=True)
    assert repr((strong, weak)) == repr(extract_labels(adj))
    ref_strong, ref_weak = reference_extract_labels(_swap_literals(adj))
    assert repr(_complemented(strong)) == repr(ref_strong)
    assert repr(_complemented(flipped)) == repr(ref_weak)


@settings(max_examples=200, deadline=None)
@given(_label_flows())
def test_mirror_orientation_is_the_swapped_reference(flows):
    """On any residual, the greedy that tries x first is the greedy that
    tries x̄ first on the residual with x_k and x̄_k swapped."""
    for flow in flows:
        _same_mirrored_labels(flow.residual_adjacency())


def test_mirror_orientation_with_frustrated_variables():
    for q in _odd_cycle_cuts():
        _same_mirrored_labels(_flow(q).residual_adjacency())
