"""Vertex-splitting solver tests: correctness, stats, validation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quboprep import decompose, persistency
from quboprep.decompose import (
    LeafSolver,
    _induced,
    _leaf,
    _level,
    _membership,
    default_leaf_solver,
    max_clique_split,
    splitting_savings,
)
from quboprep.errors import SolverValidationError
from quboprep.graphs import Graph, gen_gnp
from quboprep.oracle import exact_max_clique, max_clique_within
from quboprep.persistency import analyze
from quboprep.posiform import IntArrays
from quboprep.problems import clique_qubo

from helpers import (
    level_run_union,
    reference_level_union,
    reference_split_vertex,
    reference_union_analysis,
)
from test_split_golden import _MODES, _PROBING_MAX_N, _bench_graph, _fits, _workloads


def test_leaf_only_graph():
    g = gen_gnp(8, 0.5, 0)
    clique, stats = max_clique_split(g, default_leaf_solver(10))
    assert stats.n_calls == 1
    assert len(clique) == len(exact_max_clique(g))


def test_k4_with_threshold_3():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    clique, stats = max_clique_split(k4, default_leaf_solver(3), use_persistency=False)
    assert clique == (0, 1, 2, 3)
    assert stats.n_calls >= 1
    assert stats.max_depth <= 4  # both branches strictly shrink the graph


def test_tie_between_branches_keeps_optimality():
    # Two disjoint triangles: dropping the split vertex leaves an equal-size
    # clique, so the combine rule must still return a 3-clique.
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    g = Graph.from_edges(6, edges)
    clique, _ = max_clique_split(g, default_leaf_solver(2), use_persistency=False)
    assert len(clique) == 3
    assert g.is_clique(clique)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("use_persistency", [False, True])
def test_matches_oracle_on_random_graphs(p, use_persistency):
    for seed in range(4):
        rng = np.random.default_rng(1000 * seed + int(p * 10))
        n = int(rng.integers(12, 36))
        g = gen_gnp(n, p, seed)
        clique, _ = max_clique_split(g, default_leaf_solver(8), use_persistency=use_persistency)
        assert g.is_clique(clique)
        assert len(clique) == len(exact_max_clique(g))


def test_probing_mode_stays_correct():
    g = gen_gnp(24, 0.6, 5)
    clique, _ = max_clique_split(g, default_leaf_solver(8), use_probing=True)
    assert len(clique) == len(exact_max_clique(g))


def test_probing_without_persistency_is_rejected():
    """``use_probing`` would otherwise be ignored, or start probing that
    nobody asked for."""
    with pytest.raises(ValueError, match="use_persistency"):
        max_clique_split(gen_gnp(24, 0.6, 5), default_leaf_solver(8), False, True)


@pytest.mark.parametrize("mode", list(_MODES))
def test_each_mode_runs_only_its_own_analysis(mode, monkeypatch):
    """The plain split analyzes no node, roof duality never probes and
    probing never builds level unions."""
    called = set()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("_weak_labels", "probe"):
        monkeypatch.setattr(decompose, name, spy(name, getattr(decompose, name)))
    g = gen_gnp(24, 0.6, 5)
    clique, _ = max_clique_split(g, default_leaf_solver(8), **_MODES[mode])
    assert len(clique) == len(exact_max_clique(g))
    assert called == {"plain": set(), "persistency": {"_weak_labels"}, "probing": {"probe"}}[mode]


def test_empty_and_edgeless_graphs():
    empty = Graph.from_edges(0, [])
    assert max_clique_split(empty)[0] == ()
    edgeless = Graph.from_edges(5, [])
    clique, _ = max_clique_split(edgeless, default_leaf_solver(2))
    assert len(clique) == 1


def test_bad_solver_is_a_hard_error():
    g = gen_gnp(12, 0.4, 1)

    def liar(_graph):
        return (0, 1, 2, 3, 4, 5)

    with pytest.raises(SolverValidationError):
        max_clique_split(g, LeafSolver(liar, threshold=20))


def _leaf_check_graph() -> Graph:
    """A triangle 0-1-2 plus vertex 3, adjacent to 2 only, and vertex 4,
    isolated."""
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3)])


@pytest.mark.parametrize(
    "found, expected",
    [
        ((2, 0, 1), (0, 1, 2)),
        ([1, 1, 0, 2], (0, 1, 2)),
        ((np.int64(3), 2), (2, 3)),
        ((4,), (4,)),
        ((), ()),
    ],
)
def test_leaf_cliques_pass_validation_sorted(found, expected):
    assert LeafSolver(lambda g: found, 10).solve(_leaf_check_graph()) == expected


@pytest.mark.parametrize(
    "found, message",
    [
        ((0, 1, 3), "non-clique"),
        ((0, 3), "non-clique"),
        ((2, 4), "non-clique"),
        ((0, 5), "out-of-range"),
        ((-1, 0), "out-of-range"),
        ((0, 1.0), "non-integer"),
    ],
)
def test_leaf_validation_rejects(found, message):
    with pytest.raises(SolverValidationError, match=message):
        LeafSolver(lambda g: found, 10).solve(_leaf_check_graph())


@pytest.mark.parametrize("vertex", [1.5, "0", None, np.float64(1.0)])
def test_non_integer_leaf_vertex_is_a_validation_error(vertex):
    """Not a raw TypeError from sorting or range checks: the CLI maps only
    SolverValidationError to its solver exit code."""
    solver = LeafSolver(lambda g: [vertex], 10)
    with pytest.raises(SolverValidationError, match="non-integer"):
        max_clique_split(gen_gnp(30, 0.5, 1), solver, use_persistency=False)


def test_numpy_integer_leaf_vertices_are_accepted():
    g = gen_gnp(30, 0.5, 1)
    numpy_solver = LeafSolver(lambda sub: np.array(exact_max_clique(sub), dtype=np.int64), 10)
    clique, stats = max_clique_split(g, numpy_solver, use_persistency=False)
    assert (clique, stats) == max_clique_split(g, default_leaf_solver(10), use_persistency=False)
    assert all(type(v) is int for v in clique)


def test_threshold_validation():
    with pytest.raises(ValueError):
        LeafSolver(exact_max_clique, threshold=0)


def test_savings_rows():
    graphs = [gen_gnp(30, 0.7, s) for s in range(2)]
    rows = splitting_savings(graphs, default_leaf_solver(8))
    assert [r.graph_id for r in rows] == [0, 1]
    for row in rows:
        assert row.n_no_qpbo >= 1
        assert row.ratio == (row.n_qpbo - row.n_no_qpbo) / row.n_no_qpbo


def test_savings_below_threshold_is_zero():
    rows = splitting_savings([gen_gnp(10, 0.5, 0)], default_leaf_solver(20))
    assert rows[0].n_qpbo == rows[0].n_no_qpbo == 1
    assert rows[0].ratio == 0.0


def test_savings_requires_graphs():
    with pytest.raises(ValueError):
        splitting_savings([])


def test_dense_graph_gets_persistency_savings():
    g = gen_gnp(40, 0.85, 3)
    rows = splitting_savings([g], default_leaf_solver(10))
    assert rows[0].n_qpbo <= rows[0].n_no_qpbo


def test_long_split_chains_do_not_hit_the_recursion_limit():
    # Every split on this sparse graph drops one vertex into G2, so the G2
    # chain is about a thousand levels deep.
    g = gen_gnp(1100, 0.005, 0)
    clique, stats = max_clique_split(g, default_leaf_solver(45), use_persistency=False)
    assert stats.max_depth > sys.getrecursionlimit()
    # The recursive solver's result under a raised recursion limit.
    assert clique == (326, 430, 789)
    assert (stats.n_calls, stats.max_depth) == (1053, 1055)


def _subgraph_cases():
    rng = np.random.default_rng(11)
    for k in range(12):
        n = int(rng.integers(2, 30))
        g = gen_gnp(n, float(rng.uniform(0.1, 0.9)), k)
        yield g, (1 << n) - 1
        yield g, int(rng.integers(1, 1 << n))
    complete = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    yield complete, (1 << 6) - 1
    yield complete, 0b101101
    yield Graph.from_edges(5, []), (1 << 5) - 1
    yield Graph.from_edges(70, [(3, 66), (5, 69)]), (1 << 3) | (1 << 5) | (1 << 66) | (1 << 69)


def _fields(arr: IntArrays, sort: bool) -> tuple:
    order = np.lexsort((arr.qj, arr.qi)) if sort else slice(None)
    return (
        arr.num_vars,
        arr.scale,
        arr.offset,
        arr.lin.tolist(),
        arr.qi[order].tolist(),
        arr.qj[order].tolist(),
        arr.qv[order].tolist(),
    )


def _matrix(g: Graph) -> np.ndarray:
    """Boolean adjacency matrix of ``g``, built independently of the solver."""
    matrix = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges:
        matrix[u, v] = matrix[v, u] = True
    return matrix


@pytest.mark.parametrize("g, mask", list(_subgraph_cases()))
def test_clique_arrays_match_the_qubo_route(g, mask):
    members, sub = _induced(_matrix(g), mask)
    ref_graph, labels = g.induced(members)
    assert tuple(members) == labels
    assert _leaf(sub) == ref_graph
    # As the split solver does: the node's problem built from its mask.
    [([built], qi, qj, starts)] = _level(_membership([mask], g.n), _pairs(g))
    assert (built, starts.tolist()) == (members, [0, len(members)])
    ref = IntArrays.from_qubo(clique_qubo(ref_graph))
    assert qi.dtype == qj.dtype == np.int64
    arr = level_run_union(qi, qj, starts)
    assert _fields(arr, sort=False) == _fields(ref, sort=True)
    assert analyze(arr) == analyze(ref)


def _pairs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The non-adjacent pairs u < v of ``g``, row-major, as the split
    solver lists them."""
    return np.nonzero(np.triu(~_matrix(g), 1))


@st.composite
def _level_cases(draw):
    """A gnp graph of 1–130 vertices and a block of masks over it, with
    empty and one-vertex nodes among them, and a union budget."""
    n = draw(st.integers(1, 130))
    g = gen_gnp(n, draw(st.floats(0, 1)), draw(st.integers(0, 2**16)))
    node = st.one_of(
        st.just(0),
        st.integers(0, n - 1).map(lambda v: 1 << v),
        st.integers(0, (1 << n) - 1),
    )
    masks = draw(st.lists(node, min_size=1, max_size=8))
    budget = draw(st.sampled_from([0, 1, 7, 60, 500, persistency.UNION_ENTRIES]))
    return g, masks, budget


@settings(max_examples=150, deadline=None)
@given(_level_cases())
def test_level_builder_matches_the_reference_union(case):
    """Each run of ``_level`` holds the pairs and block starts of the union
    of its nodes' clique problems built node by node, with the same dtypes
    and order; with −A and B they are that union.  Runs are cut greedily at
    the union budget."""
    g, masks, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(persistency, "UNION_ENTRIES", budget)
        runs = _level(_membership(masks, g.n), _pairs(g))
    bounds = np.cumsum([0] + [len(members) for members, _, _, _ in runs]).tolist()
    assert bounds[-1] == len(masks)
    for (members, qi, qj, starts), lo, hi in zip(runs, bounds, bounds[1:]):
        assert lo < hi
        ref, ref_members = reference_level_union(g, masks[lo:hi])
        assert members == ref_members
        assert starts.tolist() == np.cumsum([0] + [len(m) for m in members]).tolist()
        assert qi.dtype == qj.dtype == np.int64
        assert _fields(level_run_union(qi, qj, starts), sort=False) == _fields(ref, sort=False)
        # Within the budget unless one node exceeds it alone, and no run
        # could take the next run's first node from it.
        assert len(qi) <= budget or hi - lo == 1
        if hi < len(masks):
            first = reference_level_union(g, masks[hi : hi + 1])[0]
            assert len(qi) + len(first.qv) > budget


@st.composite
def _matching_cases(draw):
    """A G(n, p) graph of 2–45 vertices, p from 0 to 1 with edgeless and
    complete graphs among them, 1–6 nonempty masks over it (the whole graph
    among them) and a union budget: the default, 0 or 60."""
    n = draw(st.integers(2, 45))
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)))
    g = gen_gnp(n, p, draw(st.integers(0, 2**16)))
    node = st.one_of(st.just((1 << n) - 1), st.integers(1, (1 << n) - 1))
    masks = draw(st.lists(node, min_size=1, max_size=6))
    budget = draw(st.sampled_from([persistency.UNION_ENTRIES, 0, 60]))
    return g, masks, budget


@settings(max_examples=300, deadline=None)
@given(_matching_cases())
def test_matching_route_matches_the_reference_union(case):
    """The weak labels that one maximum matching gives each node of a level
    run are those of one max flow over the run's union, split back per
    node, dict order included."""
    g, masks, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(persistency, "UNION_ENTRIES", budget)
        runs = _level(_membership(masks, g.n), _pairs(g))
    for members, qi, qj, starts in runs:
        nodes = [IntArrays.from_qubo(clique_qubo(g.induced(m)[0])) for m in members]
        weak = [result.weak for result in reference_union_analysis(nodes)]
        assert repr(decompose._weak_labels(qi, qj, starts)) == repr(weak)


_REPEATED_PAIR = """
import numpy as np
from quboprep import decompose
qi, qj = np.array([0, 0, 0, 1]), np.array([2, 2, 4, 2])
try:
    decompose._weak_labels(qi, qj, np.array([0, 5]))
except AssertionError as exc:
    print(exc)
"""


def test_matching_route_rejects_a_repeated_pair():
    """A run with a repeated pair would store residual arcs twice, and
    scipy's strong components never finish on this one; the pairs are
    checked first.  A subprocess with a timeout turns a hang into a
    failure."""
    src = str(Path(decompose.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", _REPEATED_PAIR], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "not strictly increasing" in done.stdout


@pytest.mark.parametrize("fault", ["dropped", "non-pair", "column twice"])
def test_matching_route_rejects_a_wrong_matching(fault, monkeypatch):
    """A matching with one pair dropped is not maximum, so the source
    reaches the sink; a vertex matched to itself or a column matched twice
    is no matching of the pairs."""
    match = decompose.maximum_bipartite_matching

    def faulty(graph, perm_type):
        mate = match(graph, perm_type=perm_type)
        first, second = np.flatnonzero(mate >= 0)[:2]
        if fault == "dropped":
            mate[first] = -1
        elif fault == "non-pair":
            mate[first] = first
        else:
            mate[second] = mate[first]
        return mate

    monkeypatch.setattr(decompose, "maximum_bipartite_matching", faulty)
    message = "not maximal" if fault == "dropped" else "no matching"
    with pytest.raises(AssertionError, match=message):
        max_clique_split(gen_gnp(40, 0.5, 3), default_leaf_solver(10))


def test_roof_duality_levels_make_one_matching_and_no_flow(monkeypatch):
    """On the split-dense benchmark graph, each level run makes one
    matching and one label extraction, and no posiform, network or max
    flow is built."""
    calls = {}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in [
        (persistency, "to_posiform"), (persistency, "build_network"), (persistency, "max_flow"),
        (persistency, "extract_labels"), (decompose, "maximum_bipartite_matching"),
        (decompose, "_weak_labels"),
    ]:
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    max_clique_split(_bench_graph(1), default_leaf_solver(_workloads().SPLIT_THRESHOLD))
    runs = calls["_weak_labels"]
    assert runs > 20
    made = ["extract_labels", "maximum_bipartite_matching", "_weak_labels"]
    assert calls == dict.fromkeys(made, runs)


def test_leaves_wider_than_64_vertices_equal_the_induced_subgraph(monkeypatch):
    """Leaves of more than 64 vertices get several words per bitmask."""
    g = gen_gnp(80, 0.3, 5)
    induced = []

    def spy(matrix, mask):
        members, sub = _induced(matrix, mask)
        induced.append(members)
        return members, sub

    widths = []

    def leaf(sub: Graph):
        widths.append(sub.n)
        assert sub == g.induced(induced[-1])[0]
        return exact_max_clique(sub)

    monkeypatch.setattr(decompose, "_induced", spy)
    for use_persistency in (False, True):
        clique, _ = max_clique_split(g, LeafSolver(leaf, 65), use_persistency)
        assert len(clique) == len(exact_max_clique(g))
    assert max(widths) > 64


def test_default_leaf_solver_never_derives_leaf_edges(monkeypatch):
    """The default solver searches each leaf on the root's masks, so it
    builds no leaf graph (``_leaf`` is never called) and no graph derives
    its edge tuple; a custom leaf function gets a leaf graph, and one that
    reads its edges gets them."""
    derived = []
    lazy = Graph.__getattr__
    leaves = []
    build_leaf = decompose._leaf

    def spy(self, name):
        derived.append(name)
        return lazy(self, name)

    def leaf_spy(sub):
        leaves.append(len(sub))
        return build_leaf(sub)

    monkeypatch.setattr(Graph, "__getattr__", spy)
    monkeypatch.setattr(decompose, "_leaf", leaf_spy)
    g = _bench_graph(1)
    threshold = _workloads().SPLIT_THRESHOLD
    calls = 0
    for use_persistency in (True, False):
        _, stats = max_clique_split(g, default_leaf_solver(threshold), use_persistency)
        calls += stats.n_calls
    assert calls > 2000
    assert derived == []
    assert leaves == []

    small = gen_gnp(30, 0.5, 0)

    def reader(sub: Graph):
        assert sub.edges == Graph.from_edges(sub.n, sub.edges).edges
        return exact_max_clique(sub)

    clique, _ = max_clique_split(small, LeafSolver(reader, 10))
    assert len(clique) == len(exact_max_clique(small))
    assert "edges" in derived
    assert leaves


def test_default_solver_on_leaves_wider_than_64_vertices(monkeypatch):
    """Leaves of more than 64 vertices span several words of the root's
    masks; the default solver's cliques and counters equal those of the
    same oracle handed a leaf ``Graph``."""
    g = gen_gnp(80, 0.3, 5)
    widths = []
    within = decompose.oracle.max_clique_within

    def spy(adj, outside, cand, need=0):
        widths.append(cand.bit_count())
        return within(adj, outside, cand, need)

    monkeypatch.setattr(decompose.oracle, "max_clique_within", spy)
    # A wrapper is not the oracle itself, so it takes the leaf-Graph path.
    on_graphs = LeafSolver(lambda sub: exact_max_clique(sub), 65)
    for use_persistency in (False, True):
        widths.clear()
        on_root = max_clique_split(g, default_leaf_solver(65), use_persistency)
        assert max(widths) > 64
        assert on_root == max_clique_split(g, on_graphs, use_persistency)


def _reference_split(adj: tuple[int, ...], mask: int) -> tuple:
    """The plan entry of splitting the node ``mask`` on the reference
    split vertex: (_SPLIT, its bit, [G2, G1])."""
    v = reference_split_vertex(adj, mask)
    return decompose._SPLIT, 1 << v, [mask & ~(1 << v), adj[v] & mask]


def _reference_plain_plan(g: Graph, threshold: int, budget: int) -> dict[int, tuple] | None:
    """Every oversized node of the plain split tree of ``g`` by its
    reference split, or None past ``budget`` nodes."""
    adj = g.adjacency_bits
    plan, todo = {}, [(1 << g.n) - 1]
    while todo:
        mask = todo.pop()
        if mask.bit_count() > threshold and mask not in plan:
            if len(plan) == budget:
                return None
            plan[mask] = _reference_split(adj, mask)
            todo += plan[mask][2]
    return plan


def _circulant(n: int, offsets: set[int]) -> Graph:
    """The graph joining u and u ± d (mod n) for each d in ``offsets``:
    every vertex has the same degree."""
    edges = {tuple(sorted((u, (u + d) % n))) for u in range(n) for d in offsets}
    return Graph.from_edges(n, [(u, v) for u, v in edges if u != v])


@st.composite
def _plan_cases(draw):
    """A graph of 1–130 vertices, gnp or circulant (a regular graph, so
    every degree ties at the root), and a leaf threshold, raised until the
    plain split tree has at most 150 oversized nodes."""
    n = draw(st.integers(1, 130))
    if draw(st.booleans()):
        g = gen_gnp(n, draw(st.floats(0, 1)), draw(st.integers(0, 2**16)))
    else:
        g = _circulant(n, draw(st.sets(st.integers(1, max(1, n // 2)), max_size=6)))
    threshold = draw(st.integers(1, n))
    while _reference_plain_plan(g, threshold, 150) is None:
        threshold += 1 + threshold // 8
    return g, threshold


@settings(max_examples=80, deadline=None)
@given(_plan_cases())
def test_every_split_vertex_is_the_reference_one(case):
    """Each node ``_plan`` splits, in every mode, is split on its member of
    fewest neighbours inside the node, the lowest on a tie, into the
    children of that vertex; the plain plan is the reference tree."""
    g, threshold = case
    adj = g.adjacency_bits
    for mode, options in _MODES.items():
        if mode == "probing" and g.n > _PROBING_MAX_N:
            continue
        use_probing = options.get("use_probing", False)
        plan = decompose._plan(g, _matrix(g), threshold, options["use_persistency"], use_probing)
        if mode == "plain":
            assert plan == _reference_plain_plan(g, threshold, 150)
        for mask, entry in plan.items():
            if entry[0] == decompose._SPLIT:
                assert entry == _reference_split(adj, mask)


def _reference_needs(g: Graph, threshold: int, mode: str) -> list[tuple[int, int]]:
    """(leaf mask, bound) of every leaf of splitting ``g`` in ``mode``, in
    call order, read recursively off the split tree: 0 at the root, one less
    for G1, one more than G1's unbounded clique for G2 when that is larger,
    and less the forced vertices below a forced node."""
    adj = g.adjacency_bits
    outside = [~(a | 1 << v) for v, a in enumerate(adj)]
    options = _MODES[mode]
    if options["use_persistency"]:
        plan = decompose._plan(g, _matrix(g), threshold, True, options.get("use_probing", False))
    leaves = []

    def solve(mask: int, need: int) -> int:
        if not mask:
            return 0
        if mask.bit_count() <= threshold:
            leaves.append((mask, need))
            return max_clique_within(adj, outside, mask)
        if options["use_persistency"]:
            kind, bits, children = plan[mask]
        else:
            kind, bits, children = _reference_split(adj, mask)
        if kind == decompose._FORCED:
            return solve(children[0], need - bits.bit_count()) | bits
        g2, g1 = children
        c1 = solve(g1, need - 1)
        c2 = solve(g2, max(need, c1.bit_count() + 1))
        return c1 | bits if c1.bit_count() + 1 > c2.bit_count() else c2

    solve((1 << g.n) - 1, 0)
    return leaves


@st.composite
def _split_cases(draw):
    """A gnp graph of up to 40 vertices and a leaf threshold of 2–15, raised
    until the split without persistency makes at most 2,000 leaf calls."""
    g = gen_gnp(draw(st.integers(0, 40)), draw(st.floats(0.05, 0.95)), draw(st.integers(0, 2**16)))
    threshold = draw(st.integers(2, 15))
    while not _fits(g, threshold):
        threshold += 1
    return g, threshold


@settings(max_examples=60, deadline=None)
@given(_split_cases())
def test_bounded_leaves_match_the_unbounded_leaf_graph_path(case):
    """The default solver bounds each leaf search by the clique it has to
    beat; the clique and counters equal those of the unbounded leaf-Graph
    path, and each leaf gets the bound of a recursive reading of the tree."""
    g, threshold = case
    on_graphs = LeafSolver(lambda sub: exact_max_clique(sub), threshold)
    within = decompose.oracle.max_clique_within
    for mode in _MODES:
        if mode == "probing" and g.n > _PROBING_MAX_N:
            continue
        calls, depth = [], 0

        def spy(adj, outside, cand, need=0):
            nonlocal depth
            if not depth:
                calls.append((cand, need))
            depth += 1
            try:
                return within(adj, outside, cand, need)
            finally:
                depth -= 1

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose.oracle, "max_clique_within", spy)
            bounded = max_clique_split(g, default_leaf_solver(threshold), **_MODES[mode])
        assert bounded == max_clique_split(g, on_graphs, **_MODES[mode])
        assert calls == _reference_needs(g, threshold, mode)


@st.composite
def _node_cases(draw):
    """A nonempty node of a split tree: the whole of a G(m, p) graph with
    m ≤ 60 and p ≤ 0.4, or a random mask over a sparser graph of 61–200
    vertices."""
    if draw(st.booleans()):
        g = gen_gnp(draw(st.integers(1, 60)), draw(st.floats(0, 0.4)), draw(st.integers(0, 2**16)))
        return g, (1 << g.n) - 1
    n = draw(st.integers(61, 200))
    g = gen_gnp(n, draw(st.floats(0, 0.1)), draw(st.integers(0, 2**16)))
    return g, draw(st.integers(1, (1 << n) - 1))


@settings(max_examples=200, deadline=None)
@given(_node_cases())
def test_certified_nodes_have_no_labels_and_bound_minus_half_m(case):
    """A node of m members whose most connected member has Δ neighbours in
    it is certified exactly when m > 2Δ + 2, and then roof duality on its
    clique QUBO finds no strong or weak label and the bound −m/2."""
    g, mask = case
    adj = g.adjacency_bits
    members = [v for v in range(g.n) if mask >> v & 1]
    most = max((bin(adj[v] & mask).count("1") for v in members), default=0)
    split = decompose._certified(adj, mask)
    certified = split is not None
    assert certified == (len(members) > 2 * most + 2)
    if certified:
        assert split == reference_split_vertex(adj, mask)
        res = analyze(clique_qubo(g.induced(members)[0], decompose._ENCODING))
        assert (res.strong, res.weak) == ({}, {})
        assert 2 * res.bound == -len(members)


@pytest.mark.parametrize(
    "n, p, seed, dense",
    [(120, 0.03, 0, False), (100, 400 / 4950, 0, False), (100, 800 / 4950, 1, False),
     (100, 1600 / 4950, 2, False), (70, 0.646, 1, True), (300, 0.02, 0, False)],
)
def test_certified_nodes_plan_as_analyzed_ones(n, p, seed, dense, monkeypatch):
    """Skipping the analysis of certified nodes changes no plan entry, on
    sparse graphs, where nodes are certified, and on a split-dense graph,
    where none is."""
    g = gen_gnp(n, p, seed)
    plan = decompose._plan(g, _matrix(g), 15, True, False)
    certified = sum(decompose._certified(g.adjacency_bits, mask) is not None for mask in plan)
    assert (certified == 0) == dense
    monkeypatch.setattr(decompose, "_certified", lambda adj, mask: None)
    assert plan == decompose._plan(g, _matrix(g), 15, True, False)
