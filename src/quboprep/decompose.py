"""Recursive vertex-splitting Maximum Clique solver with persistency shrinking.

At each node too large for the leaf solver we optionally shrink the graph by
the weak persistencies of its clique QUBO (vertices weakly fixed to 1 join
the clique under construction and restrict the rest to their common
neighbors; fixed-to-0 vertices are dropped), then split on a minimum-degree
vertex v into G1 (the neighbors of v) and G2 (everything but v) and recurse.

Every subproblem is a bitmask over the root graph's vertices: an induced
subgraph is a mask AND with the root's neighbour masks.  A node's children
depend only on its mask, so in every mode (plain, roof duality, probing)
the tree of oversized nodes is first expanded breadth-first by
:func:`_plan`, which with roof duality analyzes each level in one maximum
matching per :data:`~quboprep.persistency.UNION_ENTRIES` quadratic entries,
the budget that probe batches share.  A node's clique QUBO has the
implication network s → x_u → x̄_v → t: unit arcs from the source and into
the sink, and arcs of capacity B = 2 on each non-adjacent pair, which is the
bipartite double cover of the node's complement.  As B exceeds the unit
that enters x_u, no middle arc saturates, so a maximum flow is a maximum
matching of that cover (Nemhauser & Trotter, 1975), and the labels, which
depend only on residual reachability, are those of every maximum flow
(Picard & Queyranne, 1980).  The depth-first recursion then replays
that plan and calls the leaf solver, so leaf calls, their order and the
statistics are those of expanding node by node.  The root's boolean
adjacency matrix is built once per call; a leaf's matrix is its rows and
columns at the leaf's members.
The default leaf solver searches a leaf on the root's neighbour masks
(:func:`~quboprep.oracle.max_clique_within`): a leaf's members are sorted,
so root indices order them as its own indices would, and the search finds
the clique it finds on the leaf's own graph.  That search is bounded by the
clique the leaf has to beat (Carraghan & Pardalos, 1990, across the split
tree): a subproblem's ``need`` is 0 at the root, one less in G1 (whose
clique gains v), one more than G1's clique in G2 (solved after G1; a tie
keeps G1), and less the forced vertices below a forced node.  A leaf that
holds no clique of ``need`` vertices is settled without its clique, and any
other leaf gets the clique of the unbounded search, so the answer is that
of searching every leaf in full.  The tree does not change: ``n_calls``
counts every leaf handed to the leaf solver, the settled ones too.  A
custom solver is not bounded and still gets every leaf, as a leaf
``Graph`` built from the packed rows of the leaf's matrix as neighbour
bitmasks, without edge tuples.  The recursion runs on an explicit stack,
so its depth is not bounded by Python's recursion limit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from . import oracle, persistency
from .errors import SolverValidationError
from .graphs import Graph, set_bits
# ``analyze`` stays bound here: perfbench/spans.py wraps it by name.
from .persistency import analyze  # noqa: F401
from .posiform import IntArrays
from .probing import probe
from .problems import CliqueEncodingParams, clique_qubo

DEFAULT_THRESHOLD = 45

_ENCODING = CliqueEncodingParams.complement_penalty()
_SOLVE, _FORCED, _SPLIT, _RIVAL = range(4)
# Node-vertex and node-pair cells per block of a level in _plan; bounds the
# membership and node-pair temporaries on wide levels.
_RUN_CELLS = 1 << 22


@dataclass(frozen=True)
class LeafSolver:
    """Subgraph solver invoked once a subgraph fits ``threshold`` vertices.

    ``fn`` must return a clique of its input graph (validated, hard error);
    the default threshold matches a ~45-vertex annealer budget.
    """

    fn: Callable[[Graph], Iterable[int]]
    threshold: int = DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")

    def solve(self, g: Graph) -> tuple[int, ...]:
        found = self.fn(g)
        try:
            result = tuple(sorted(map(operator.index, set(found))))
        except TypeError:
            raise SolverValidationError(f"solver returned a non-integer vertex in {found}") from None
        if any(not 0 <= v < g.n for v in result):
            raise SolverValidationError(f"solver returned out-of-range vertices {result}")
        if not g.is_clique(result):
            raise SolverValidationError(f"solver returned a non-clique {result}")
        return result


def default_leaf_solver(threshold: int = DEFAULT_THRESHOLD) -> LeafSolver:
    return LeafSolver(oracle.exact_max_clique, threshold)


@dataclass
class SplitStats:
    """Counters of one split: ``n_calls`` leaves handed to the leaf solver
    (with the default solver, also the leaves its search settles against
    the clique they have to beat), the deepest node's depth, and vertices
    dropped or forced by persistency."""

    n_calls: int = 0
    max_depth: int = 0
    vertices_eliminated_by_persistency: int = 0


@dataclass(frozen=True)
class SavingsRow:
    """Leaf-call comparison of the two split modes on one graph."""

    graph_id: int
    n_qpbo: int
    n_no_qpbo: int
    clique_size: int

    @property
    def ratio(self) -> float:
        if self.n_no_qpbo == 0:
            return 0.0
        return (self.n_qpbo - self.n_no_qpbo) / self.n_no_qpbo


def _induced(matrix: np.ndarray, mask: int) -> tuple[list[int], np.ndarray]:
    """Sorted members of ``mask`` and the submatrix of the root's ``matrix``
    at their rows and columns, indexed by position among the members."""
    members = set_bits(mask)
    return members, matrix.take(members, 0).take(members, 1)


def _leaf(sub: np.ndarray) -> Graph:
    """The graph with adjacency matrix ``sub``, from its packed rows."""
    rows = np.packbits(sub, axis=1, bitorder="little")
    return Graph._from_bits([int.from_bytes(row.tobytes(), "little") for row in rows])


def _step(adj: tuple, mask: int, members: list | None, fixed: dict | None, v: int) -> tuple:
    """How the split tree goes on below the oversized node ``mask``: with
    weak fixes ``fixed`` (by position among its sorted ``members``), shrunk
    to (_FORCED, the members fixed to 1, [the rest restricted to their
    common neighbours]); without, split on ``v`` into (_SPLIT, v's bit,
    [G2, G1]), children in push order."""
    if fixed:
        ones = sum(1 << members[k] for k, val in fixed.items() if val == 1)
        keep = mask & ~sum(1 << members[k] for k in fixed)
        for u in set_bits(ones):
            if (adj[u] | 1 << u) & ones != ones:
                raise AssertionError("weakly-fixed-to-1 vertices are not pairwise adjacent")
            keep &= adj[u]
        return _FORCED, ones, [keep]
    return _SPLIT, 1 << v, [mask & ~(1 << v), adj[v] & mask]


def _membership(masks: list[int], n: int) -> np.ndarray:
    """The boolean node × vertex matrix whose row r marks the members of
    ``masks[r]`` among ``n`` root vertices, unpacked from the masks' bytes."""
    width = (n + 7) // 8
    data = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(data.reshape(len(masks), width), axis=1, count=n, bitorder="little")
    return bits.view(bool)


def _level(
    member: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]
) -> list[tuple[list[list[int]], IntArrays, np.ndarray]]:
    """The clique problems of the split-tree nodes whose membership rows
    are ``member`` (:func:`_membership`), in runs of at most
    :data:`~quboprep.persistency.UNION_ENTRIES` quadratic entries (a node
    larger than that forms a run alone): for each run, each node's sorted
    members, the disjoint union of their problems and its block starts.

    ``pairs`` lists the root's non-adjacent pairs u < v in row-major order.
    Node b's member of rank k is variable ``starts[b] + k``, so a root pair
    inside the node becomes the ranks of its ends: −A on every variable and
    B on every such pair, the keys strictly increasing without a sort.  That
    is ``IntArrays.union`` of each node's ``IntArrays.from_qubo(clique_qubo(
    g.induced(members)[0], _ENCODING))``.
    """
    pu, pv = pairs
    inside = member[:, pu]
    inside &= member[:, pv]
    entries = inside.sum(1)
    cuts, total = [], 0
    for r, count in enumerate(entries.tolist()):
        if not cuts or total + count > persistency.UNION_ENTRIES:
            cuts.append(r)
            total = 0
        total += count
    cuts.append(len(member))
    starts = np.zeros(len(member) + 1, dtype=np.int64)
    np.cumsum(member.sum(1), out=starts[1:])
    index = np.cumsum(member, axis=1) + (starts[:-1, None] - 1)
    rows, p = np.nonzero(inside)
    qi, qj = index[rows, pu[p]], index[rows, pv[p]]
    ends = [0, *np.cumsum(entries).tolist()]
    cols = np.nonzero(member)[1].tolist()
    bounds = starts.tolist()
    runs = []
    for lo, hi in zip(cuts, cuts[1:]):
        base, a, b = bounds[lo], ends[lo], ends[hi]
        lin = np.full(bounds[hi] - base, -_ENCODING.A, dtype=np.int64)
        qv = np.full(b - a, _ENCODING.B, dtype=np.int64)
        union = IntArrays(bounds[hi] - base, 1, lin, qi[a:b] - base, qj[a:b] - base, qv, 0)
        members = [cols[x:y] for x, y in zip(bounds[lo:hi], bounds[lo + 1 : hi + 1])]
        runs.append((members, union, starts[lo : hi + 1] - base))
    return runs


def _csr(tails: np.ndarray, heads: np.ndarray, n: int) -> csr_matrix:
    """The CSR over ``n`` nodes with one entry per arc tails[k] → heads[k]
    (a stable counting sort by tail).  The arcs must be distinct: scipy's
    strong components do not finish on a CSR with a repeated entry."""
    order = np.argsort(tails.astype(np.min_scalar_type(n)), kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return csr_matrix((np.ones(len(tails)), heads[order], indptr), shape=(n, n))


def _weak_labels(union: IntArrays, starts: np.ndarray) -> list[dict[int, int]]:
    """The weak labels of :func:`~quboprep.persistency.analyze_union` for
    each block of ``union``, a run of :func:`_level`, from one maximum
    matching of its pairs in both orientations (see :func:`_plan`).

    The matching is checked to be one: each matched pair is a pair of the
    union, and no column is matched twice.  That it is maximum is checked
    by :func:`~quboprep.persistency.extract_labels`, which raises when the
    source reaches the sink (an augmenting path).  Its residual is written
    over the 2m + 2 literal nodes directly: s → x_u and x̄_u → t unless u is
    matched on both sides, x_u → s and t → x̄_u if u is matched on either
    side, x_u → x̄_v on every pair, and x̄_v → x_u and x̄_u → x_v where u is
    matched to v (once where v is also matched to u).
    """
    m, qi, qj = union.num_vars, union.qi, union.qj
    rows, cols = np.concatenate([qi, qj]), np.concatenate([qj, qi])
    mate = maximum_bipartite_matching(_csr(rows, cols, m), perm_type="column")
    u = np.flatnonzero(mate >= 0)
    v = mate[u].astype(np.int64)
    matched = np.minimum(u, v) * m + np.maximum(u, v)
    keys = np.append(qi * m + qj, -1)  # a search past the last key lands on -1
    taken = np.bincount(v, minlength=m)
    if (keys[np.searchsorted(keys[:-1], matched)] != matched).any() or taken.max(initial=0) > 1:
        raise AssertionError("maximum_bipartite_matching returned no matching of the pairs")
    sides = taken + (mate >= 0)
    free, used = np.flatnonzero(sides < 2), np.flatnonzero(sides > 0)
    once = (mate[v] != u) | (u < v)
    u, v = u[once], v[once]
    # s → x_u, x̄_u → t, x_u → s, t → x̄_u, x_u → x̄_v, x̄_v → x_u, x̄_u → x_v.
    tails = np.concatenate([
        np.zeros_like(free), 2 * free + 3, 2 * used + 2, np.ones_like(used),
        2 * rows + 2, 2 * v + 3, 2 * u + 3,
    ])
    heads = np.concatenate([
        2 * free + 2, np.ones_like(free), np.zeros_like(used), 2 * used + 3,
        2 * cols + 3, 2 * u + 2, 2 * v + 2,
    ])
    _, weak = persistency.extract_labels(_csr(tails, heads, 2 * m + 2))
    return persistency.split_labels(weak, starts.tolist())


def _certified(adj: tuple, mask: int) -> int | None:
    """The member of least degree inside the m-vertex node ``mask`` (the
    lowest on a tie) when 2·deg + 2 < m for every member, else None;
    stops at the first member that fails."""
    m = mask.bit_count()
    rest, best, least = mask, None, m
    while rest:
        u = (rest & -rest).bit_length() - 1
        deg = (adj[u] & mask).bit_count()
        if 2 * deg + 2 >= m:
            return None
        if deg < least:
            best, least = u, deg
        rest &= rest - 1
    return best


def _plan(
    g: Graph, matrix: np.ndarray, threshold: int, use_persistency: bool, use_probing: bool
) -> dict[int, tuple]:
    """:func:`_step` of every oversized node of the split tree of ``g``,
    whose adjacency matrix is ``matrix``, by node mask.

    Every mode expands the tree breadth-first, a level in blocks of at most
    _RUN_CELLS node-vertex and node-pair cells (or one node).  The plain
    split analyzes no node.  With persistency, :func:`_level` builds the
    block's clique problems from its :func:`_membership` matrix, and each
    run gets its weak labels from one :func:`_weak_labels` call; with
    ``use_probing`` each node is probed on its own.  An unfixed node splits
    on its member with the fewest neighbours inside it, the lowest vertex
    on a tie.  A mask met again is not expanded again.

    A run's clique QUBO (−A·x_u on every member, B·x_u·x_v on every
    non-adjacent pair, A = 1 < B = 2) gives the network of
    :func:`~quboprep.persistency.analyze_union` the arcs s → x_u and
    x̄_u → t of capacity A and x_u → x̄_v, x_v → x̄_u of capacity B per pair,
    and no other arc of positive capacity.  So every flow path is
    s → x_u → x̄_v → t, through the bipartite double cover of the pairs,
    and it carries at most A into x_u: no middle arc saturates, and a
    maximum flow is a maximum matching of the cover (Nemhauser & Trotter,
    1975; Hopcroft & Karp, 1973, find it).  Symmetrizing that flow over
    skew partners gives the residual that :func:`_weak_labels` writes.
    Residual reachability is the same for every maximum flow (Picard &
    Queyranne, 1980), and the labels depend on nothing else, so they equal
    those of ``analyze_union``'s max flow, dict order included.

    Roof duality skips a node of m members with at most Δ neighbours each
    inside it when m > 2Δ + 2 (:func:`_certified`).  The roof dual of its
    clique QUBO is the LP of the standard linearization, whose optimal
    vertices are half-integral (Nemhauser & Trotter, 1975).  One with S at
    1 and T at 0 beats or ties all-½ only if |T| + 4·e(S) + 2·e(S, rest) ≤
    |S|, e counting non-adjacent pairs, m − 1 − Δ or more at each vertex:
    if |T| < m − 1 − Δ, each vertex of S adds at least 2 on the left (and
    S = ∅ forces T = ∅); if |T| ≥ m − 1 − Δ > m/2, |T| exceeds |S|.  So
    all-½ is the unique optimum: no strong or weak label, bound −m/2.
    """
    plan: dict[int, tuple] = {}
    adj = g.adjacency_bits
    pairs = np.nonzero(np.triu(~matrix, 1)) if use_persistency and not use_probing else ((), ())
    step = _RUN_CELLS // max(g.n, len(pairs[0]), 1) or 1
    level = [(1 << g.n) - 1]
    while level:
        todo = [m for m in dict.fromkeys(level) if m.bit_count() > threshold and m not in plan]
        for top in range(0, len(todo), step):
            masks = todo[top : top + step]
            fixes: dict[int, tuple] = {}
            split: dict[int, int | None] = {}
            if use_probing:
                for mask in masks:
                    members, sub = _induced(matrix, mask)
                    fixes[mask] = members, probe(clique_qubo(_leaf(sub), _ENCODING)).reduction.fixed
            elif use_persistency:
                split = {mask: _certified(adj, mask) for mask in masks}
                analyzed = [mask for mask, v in split.items() if v is None]
                runs = _level(_membership(analyzed, g.n), pairs) if analyzed else []
                weak = [w for _, union, starts in runs for w in _weak_labels(union, starts)]
                members = [mem for run in runs for mem in run[0]]
                fixes = dict(zip(analyzed, zip(members, weak)))
            for mask in masks:
                members, fixed = fixes.get(mask, (None, None))
                v = split.get(mask)
                if v is None and not fixed:
                    v = min(members or set_bits(mask), key=lambda u: (adj[u] & mask).bit_count())
                plan[mask] = _step(adj, mask, members, fixed, v)
        level = [child for mask in todo for child in plan[mask][2]]
    return plan


def max_clique_split(
    g: Graph,
    solver: LeafSolver | None = None,
    use_persistency: bool = True,
    use_probing: bool = False,
) -> tuple[tuple[int, ...], SplitStats]:
    """Maximum clique of ``g`` by recursive vertex splitting.

    With ``use_persistency`` each oversized subgraph is first shrunk by the
    weak persistencies of its clique QUBO (by probing it when
    ``use_probing``; off by default since probing every subgraph is far
    slower).  ``use_probing`` without ``use_persistency`` is a ``ValueError``.
    """
    if use_probing and not use_persistency:
        raise ValueError("use_probing needs use_persistency")
    if solver is None:
        solver = default_leaf_solver()
    stats = SplitStats()
    adj = g.adjacency_bits
    # The exact oracle searches a leaf on the root's masks, with no leaf
    # Graph.  The name is read at call time, so a wrapper put in its place
    # in the module still matches.
    on_root = solver.fn is oracle.exact_max_clique
    if on_root:
        outside = [~(a | 1 << v) for v, a in enumerate(adj)]
    matrix = _membership(adj, g.n)
    plan = _plan(g, matrix, solver.threshold, use_persistency, use_probing)
    # Explicit stack: (_SOLVE, mask, depth, need) solves the subgraph on
    # ``mask``; a _FORCED or _SPLIT entry combines the cliques found for the
    # entries pushed just above it.  Cliques are root-vertex masks.  ``need``
    # is the smallest clique of the subgraph that can change the answer: a
    # subgraph with a clique that large yields the clique of searching every
    # leaf in full, any other one a smaller clique.  A _RIVAL entry is a G2,
    # popped right after its G1 sibling is solved: it has to beat that
    # clique plus the split vertex.
    todo = [(_SOLVE, (1 << g.n) - 1, 0, 0)]
    found: list[int] = []
    while todo:
        kind, mask, depth, need = todo.pop()
        if kind == _FORCED:
            found.append(found.pop() | mask)
            continue
        if kind == _SPLIT:
            c2, c1 = found.pop(), found.pop()
            found.append(c1 | mask if c1.bit_count() + 1 > c2.bit_count() else c2)
            continue
        if kind == _RIVAL:
            need = max(need, found[-1].bit_count() + 1)
        stats.max_depth = max(stats.max_depth, depth)
        if not mask:
            found.append(0)
            continue
        if mask.bit_count() <= solver.threshold:
            stats.n_calls += 1
            if on_root:
                clique = oracle.max_clique_within(adj, outside, mask, need)
                if clique & ~mask:
                    raise AssertionError("leaf clique leaves its subgraph")
                found.append(clique)
            else:
                members, sub = _induced(matrix, mask)
                found.append(sum(1 << members[k] for k in solver.solve(_leaf(sub))))
            continue
        combine, bits, children = plan[mask]
        todo.append((combine, bits, 0, 0))
        if combine == _FORCED:
            stats.vertices_eliminated_by_persistency += mask.bit_count() - children[0].bit_count()
            todo.append((_SOLVE, children[0], depth + 1, need - bits.bit_count()))
        else:
            g2, g1 = children
            todo += [(_RIVAL, g2, depth + 1, need), (_SOLVE, g1, depth + 1, need - 1)]
    clique = tuple(set_bits(found.pop()))
    if not g.is_clique(clique):
        raise AssertionError("split recursion assembled a non-clique")
    return clique, stats


def splitting_savings(
    graphs: Iterable[Graph],
    solver: LeafSolver | None = None,
) -> list[SavingsRow]:
    """Run both split modes per graph and report the leaf-call ratio
    (n_qpbo - n_no_qpbo) / n_no_qpbo; negative means persistency saved calls."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    solver = default_leaf_solver() if solver is None else solver
    rows = []
    for gid, g in enumerate(graphs):
        with_clique, with_stats = max_clique_split(g, solver, use_persistency=True)
        without_clique, without_stats = max_clique_split(g, solver, use_persistency=False)
        if len(with_clique) != len(without_clique):
            raise AssertionError(
                f"graph {gid}: split modes disagree "
                f"({len(with_clique)} vs {len(without_clique)})"
            )
        row = SavingsRow(gid, with_stats.n_calls, without_stats.n_calls, len(with_clique))
        rows.append(row)
    return rows
