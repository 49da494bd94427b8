"""Recursive vertex-splitting Maximum Clique solver with persistency shrinking.

At each node too large for the leaf solver we optionally shrink the graph by
the weak persistencies of its clique QUBO (vertices weakly fixed to 1 join
the clique under construction and restrict the rest to their common
neighbors; fixed-to-0 vertices are dropped), then split on a minimum-degree
vertex v into G1 (the neighbors of v) and G2 (everything but v) and recurse.

Every subproblem is a bitmask over the root graph's vertices: an induced
subgraph is a mask AND with the root's neighbour masks and a degree is a
popcount.  A node's children depend only on its mask, so with persistency
the tree of oversized nodes is first expanded breadth-first (:func:`_plan`):
the clique problems of a whole level, as scaled integer arrays built from
each node's adjacency matrix, go to
:func:`~quboprep.persistency.analyze_all` together, one max flow per level
(per :data:`_UNION_ENTRIES` quadratic entries on very wide levels).  The
depth-first recursion then replays that plan and calls the leaf solver, so
leaf calls, their order and the statistics are those of analyzing node by
node.  A ``Graph`` with local labels is built only for a leaf and for
probing.  The recursion runs on an explicit stack, so its depth is not
bounded by Python's recursion limit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import SolverValidationError
from .graphs import Graph
# ``analyze`` stays bound here: perfbench/spans.py wraps it by name.
from .persistency import analyze, analyze_all  # noqa: F401
from .posiform import IntArrays
from .probing import probe
from .problems import CliqueEncodingParams, clique_qubo

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 45

_ENCODING = CliqueEncodingParams.complement_penalty()
_SOLVE, _FORCED, _SPLIT = range(3)
# Quadratic entries per analyze_all union; bounds the union network's size
# on very wide levels of the split tree.
_UNION_ENTRIES = 1 << 15


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
        result = tuple(sorted(set(self.fn(g))))
        if any(not 0 <= v < g.n for v in result):
            raise SolverValidationError(f"solver returned out-of-range vertices {result}")
        if not g.is_clique(result):
            raise SolverValidationError(f"solver returned a non-clique {result}")
        return result


def default_leaf_solver(threshold: int = DEFAULT_THRESHOLD) -> LeafSolver:
    from .oracle import exact_max_clique

    return LeafSolver(exact_max_clique, threshold)


@dataclass
class SplitStats:
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


def _members(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    return [v for v, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def _induced(adj: tuple[int, ...], mask: int) -> tuple[list[int], np.ndarray]:
    """Sorted members of ``mask`` and the boolean adjacency matrix they
    induce, indexed by position among the members."""
    members = _members(mask)
    nbytes = (mask.bit_length() + 7) // 8
    rows = b"".join((adj[v] & mask).to_bytes(nbytes, "little") for v in members)
    bits = np.unpackbits(np.frombuffer(rows, dtype=np.uint8), bitorder="little")
    return members, bits.view(bool).reshape(len(members), -1)[:, members]


def _graph(sub: np.ndarray) -> Graph:
    iu, iv = np.nonzero(np.triu(sub, 1))
    return Graph(len(sub), tuple(zip(iu.tolist(), iv.tolist())))


def _clique_arrays(sub: np.ndarray) -> IntArrays:
    """``IntArrays.from_qubo(clique_qubo(_graph(sub), _ENCODING))`` without
    the graph, the complement and the Qubo: −A on every vertex and B on
    every non-adjacent pair, keys sorted."""
    m = len(sub)
    iu, iv = np.triu_indices(m, 1)
    absent = ~sub[iu, iv]
    lin = np.full(m, -_ENCODING.A, dtype=np.int64)
    qv = np.full(int(absent.sum()), _ENCODING.B, dtype=np.int64)
    return IntArrays(m, 1, lin, iu[absent], iv[absent], qv, 0)


def _step(
    adj: tuple[int, ...], mask: int, members: list[int], fixed: dict[int, int] | None
) -> tuple:
    """How the split tree goes on below the oversized node ``mask``, whose
    sorted ``members`` are given.

    With weak fixes ``fixed`` (by position among the members), the node is
    shrunk: (_FORCED, the members fixed to 1, [the rest restricted to their
    common neighbours]).  Without, it is split on a minimum-degree vertex v:
    (_SPLIT, v's bit, [G2, G1]), children in push order.
    """
    if fixed:
        ones = zeros = 0
        for k, val in fixed.items():
            if val == 1:
                ones |= 1 << members[k]
            else:
                zeros |= 1 << members[k]
        keep = mask & ~ones & ~zeros
        for v in _members(ones):
            if (adj[v] | 1 << v) & ones != ones:
                raise AssertionError("weakly-fixed-to-1 vertices are not pairwise adjacent")
            keep &= adj[v]
        return _FORCED, ones, [keep]
    v = min(members, key=lambda u: ((adj[u] & mask).bit_count(), u))
    return _SPLIT, 1 << v, [mask & ~(1 << v), adj[v] & mask]


def _unions(adj: tuple[int, ...], masks: list[int]) -> Iterator[list[tuple]]:
    """(mask, members, clique problem) of each of ``masks``, in runs of at
    most _UNION_ENTRIES quadratic entries (a problem larger than that forms
    a run alone)."""
    run: list[tuple] = []
    entries = 0
    for mask in masks:
        members, sub = _induced(adj, mask)
        arr = _clique_arrays(sub)
        if run and entries + len(arr.qv) > _UNION_ENTRIES:
            yield run
            run, entries = [], 0
        run.append((mask, members, arr))
        entries += len(arr.qv)
    if run:
        yield run


def _plan(adj: tuple[int, ...], root: int, threshold: int, use_probing: bool) -> dict[int, tuple]:
    """:func:`_step` of every oversized node of the persistency split tree
    under ``root``, by node mask.

    The tree is expanded breadth-first, so all nodes of a level are known
    before any of them is analyzed: each run of :func:`_unions` is one
    :func:`~quboprep.persistency.analyze_all` call.  With ``use_probing``
    each node is probed on its own.  A mask met again is not analyzed again.
    """
    plan: dict[int, tuple] = {}
    level = [root]
    while level:
        todo = [m for m in dict.fromkeys(level) if m.bit_count() > threshold and m not in plan]
        if use_probing:
            for mask in todo:
                members, sub = _induced(adj, mask)
                fixed = probe(clique_qubo(_graph(sub), _ENCODING)).reduction.fixed
                plan[mask] = _step(adj, mask, members, fixed)
        else:
            for run in _unions(adj, todo):
                results = analyze_all([arr for *_, arr in run])
                for (mask, members, _), result in zip(run, results):
                    plan[mask] = _step(adj, mask, members, result.weak)
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
    weak persistencies of its clique QUBO (probing too when ``use_probing``;
    off by default since probing every subgraph is far slower).
    """
    if solver is None:
        solver = default_leaf_solver()
    stats = SplitStats()
    adj = g.adjacency_bits
    root = (1 << g.n) - 1
    plan = _plan(adj, root, solver.threshold, use_probing) if use_persistency else {}
    # Explicit stack: (_SOLVE, mask, depth) solves the subgraph on ``mask``;
    # a _FORCED or _SPLIT entry combines the cliques found for the entries
    # pushed just above it.  Cliques are root-vertex masks.
    todo = [(_SOLVE, root, 0)]
    found: list[int] = []
    while todo:
        kind, mask, depth = todo.pop()
        if kind == _FORCED:
            found.append(found.pop() | mask)
            continue
        if kind == _SPLIT:
            c2, c1 = found.pop(), found.pop()
            found.append(c1 | mask if c1.bit_count() + 1 > c2.bit_count() else c2)
            continue
        stats.max_depth = max(stats.max_depth, depth)
        if not mask:
            found.append(0)
            continue
        if mask.bit_count() <= solver.threshold:
            stats.n_calls += 1
            members, sub = _induced(adj, mask)
            found.append(sum(1 << members[k] for k in solver.solve(_graph(sub))))
            continue
        if use_persistency:
            combine, bits, children = plan[mask]
        else:
            combine, bits, children = _step(adj, mask, _members(mask), None)
        if combine == _FORCED:
            stats.vertices_eliminated_by_persistency += mask.bit_count() - children[0].bit_count()
        todo.append((combine, bits, 0))
        todo += [(_SOLVE, child, depth + 1) for child in children]
    clique = tuple(_members(found.pop()))
    if not g.is_clique(clique):
        raise AssertionError("split recursion assembled a non-clique")
    return clique, stats


def splitting_savings(
    graphs: Iterable[Graph],
    solver: LeafSolver | None = None,
    threshold: int | None = None,
) -> list[SavingsRow]:
    """Run both split modes per graph and report the leaf-call ratio
    (n_qpbo - n_no_qpbo) / n_no_qpbo; negative means persistency saved calls."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    if solver is None:
        solver = default_leaf_solver(threshold or DEFAULT_THRESHOLD)
    elif threshold is not None:
        solver = LeafSolver(solver.fn, threshold)
    rows = []
    for gid, g in enumerate(graphs):
        with_clique, with_stats = max_clique_split(g, solver, use_persistency=True)
        without_clique, without_stats = max_clique_split(g, solver, use_persistency=False)
        if len(with_clique) != len(without_clique):
            raise AssertionError(
                f"graph {gid}: split modes disagree "
                f"({len(with_clique)} vs {len(without_clique)})"
            )
        if with_stats.n_calls > without_stats.n_calls:
            logger.info(
                "graph %d: persistency increased leaf calls (%d > %d)",
                gid,
                with_stats.n_calls,
                without_stats.n_calls,
            )
        rows.append(
            SavingsRow(gid, with_stats.n_calls, without_stats.n_calls, len(with_clique))
        )
    return rows
