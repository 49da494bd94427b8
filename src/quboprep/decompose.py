"""Recursive vertex-splitting Maximum Clique solver with persistency shrinking.

At each node too large for the leaf solver we optionally shrink the graph by
the weak persistencies of its clique QUBO (vertices weakly fixed to 1 join
the clique under construction and restrict the rest to their common
neighbors; fixed-to-0 vertices are dropped), then split on a minimum-degree
vertex v into G1 (the neighbors of v) and G2 (everything but v) and recurse.

Every subproblem is a bitmask over the root graph's vertices: an induced
subgraph is a mask AND with the root's neighbour masks and a degree is a
popcount.  The clique problem of a node goes to
:func:`~quboprep.persistency.analyze` as scaled integer arrays built from
its adjacency matrix, with no ``Graph`` or ``Qubo`` in between; a ``Graph``
with local labels is built only for a leaf and for probing.  The recursion
runs on an explicit stack, so its depth is not bounded by Python's
recursion limit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import SolverValidationError
from .graphs import Graph
from .persistency import analyze
from .posiform import IntArrays
from .probing import probe
from .problems import CliqueEncodingParams, clique_qubo

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 45

_ENCODING = CliqueEncodingParams.complement_penalty()
_SOLVE, _FORCED, _SPLIT = range(3)


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


def _shrink_by_persistency(
    adj: tuple[int, ...], mask: int, use_probing: bool, stats: SplitStats
) -> tuple[int, int] | None:
    """Weak-fix the clique problem of the subgraph ``mask``; returns (forced
    members, rest) as masks, or None when nothing was resolved."""
    members, sub = _induced(adj, mask)
    if use_probing:
        fixed = probe(clique_qubo(_graph(sub), _ENCODING)).reduction.fixed
    else:
        fixed = analyze(_clique_arrays(sub)).weak
    if not fixed:
        return None
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
    stats.vertices_eliminated_by_persistency += len(members) - keep.bit_count()
    return ones, keep


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
    # Explicit stack: (_SOLVE, mask, depth) solves the subgraph on ``mask``;
    # a _FORCED or _SPLIT entry combines the cliques found for the entries
    # pushed just above it.  Cliques are root-vertex masks.
    todo = [(_SOLVE, (1 << g.n) - 1, 0)]
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
            shrunk = _shrink_by_persistency(adj, mask, use_probing, stats)
            if shrunk is not None:
                forced, rest = shrunk
                todo += [(_FORCED, forced, 0), (_SOLVE, rest, depth + 1)]
                continue
        v = min(_members(mask), key=lambda u: ((adj[u] & mask).bit_count(), u))
        todo += [
            (_SPLIT, 1 << v, 0),
            (_SOLVE, mask & ~(1 << v), depth + 1),
            (_SOLVE, adj[v] & mask, depth + 1),
        ]
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
