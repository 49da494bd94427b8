"""Probe branch analysis: the branches of several probes in one max flow.

Probing analyzes x_u := 0 and x_u := 1 for every variable u of one working
problem.  :class:`BranchPair` lays out, once per working problem, the
implication network of 2k disjoint copies of it (k pairs) that share only
the source and the sink.  :func:`analyze_branch` probes k variables at once
by writing capacities into that layout: in pair p, which probes ``us[p]``,
the terms that touch ``us[p]`` get capacity 0 in both copies, and copy
2p + b's terminal arcs get the linear part of branch x_{us[p]} := b's
posiform.  One max flow then serves all 2k branches:

* the flow restricted to each copy is a maximum flow of that branch, so a
  branch's bound is its posiform constant plus the flow on its copy's
  source arcs;
* a middle literal (neither it nor its complement reachable from the
  source) reaches neither the sink nor, except through source-reachable
  nodes, another copy; so one :func:`~quboprep.persistency.extract_labels`
  call over all copies gives each branch exactly the labels, in the same
  order, that it gets alone (residual reachability among those literals is
  the same for every maximum flow: Picard & Queyranne, 1980).

:func:`~quboprep.persistency.split_blocks` splits labels and bounds by copy;
the layouts are the only multi-block flows in the package (a whole problem
goes through :func:`~quboprep.persistency.analyze`, and a split level run
through one maximum matching).  A layout of one pair is the plain probe
of one variable; probing lays out more pairs only once its working problem
has stopped changing (see :class:`~quboprep.probing._ProbeState`).

Branches keep the problem's index space (the probed variable just loses its
terms), so returned labels are in the problem's own indices.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .network import ImplicationNetwork, build_network, max_flow, write_terminal_arcs
from .persistency import extract_labels, split_blocks
from .posiform import IntArrays, posiform_lin


@dataclass(frozen=True)
class BranchPair:
    """The network of ``pairs`` pairs of copies of ``arr``: copy c's
    variable k is variable ``c * n + k`` of ``net``.  ``lin`` is the linear
    part of the posiform rewrite of ``arr`` (each negative coupling also
    moved onto its lower index), which a branch adjusts for the terms it
    drops."""

    arr: IntArrays
    net: ImplicationNetwork
    lin: np.ndarray
    pairs: int

    @classmethod
    def of(cls, arr: IntArrays, pairs: int = 1) -> "BranchPair":
        union = IntArrays.union([arr] * (2 * pairs))
        return cls(arr, build_network(union), posiform_lin(arr), pairs)


def analyze_branch(
    pair: BranchPair, us: Sequence[int]
) -> list[tuple[dict[int, int], dict[int, int], Fraction]]:
    """(strong, weak, bound) of the subproblems x_u := 0 and x_u := 1 of
    each u in ``us`` (one per pair of the layout), in that order: entry
    2p + b is branch x_{us[p]} := b.

    Labels use the problem's index space and exclude the probed variable;
    each bound includes the fold-out delta of fixing it, so it lower-bounds
    the problem restricted to that value.
    """
    arr, net = pair.arr, pair.net
    n, scale = arr.num_vars, arr.scale
    lin = np.tile(pair.lin, (2 * len(us), 1))
    caps = net.caps.copy()
    for p, u in enumerate(us):
        t = (arr.qi == u) | (arr.qj == u)
        qi, qv = arr.qi[t], arr.qv[t]
        other = qi + arr.qj[t] - u
        # Both branches drop the terms on u, and with them the share of the
        # posiform rewrite that a negative one moved onto its other end;
        # x_u := 1 turns a·x_u·x_j into a·x_j.
        branches = lin[2 * p : 2 * p + 2]
        moved = (qv < 0) & (qi != u)
        branches[:, other[moved]] -= qv[moved]
        branches[1, other] += qv
        branches[:, u] = 0
        # A term on u has one arc in the row of each of u's literals, and
        # its other two arcs are their partners; zeroing all four drops the
        # term.  The terminal arcs of those rows are rewritten below.
        for c in (2 * p, 2 * p + 1):
            node = 2 * (u + c * n) + 2
            rows = slice(net.indptr[node], net.indptr[node + 2])
            caps[rows] = 0
            caps[net.partner[rows]] = 0
    write_terminal_arcs(caps, net.indptr, lin)
    flow = max_flow(replace(net, caps=caps))
    strong, weak = extract_labels(flow.residual_adjacency())
    deltas = [d for u in us for d in (0, int(arr.lin[u]))]
    constants = [
        arr.offset + Fraction(delta - negative, scale)
        for delta, negative in zip(deltas, np.maximum(-lin, 0).sum(axis=1).tolist())
    ]
    out = split_blocks(flow, strong, weak, range(0, lin.size + 1, n), constants)
    for c, (s, w, _) in enumerate(out):
        s.pop(us[c // 2], None)
        w.pop(us[c // 2], None)
    return out
