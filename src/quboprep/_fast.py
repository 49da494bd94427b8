"""Probe branch analysis: both branches of a probe in one max flow.

Probing analyzes x_u := 0 and x_u := 1 for every variable u of one working
problem.  :class:`BranchPair` lays out, once per working problem, the
implication network of two disjoint copies of it that share only the source
and the sink.  A probe writes capacities into that layout: the terms that
touch u get capacity 0 in both copies, and copy b's terminal arcs get the
linear part of branch b's posiform.  One max flow then serves both branches:

* the flow restricted to each copy is a maximum flow of that branch, so a
  branch's bound is its posiform constant plus the flow on its copy's
  source arcs;
* a middle literal (neither it nor its complement reachable from the
  source) reaches neither the sink nor, except through source-reachable
  nodes, the other copy; so one :func:`~quboprep.persistency.extract_labels`
  call over both copies gives each branch exactly the labels, in the same
  order, that it gets alone (residual reachability among those literals is
  the same for every maximum flow: Picard & Queyranne, 1980).

:func:`~quboprep.persistency.split_blocks`, shared with
:func:`~quboprep.persistency.analyze_all`, splits labels and bounds by copy.

Branches keep the problem's index space (the probed variable just loses its
terms), so returned labels are in the problem's own indices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .network import ImplicationNetwork, build_network, max_flow
from .persistency import extract_labels, split_blocks
from .posiform import IntArrays, to_posiform


@dataclass(frozen=True)
class BranchPair:
    """The pair network of ``arr``: copy b's variable k is variable
    ``b * n + k`` of ``net``.  ``lin`` is the linear part of the posiform
    rewrite of ``arr`` (each negative coupling also moved onto its lower
    index), which a branch adjusts for the terms it drops."""

    arr: IntArrays
    net: ImplicationNetwork
    lin: np.ndarray

    @classmethod
    def of(cls, arr: IntArrays) -> "BranchPair":
        n = arr.num_vars
        both = IntArrays(
            2 * n,
            arr.scale,
            np.concatenate([arr.lin, arr.lin]),
            np.concatenate([arr.qi, arr.qi + n]),
            np.concatenate([arr.qj, arr.qj + n]),
            np.concatenate([arr.qv, arr.qv]),
            arr.offset,
        )
        lin = arr.lin.copy()
        neg = arr.qv < 0
        np.add.at(lin, arr.qi[neg], arr.qv[neg])
        return cls(arr, build_network(to_posiform(both)), lin)


def analyze_branch(
    pair: BranchPair, u: int
) -> list[tuple[dict[int, int], dict[int, int], Fraction]]:
    """(strong, weak, bound) of the subproblems x_u := 0 and x_u := 1.

    Labels use the problem's index space and exclude u; each bound includes
    the fold-out delta of fixing u, so it lower-bounds the problem
    restricted to that value of x_u.
    """
    arr, net = pair.arr, pair.net
    n, scale = arr.num_vars, arr.scale
    t = (arr.qi == u) | (arr.qj == u)
    qi, qv = arr.qi[t], arr.qv[t]
    other = qi + arr.qj[t] - u
    # Both branches drop the terms on u, and with them the share of the
    # posiform rewrite that a negative one moved onto its other end; x_u := 1
    # turns a·x_u·x_j into a·x_j.
    lin = np.stack([pair.lin, pair.lin])
    moved = (qv < 0) & (qi != u)
    lin[:, other[moved]] -= qv[moved]
    lin[1, other] += qv
    lin[:, u] = 0
    pos, neg = np.maximum(lin, 0), np.maximum(-lin, 0)
    caps = net.caps.copy()
    # A term on u has one arc in the row of each of u's literals, and its
    # other two arcs are their partners; zeroing all four drops the term.
    # The terminal arcs of those rows are rewritten below.
    for node in (2 * u + 2, 2 * (u + n) + 2):
        rows = slice(net.indptr[node], net.indptr[node + 2])
        caps[rows] = 0
        caps[net.partner[rows]] = 0
    caps[: 4 * n] = np.stack([neg, pos], axis=-1).ravel()
    caps[net.indptr[2:-1] + 1] = np.stack([pos, neg], axis=-1).ravel()
    flow = max_flow(replace(net, caps=caps))
    strong, weak = extract_labels(flow, 2 * n)
    constants = [
        arr.offset + Fraction(delta + int(lin[b][lin[b] < 0].sum()), scale)
        for b, delta in ((0, 0), (1, int(arr.lin[u])))
    ]
    out = split_blocks(flow, strong, weak, [0, n, 2 * n], constants)
    for s, w, _ in out:
        s.pop(u, None)
        w.pop(u, None)
    return out
