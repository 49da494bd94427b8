"""Probe branch analysis: the branches of several probes in one max flow.

Probing analyzes x_u := 0 and x_u := 1 for every variable u of one working
problem.  :class:`BranchPair` lays out, once per working problem, the
implication network of 2k disjoint copies of it (k pairs; k copies when
mirrored, below) that share only the source and the sink.
:func:`analyze_branch` probes k variables at once
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

A flip-symmetric working problem, E(x) = E(x̄) for every x (a zero-field
Ising model, such as max cut), is laid out *mirrored*: one copy per probe,
which carries x_u := 0, and x_u := 1 is read from the same residual.
For the posiform of :func:`~quboprep.network.build_network`, the value of
an s–t cut S is G_E(y, z) minus the posiform constant, where y_k = [x_k ∈
S] and z_k = [x̄_k ∉ S], and G_E is fixed by E's coefficients alone: the
polarization of each positive coupling, and the mean of the two
evaluations for each negative coupling and for the linear part.
Complementing every variable maps S to σS, which swaps each x_k with x̄_k,
and G_{E∘σ}(σS) = G_E(S).  For a flip-symmetric E the branch x_u := 1 is
(branch x_u := 0)∘σ, so σ maps the minimum cuts of one branch's network
onto those of the other's, and with them (Picard & Queyranne) the residual
reachability at any maximum flow.  So branch x_u := 1 has

* the strong labels of x_u := 0, complemented;
* the bound of x_u := 0 (roof duality is invariant under complementation:
  Boros & Hammer, 2002);
* as weak labels, the complement of the greedy that tries x before x̄ on
  x_u := 0's residual, since the greedy that tries x̄ first on one network
  is the greedy that tries x first on the other
  (``extract_labels(..., mirror=True)``).

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
from .persistency import extract_labels, split_blocks, split_labels
from .posiform import IntArrays, posiform_lin


def flip_symmetric(arr: IntArrays) -> bool:
    """Whether E(x) = E(x̄) for every x, that is 2·lin_i + Σ_j q_ij = 0 for
    every i.  The sums are exact int64 ones (Σ|a| < 2^62 bounds each), after
    the O(1) necessary test E(1…1) = E(0…0)."""
    if int(arr.lin.sum()) + int(arr.qv.sum()) != 0:
        return False
    total = 2 * arr.lin
    np.add.at(total, arr.qi, arr.qv)
    np.add.at(total, arr.qj, arr.qv)
    return not total.any()


@dataclass(frozen=True)
class BranchPair:
    """The network of the copies of ``arr`` that probe ``pairs`` variables:
    copy c's variable k is variable ``c * n + k`` of ``net``.  A
    ``mirrored`` layout (``arr`` flip-symmetric) has one copy per probe,
    else two.  ``lin`` is the linear part of the posiform rewrite of
    ``arr`` (each negative coupling also moved onto its lower index), which
    a branch adjusts for the terms it drops."""

    arr: IntArrays
    net: ImplicationNetwork
    lin: np.ndarray
    pairs: int
    mirrored: bool

    @classmethod
    def of(cls, arr: IntArrays, pairs: int = 1) -> "BranchPair":
        mirrored = flip_symmetric(arr)
        union = IntArrays.union([arr] * (pairs if mirrored else 2 * pairs))
        return cls(arr, build_network(union), posiform_lin(arr), pairs, mirrored)


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
    per = 1 if pair.mirrored else 2  # copies per probe, x_u := 0 first
    lin = np.tile(pair.lin, (per * len(us), 1))
    caps = net.caps.copy()
    for p, u in enumerate(us):
        t = (arr.qi == u) | (arr.qj == u)
        qi, qv = arr.qi[t], arr.qv[t]
        other = qi + arr.qj[t] - u
        # Both branches drop the terms on u, and with them the share of the
        # posiform rewrite that a negative one moved onto its other end;
        # x_u := 1 (absent when mirrored) turns a·x_u·x_j into a·x_j.
        branches = lin[per * p : per * p + per]
        moved = (qv < 0) & (qi != u)
        branches[:, other[moved]] -= qv[moved]
        branches[1:, other] += qv
        branches[:, u] = 0
        # A term on u has one arc in the row of each of u's literals, and
        # its other two arcs are their partners; zeroing all four drops the
        # term.  The terminal arcs of those rows are rewritten below.
        for c in range(per * p, per * p + per):
            node = 2 * (u + c * n) + 2
            rows = slice(net.indptr[node], net.indptr[node + 2])
            caps[rows] = 0
            caps[net.partner[rows]] = 0
    write_terminal_arcs(caps, net.indptr, lin)
    flow = max_flow(replace(net, caps=caps))
    strong, weak, *x_first = extract_labels(flow.residual_adjacency(), mirror=pair.mirrored)
    deltas = [d for u in us for d in (0, int(arr.lin[u]))[:per]]
    constants = [
        arr.offset + Fraction(delta - negative, scale)
        for delta, negative in zip(deltas, np.maximum(-lin, 0).sum(axis=1).tolist())
    ]
    starts = range(0, lin.size + 1, n)
    out = split_blocks(flow, strong, weak, starts, constants)
    if pair.mirrored:
        out = [
            branch
            for (s, w, bound), f in zip(out, split_labels(x_first[0], starts))
            for branch in ((s, w, bound), (_complement(s), _complement(f), bound))
        ]
    for c, (s, w, _) in enumerate(out):
        s.pop(us[c // 2], None)
        w.pop(us[c // 2], None)
    return out


def _complement(labels: dict[int, int]) -> dict[int, int]:
    return {k: 1 - v for k, v in labels.items()}
