"""Implication network of a posiform, exact max flow, and the roof dual.

Nodes: 0 is the source (the constant-1 literal), 1 the sink (its
complement); literal with code c sits at node c + 2.  The complement of any
node n is n ^ 1.  Each posiform term a·u·v contributes arcs (u → v̄) and
(v → ū) of capacity a/2; a linear term a·u contributes (source → ū) and
(u → sink).  Capacities are exact integers: an arc's stored capacity is its
energy capacity times ``scale`` = 2 × the posiform's scale.

:func:`build_network` lays the arcs out as one canonical CSR (rows by tail,
heads ascending, no duplicates) that is closed under two maps: every arc's
skew partner (v̄ → ū) is stored with the same capacity, and every arc's
reverse (v → u) is stored, with capacity 0 when no term gives it one.  All
four terminal arcs of every variable (s → x, s → x̄, x → t, x̄ → t) are
stored too, with capacity 0 where the posiform has no linear term.  So arc
c of the source row runs to the literal with code c, every literal row
starts with its arcs to s and t, and new capacities on the same arcs,
terminal ones included, leave the layout as it is.  Both maps are
recorded per arc (``partner``, ``rev``).  scipy's flow kernel adds no arcs
to a reverse-closed CSR, so its flow matrix lines up with the arcs by
position (checked on every call); the net flow on an arc's reverse is its
negative, and the residual graph is a mask over the same index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .model import Coeff, Qubo, as_coeff
from .posiform import IntArrays, Posiform, to_posiform

SOURCE = 0
SINK = 1

_INT32_MAX = 2**31 - 1


@dataclass(frozen=True)
class ImplicationNetwork:
    """Merged arcs over 2N+2 nodes, stored as one canonical CSR.

    Arc k runs ``tails[k] → heads[k]``; arcs are sorted by (tail, head), so
    the arcs leaving node u are ``indptr[u]:indptr[u + 1]``.  ``partner[k]``
    is the index of arc k's skew partner (v̄ → ū), which has the same
    capacity; ``rev[k]`` is the index of its reverse (v → u).
    """

    num_vars: int
    scale: int
    tails: np.ndarray
    heads: np.ndarray
    caps: np.ndarray
    indptr: np.ndarray
    partner: np.ndarray
    rev: np.ndarray

    @property
    def num_nodes(self) -> int:
        return 2 * self.num_vars + 2

    @property
    def num_arcs(self) -> int:
        return len(self.caps)


def build_network(p: Posiform) -> ImplicationNetwork:
    """Implication network of ``p``, in the layout described above.

    Each term gives one arc: (s → ℓ̄) for the linear term on ℓ, on every
    literal (capacity 0 where there is none), and (u → v̄) for a term u·v.
    These arcs, their skew partners, their reverses and the reverses'
    partners are laid out as four blocks, so that an arc's partner is the
    same offset in the block ``block ^ 1`` and its reverse the same offset
    in the block ``block ^ 2``.  One sort puts them in CSR order and merges
    parallel arcs by capacity addition; both maps carry over to the merged
    arcs.
    """
    n = p.num_vars
    num_nodes = 2 * n + 2
    lin_caps = np.zeros(2 * n, dtype=np.int64)
    np.add.at(lin_caps, p.lin_codes, p.lin_vals)
    lits = np.arange(2, num_nodes)
    u = np.concatenate([np.zeros(2 * n, dtype=np.int64), p.qu + 2])
    v = np.concatenate([lits ^ 1, (p.qv + 2) ^ 1])
    u1, v1 = u ^ 1, v ^ 1
    keys = np.concatenate([u, v1, v, u1]) * num_nodes + np.concatenate([v, u1, u, v1])
    order = np.argsort(keys)
    keys = keys[order]
    caps = np.concatenate([lin_caps, p.quad_vals])
    caps = np.concatenate([caps, caps, np.zeros(2 * len(u), dtype=np.int64)])[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    slot = np.empty(len(keys), dtype=np.int64)  # merged index of each laid-out arc
    slot[order] = np.cumsum(new) - 1
    if not new.all():
        first = np.flatnonzero(new)
        keys, caps = keys[first], np.add.reduceat(caps, first)
    blocks = slot.reshape(4, len(u))
    partner = np.empty(len(keys), dtype=np.int64)
    partner[blocks] = blocks[[1, 0, 3, 2]]
    rev = np.empty(len(keys), dtype=np.int64)
    rev[blocks] = blocks[[2, 3, 0, 1]]
    indptr = np.searchsorted(keys, np.arange(num_nodes + 1) * num_nodes).astype(np.int32)
    tails = np.repeat(np.arange(num_nodes), np.diff(indptr))
    heads = keys - tails * num_nodes
    return ImplicationNetwork(
        n, 2 * p.scale, tails.astype(np.int32), heads.astype(np.int32), caps, indptr, partner, rev
    )


@dataclass(frozen=True)
class FlowResult:
    """An exact maximum flow together with its symmetrized residual.

    ``flow2`` holds, per arc, twice the symmetrized net flow (net convention:
    the flow on an arc's reverse is its negative), so residual capacities
    stay integral: residual2 = 2·cap − flow2 on every arc, reverses
    included.  ``flow_value`` is in scaled units (divide by
    ``network.scale`` for energy units).
    """

    network: ImplicationNetwork
    flow_value: int
    flow2: np.ndarray

    @cached_property
    def residual2(self) -> np.ndarray:
        return 2 * self.network.caps - self.flow2

    def residual_adjacency(self) -> csr_matrix:
        """CSR over nodes with an entry per positive-residual arc: the
        network's own CSR under a mask.  The data are float64 ones, the
        dtype csgraph works in, so traversals do not copy them."""
        net = self.network
        keep = self.residual2 > 0
        kept = np.zeros(net.num_arcs + 1, dtype=net.indptr.dtype)
        np.cumsum(keep, out=kept[1:])
        return csr_matrix(
            (np.ones(int(kept[-1])), net.heads[keep], kept[net.indptr]),
            shape=(net.num_nodes, net.num_nodes),
        )


def _dinic(num_nodes: int, tails, heads, caps, source: int, sink: int):
    """Plain Dinic on Python ints (exact for arbitrarily large capacities)."""
    head_of: list[int] = []
    rem: list[int] = []
    nxt: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v, c in zip(tails.tolist(), heads.tolist(), caps.tolist()):
        nxt[u].append(len(head_of))
        head_of.append(v)
        rem.append(int(c))
        nxt[v].append(len(head_of))
        head_of.append(u)
        rem.append(0)
    total = 0
    while True:
        level = [-1] * num_nodes
        level[source] = 0
        queue = [source]
        for u in queue:
            for aid in nxt[u]:
                if rem[aid] > 0 and level[head_of[aid]] < 0:
                    level[head_of[aid]] = level[u] + 1
                    queue.append(head_of[aid])
        if level[sink] < 0:
            break
        it = [0] * num_nodes
        # Iterative blocking-flow DFS.
        while True:
            path: list[int] = []
            u = source
            while u != sink:
                advanced = False
                while it[u] < len(nxt[u]):
                    aid = nxt[u][it[u]]
                    if rem[aid] > 0 and level[head_of[aid]] == level[u] + 1:
                        path.append(aid)
                        u = head_of[aid]
                        advanced = True
                        break
                    it[u] += 1
                if not advanced:
                    if not path:
                        u = None
                        break
                    level[u] = -1
                    aid = path.pop()
                    u = head_of[aid ^ 1]  # tail of arc aid
            if u is None:
                break
            bottleneck = min(rem[aid] for aid in path)
            for aid in path:
                rem[aid] -= bottleneck
                rem[aid ^ 1] += bottleneck
            total += bottleneck
    flows = np.array(
        [int(c) - rem[2 * k] for k, c in enumerate(caps.tolist())], dtype=object
    )
    return total, flows


def max_flow(net: ImplicationNetwork) -> FlowResult:
    """Exact maximum source→sink flow, symmetrized over skew partners (flow
    on (u→v) equals flow on (v̄→ū)).

    scipy's int32 kernel runs on the network's CSR when every capacity fits
    in int32 (an arc's flow never exceeds its capacity); otherwise Dinic on
    Python ints.  The flow value is the int64 sum of the source row's flows,
    so a total past int32 stays exact.
    """
    if net.num_arcs == 0:
        return FlowResult(net, 0, np.empty(0, dtype=np.int64))
    if int(net.caps.max()) <= _INT32_MAX:
        graph = csr_matrix(
            (net.caps.astype(np.int32), net.heads, net.indptr),
            shape=(net.num_nodes, net.num_nodes),
        )
        res = maximum_flow(graph, SOURCE, SINK)
        flow = res.flow
        same = np.array_equal(flow.indptr, net.indptr) and np.array_equal(flow.indices, net.heads)
        if not same:
            raise AssertionError("scipy's flow matrix does not have the network's arc layout")
        flows = flow.data.astype(np.int64)
        value = int(flows[: net.indptr[SOURCE + 1]].sum())
    else:
        value, raw = _dinic(net.num_nodes, net.tails, net.heads, net.caps, SOURCE, SINK)
        flows = raw - raw[net.rev]
    return FlowResult(net, value, flows + flows[net.partner])


def roof_dual(q: Qubo) -> Coeff:
    """Max-flow lower bound on min_x q(x); exact when q is submodular."""
    p = to_posiform(IntArrays.from_qubo(q))
    net = build_network(p)
    result = max_flow(net)
    return as_coeff(p.constant + Fraction(result.flow_value, net.scale))
