"""Implication network of a posiform, exact max flow, and the roof dual.

Nodes: 0 is the source (the constant-1 literal), 1 the sink (its
complement); literal with code c sits at node c + 2.  The complement of any
node n is n ^ 1.  Each posiform term a·u·v contributes arcs (u → v̄) and
(v → ū) of capacity a/2; a linear term a·u contributes (source → ū) and
(u → sink).  :func:`build_network` concatenates the posiform's scaled arrays
into these arcs, so capacities are exact integers: an arc's stored capacity
is its energy capacity times ``scale`` = 2 × the posiform's scale.  The
merged arcs form one canonical CSR, which the flow kernel reads directly and
whose index arrays the residual graph reuses.
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
    capacity.
    """

    num_vars: int
    scale: int
    tails: np.ndarray
    heads: np.ndarray
    caps: np.ndarray
    indptr: np.ndarray
    partner: np.ndarray

    @property
    def num_nodes(self) -> int:
        return 2 * self.num_vars + 2

    @property
    def num_arcs(self) -> int:
        return len(self.caps)

    @cached_property
    def _arc_keys(self) -> np.ndarray:
        # Sorted because arcs come out of a canonical CSR.
        return self.tails.astype(np.int64) * self.num_nodes + self.heads


def _merge_arcs(tails, heads, caps, num_nodes):
    """Canonical CSR of skew-closed arcs: (tails, heads, caps, indptr, partner).

    Parallel arcs merge by capacity addition.  Skew partnering is a
    bijection on the merged arcs and its own inverse, so the argsort of the
    partners' keys is the partner index of each arc.
    """
    keys = tails * num_nodes + heads
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    out_tails, out_heads = np.divmod(keys[first], num_nodes)
    out_caps = np.add.reduceat(caps[order], first) if len(first) else caps
    indptr = np.zeros(num_nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(out_tails, minlength=num_nodes), out=indptr[1:])
    partner = np.argsort((out_heads ^ 1) * num_nodes + (out_tails ^ 1))
    return out_tails.astype(np.int32), out_heads.astype(np.int32), out_caps, indptr, partner


def build_network(p: Posiform) -> ImplicationNetwork:
    """Implication network of ``p``; skew-symmetric by construction."""
    nu, nv, nl = p.qu + 2, p.qv + 2, p.lin_codes + 2
    tails = np.concatenate([nu, nv, np.full(len(nl), SOURCE, dtype=np.int64), nl])
    heads = np.concatenate([nv ^ 1, nu ^ 1, nl ^ 1, np.full(len(nl), SINK, dtype=np.int64)])
    caps = np.concatenate([p.quad_vals, p.quad_vals, p.lin_vals, p.lin_vals])
    num_nodes = 2 * p.num_vars + 2
    return ImplicationNetwork(p.num_vars, 2 * p.scale, *_merge_arcs(tails, heads, caps, num_nodes))


@dataclass(frozen=True)
class FlowResult:
    """An exact maximum flow together with its symmetrized residual.

    ``flow2`` holds, per arc, twice the symmetrized net flow (net convention:
    flow in the reverse direction is negative), so residual capacities stay
    integral: residual2 = 2·cap − flow2 on forward arcs, and flow2 on reverse
    arcs.  ``flow_value`` is in scaled units (divide by ``network.scale`` for
    energy units).
    """

    network: ImplicationNetwork
    flow_value: int
    flow2: np.ndarray

    @cached_property
    def residual2(self) -> np.ndarray:
        return 2 * self.network.caps - self.flow2

    def residual_adjacency(self) -> csr_matrix:
        """CSR over nodes with an entry per positive-residual arc.

        Forward arcs keep their row order; reverse arcs are placed after them
        in the row of their tail by a stable sort.  An antiparallel arc pair
        can give one entry twice, which graph traversals do not mind.  The
        data are float64 ones, the dtype csgraph works in, so traversals do
        not copy them.
        """
        net = self.network
        fwd = self.residual2 > 0
        rev = self.flow2 > 0
        rows = np.concatenate([net.tails[fwd], net.heads[rev]])
        cols = np.concatenate([net.heads[fwd], net.tails[rev]])
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(net.num_nodes + 1, dtype=net.indptr.dtype)
        np.cumsum(np.bincount(rows, minlength=net.num_nodes), out=indptr[1:])
        return csr_matrix(
            (np.ones(len(cols)), cols[order], indptr), shape=(net.num_nodes, net.num_nodes)
        )


def _net_flow_per_arc(net: ImplicationNetwork, flow_csr) -> np.ndarray:
    """Align scipy's flow matrix entries with the network's arc order."""
    n = net.num_nodes
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(flow_csr.indptr))
    keys = rows * n + flow_csr.indices
    want = net._arc_keys
    idx = np.searchsorted(keys, want)
    if len(keys) == 0 or (keys[np.clip(idx, 0, len(keys) - 1)] != want).any():
        raise AssertionError("flow matrix is missing arc entries")
    return flow_csr.data[idx].astype(np.int64)


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


def _cancel_antiparallel(net: ImplicationNetwork, flows: np.ndarray) -> np.ndarray:
    """Convert per-arc flows to the net convention (f(u,v) = -f(v,u))."""
    keys = net._arc_keys
    rev_keys = net.heads.astype(np.int64) * net.num_nodes + net.tails
    idx = np.searchsorted(keys, rev_keys)
    idx = np.clip(idx, 0, max(len(keys) - 1, 0))
    has_rev = keys[idx] == rev_keys
    out = flows.copy()
    for k in np.nonzero(has_rev)[0].tolist():
        r = int(idx[k])
        if r > k:
            net_f = out[k] - out[r]
            out[k] = net_f
            out[r] = -net_f
    return out


def max_flow(net: ImplicationNetwork) -> FlowResult:
    """Exact maximum source→sink flow, symmetrized over skew partners (flow
    on (u→v) equals flow on (v̄→ū)).

    scipy's int32 kernel runs on the network's CSR when every capacity and
    the total source capacity fit in int32; otherwise Dinic on Python ints.
    """
    if net.num_arcs == 0:
        return FlowResult(net, 0, np.empty(0, dtype=np.int64))
    source_total = int(net.caps[: net.indptr[SOURCE + 1]].sum())
    if int(net.caps.max()) <= _INT32_MAX and source_total <= _INT32_MAX:
        graph = csr_matrix(
            (net.caps.astype(np.int32), net.heads, net.indptr),
            shape=(net.num_nodes, net.num_nodes),
        )
        res = maximum_flow(graph, SOURCE, SINK)
        value = int(res.flow_value)
        flows = _net_flow_per_arc(net, res.flow)
    else:
        value, raw = _dinic(net.num_nodes, net.tails, net.heads, net.caps, SOURCE, SINK)
        flows = _cancel_antiparallel(net, raw)
    return FlowResult(net, value, flows + flows[net.partner])


def roof_dual(q: Qubo) -> Coeff:
    """Max-flow lower bound on min_x q(x); exact when q is submodular."""
    p = to_posiform(IntArrays.from_qubo(q))
    net = build_network(p)
    result = max_flow(net)
    return as_coeff(p.constant + Fraction(result.flow_value, net.scale))
