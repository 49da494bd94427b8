"""Implication network of a QUBO's posiform, exact max flow, and the roof dual.

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
terminal ones included, leave the layout as it is.  A literal row of
variable k then holds one arc per term on k, to a literal of the term's
other variable j, by increasing j, so row lengths follow from the variable
degrees and the CSR is written directly from arrays with sorted keys,
without sorting arcs.  Both maps are recorded per arc (``partner``,
``rev``), by construction.  scipy's flow kernel adds no arcs
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
from .posiform import IntArrays, posiform_lin, to_posiform

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


def build_network(arr: IntArrays) -> ImplicationNetwork:
    """Network of the posiform rewrite of ``arr`` (keys strictly
    increasing), in the layout described above.

    The posiform gives one arc (s → ℓ̄) per literal ℓ, with the capacity of
    the linear term on ℓ (0 where there is none), and one arc (u → v̄) per
    term u·v.  Their slots, their skew partners', their reverses' and the
    reverses' partners' form four blocks, so an arc's partner is the same
    offset in block ``b ^ 1`` and its reverse in block ``b ^ 2``.
    """
    n, m = arr.num_vars, len(arr.qv)
    qi, qj = arr.qi, arr.qj
    keys = qi * n + qj
    if (keys[1:] <= keys[:-1]).any():
        raise ValueError("build_network needs strictly increasing keys qi * num_vars + qj")
    lin = posiform_lin(arr)
    below, above = np.bincount(qj, minlength=n), np.bincount(qi, minlength=n)
    indptr = np.zeros(2 * n + 3, dtype=np.int64)
    indptr[1:3] = 2 * n, 4 * n
    np.cumsum(np.repeat(2 + below + above, 2), out=indptr[3:])
    indptr[3:] += 4 * n
    # Term k's slot in the rows of its two variables, after their arcs to s
    # and t: at qj, among the terms of lower neighbours, which a stable sort
    # by qj keeps in qi order (a radix sort on the narrowest integer type);
    # at qi, after those, in key order.
    by_qj = np.argsort(qj.astype(np.min_scalar_type(n)), kind="stable")
    at_j = np.empty(m, dtype=np.int64)
    at_j[by_qj] = np.arange(2, m + 2) - (np.cumsum(below) - below)[qj[by_qj]]
    at_i = np.arange(2, m + 2) - (np.cumsum(above) - above)[qi] + below[qi]
    lits = np.arange(2, 2 * n + 2)
    xi, v = 2 * qi + 2, 2 * qj + 2 + (arr.qv < 0)
    blocks = np.empty((4, 2 * n + m), dtype=np.int64)
    lit, term = blocks[:, : 2 * n], blocks[:, 2 * n :]
    lit[0], term[0] = (lits ^ 1) - 2, indptr[xi] + at_i  # s → ℓ̄, u → v̄
    lit[1], term[1] = indptr[lits] + 1, indptr[v] + at_j  # ℓ → t, v → ū
    lit[2], term[2] = indptr[lits ^ 1], indptr[v ^ 1] + at_j  # ℓ̄ → s, v̄ → u
    lit[3], term[3] = lits + 2 * n - 2, indptr[xi + 1] + at_i  # t → ℓ, ū → v
    caps = np.zeros(blocks.size, dtype=np.int64)
    lin_caps = np.stack([np.maximum(lin, 0), np.maximum(-lin, 0)], axis=-1).ravel()
    caps[blocks[0]] = caps[blocks[1]] = np.concatenate([lin_caps, np.abs(arr.qv)])
    partner = np.empty(blocks.size, dtype=np.int64)
    rev = np.empty(blocks.size, dtype=np.int64)
    for b in range(4):
        partner[blocks[b]] = blocks[b ^ 1]
        rev[blocks[b]] = blocks[b ^ 2]
    tails = np.repeat(np.arange(2 * n + 2, dtype=np.int32), np.diff(indptr))
    return ImplicationNetwork(
        n, 2 * arr.scale, tails, tails[rev], caps, indptr.astype(np.int32), partner, rev
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
    arr = IntArrays.from_qubo(q)
    p = to_posiform(arr)
    net = build_network(arr)
    result = max_flow(net)
    return as_coeff(p.constant + Fraction(result.flow_value, net.scale))
