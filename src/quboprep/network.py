"""Implication network of a QUBO's posiform and its exact max flow.

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
without sorting arcs.  Each arc's skew partner is recorded (``partner``),
by construction; no reader needs the reverse's index, so it is not stored.

:func:`max_flow` runs capacity scaling on scipy's int32 kernel, which adds
no arcs to a reverse-closed CSR, so its flow matrix lines up with the arcs
by position (checked on every call); the net flow on an arc's reverse is
its negative, and the residual graph is a mask over the same index arrays.
The roof-dual bound and the persistencies are read from that flow in
:mod:`~quboprep.persistency`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .errors import SizeGuardError
from .posiform import IntArrays, posiform_lin

SOURCE = 0
SINK = 1
# The largest entry an int32 index array holds.  Read at call time.
INT32_INDEX_MAX = 2**31 - 1


def check_int32_index(top: int) -> None:
    """Raise SizeGuardError unless index arrays whose entries are at most
    ``top`` fit int32, so that no cast to int32 wraps an index around."""
    if top > INT32_INDEX_MAX:
        raise SizeGuardError(f"indices up to {top} do not fit int32 (at most {INT32_INDEX_MAX})")


@dataclass(frozen=True)
class ImplicationNetwork:
    """Merged arcs over 2N+2 nodes, stored as one canonical CSR.

    Arcs are sorted by (tail, head), so the arcs leaving node u are
    ``indptr[u]:indptr[u + 1]`` and arc k runs from its row to ``heads[k]``.
    ``partner[k]`` is the index of arc k's skew partner (v̄ → ū), which has
    the same capacity.  ``partner`` is int64 because ``max_flow`` gathers
    the flows through it, and an int32 index makes that gather slower.
    """

    num_vars: int
    scale: int
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


def build_network(arr: IntArrays) -> ImplicationNetwork:
    """Network of the posiform rewrite of ``arr`` (keys strictly
    increasing), in the layout described above.

    The posiform gives one arc (s → ℓ̄) per literal ℓ, with the capacity of
    the linear term on ℓ (0 where there is none), and one arc (u → v̄) per
    term u·v.  Their slots, their skew partners', their reverses' and the
    reverses' partners' form four blocks, so an arc's partner is the same
    offset in block ``b ^ 1``, and an arc's head is the tail of the same
    offset in block ``b ^ 2``.  Heads and row pointers are int32; a network
    whose node or arc count passes int32 raises SizeGuardError.
    """
    n, m = arr.num_vars, len(arr.qv)
    qi, qj = arr.qi, arr.qj
    keys = qi * n + qj
    if (keys[1:] <= keys[:-1]).any():
        raise ValueError("build_network needs strictly increasing keys qi * num_vars + qj")
    check_int32_index(max(2 * n + 2, 4 * (2 * n + m)))
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
    caps[term[0]] = caps[term[1]] = np.abs(arr.qv)
    write_terminal_arcs(caps, indptr, lin)
    heads = np.empty(blocks.size, dtype=np.int32)
    partner = np.empty(blocks.size, dtype=np.int64)
    ends = ((lits ^ 1, v ^ 1), (SINK, xi + 1), (SOURCE, xi), (lits, v))
    for b, (lit_head, term_head) in enumerate(ends):
        heads[lit[b]], heads[term[b]] = lit_head, term_head
        partner[blocks[b]] = blocks[b ^ 1]
    return ImplicationNetwork(n, 2 * arr.scale, heads, caps, indptr.astype(np.int32), partner)


def write_terminal_arcs(caps: np.ndarray, indptr: np.ndarray, lin: np.ndarray) -> None:
    """Write into ``caps`` the terminal arcs of the posiform linear part
    ``lin`` (one coefficient per variable, any shape of that size) on a
    network with row pointers ``indptr``: a·x (a > 0) gives s → x̄ and
    x → t capacity a, and −a·x gives s → x and x̄ → t capacity a.  Arc c of
    the source row runs to literal c, and the arc to t is second in every
    literal row."""
    pos, neg = np.maximum(lin, 0).ravel(), np.maximum(-lin, 0).ravel()
    caps[: 2 * lin.size] = np.stack([neg, pos], axis=-1).ravel()
    caps[indptr[2:-1] + 1] = np.stack([pos, neg], axis=-1).ravel()


@dataclass(frozen=True)
class FlowResult:
    """An exact maximum flow together with its symmetrized residual.

    ``flow2`` holds, per arc, twice the symmetrized net flow (net convention:
    the flow on an arc's reverse is its negative), so residual capacities
    stay integral: twice an arc's residual is 2·cap − flow2, on every arc,
    reverses included.  ``flow_value`` is in scaled units (divide by
    ``network.scale`` for energy units).
    """

    network: ImplicationNetwork
    flow_value: int
    flow2: np.ndarray

    def residual_adjacency(self) -> csr_matrix:
        """CSR over nodes with an entry per positive-residual arc: the
        network's own CSR under a mask.  The data are float64 ones and the
        indices int32 (bounded by the network's, which fit int32), the
        dtypes csgraph works in, so neither scipy's constructor nor a
        traversal scans or copies them."""
        net = self.network
        kept = np.flatnonzero(2 * net.caps - self.flow2 > 0)
        indptr = np.searchsorted(kept, net.indptr).astype(np.int32)
        return csr_matrix(
            (np.ones(len(kept)), net.heads[kept], indptr), shape=(net.num_nodes, net.num_nodes)
        )


def _kernel_flow(net: ImplicationNetwork, caps: np.ndarray) -> np.ndarray:
    """scipy's flow on the network's CSR with capacities ``caps`` (each
    fits int32): the net flow per arc, as int64."""
    graph = csr_matrix(
        (caps.astype(np.int32), net.heads, net.indptr), shape=(net.num_nodes, net.num_nodes)
    )
    flow = maximum_flow(graph, SOURCE, SINK).flow
    if not (np.array_equal(flow.indptr, net.indptr) and np.array_equal(flow.indices, net.heads)):
        raise AssertionError("scipy's flow matrix does not have the network's arc layout")
    return flow.data.astype(np.int64)


def max_flow(net: ImplicationNetwork) -> FlowResult:
    """Exact maximum source→sink flow, symmetrized over skew partners (flow
    on (u→v) equals flow on (v̄→ū)), by capacity scaling (Edmonds & Karp).

    Phase ``top`` (the bits of the largest capacity past 31) flows ``caps >>
    top``; each later phase s flows ``(caps − flows) >> s`` clamped to
    2·num_arcs and adds its flow × 2^s.  Less than num_arcs·2^(s+1) of flow
    is left after phase s + 1, and an acyclic maximum flow puts at most its
    value on one arc, so every phase fits int32 and the clamp cuts off no
    maximum flow.  Arcs that fit int32 take one phase.  The flow value is
    the int64 sum of the source row's flows, so a total past int32 is exact.
    """
    if net.num_arcs == 0:
        return FlowResult(net, 0, np.empty(0, dtype=np.int64))
    top = max(0, int(net.caps.max()).bit_length() - 31)
    flows = _kernel_flow(net, net.caps >> top) << top if top else _kernel_flow(net, net.caps)
    for s in range(top - 1, -1, -1):
        phase = np.minimum((net.caps - flows) >> s, 2 * net.num_arcs)
        flows += _kernel_flow(net, phase) << s
    value = int(flows[: net.indptr[SOURCE + 1]].sum())
    return FlowResult(net, value, flows + flows[net.partner])

