"""Vectorized branch analysis for probing.

Probing runs two persistency analyses per variable; going through dict-based
fix/posiform/network construction costs several O(terms) Python passes each.
Here the problem is held once as flat int64 arrays (coefficients scaled by
the lcm of their denominators, so int and Fraction inputs share one path),
and variable fixing, the posiform rewrite and arc construction are fused
into numpy operations that feed the shared max-flow and label-extraction
code.  The branch problem keeps the full index space (the probed variable
just loses its terms), so returned labels are in the problem's own indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import Coeff, Qubo
from .network import SINK, SOURCE, ImplicationNetwork, _denominator_lcm, _merge_arcs, max_flow
from .persistency import extract_labels


def _scaled(values, scale: int, count: int) -> np.ndarray:
    if scale == 1:
        return np.fromiter(values, dtype=np.int64, count=count)
    return np.fromiter((int(a * scale) for a in values), dtype=np.int64, count=count)


@dataclass(frozen=True)
class IntArrays:
    """Flat int64 view of a Qubo: coefficients times ``scale``, exact offset."""

    num_vars: int
    scale: int
    lin: np.ndarray
    qi: np.ndarray
    qj: np.ndarray
    qv: np.ndarray
    offset: Coeff

    @classmethod
    def from_qubo(cls, q: Qubo) -> "IntArrays":
        scale = _denominator_lcm(q.linear.values(), q.quadratic.values())
        lin = np.zeros(q.num_vars, dtype=np.int64)
        n_lin = len(q.linear)
        lin[np.fromiter(q.linear.keys(), dtype=np.int64, count=n_lin)] = _scaled(
            q.linear.values(), scale, n_lin
        )
        m = len(q.quadratic)
        if m:
            keys = np.array(list(q.quadratic.keys()), dtype=np.int64)
            qi, qj = keys[:, 0], keys[:, 1]
            qv = _scaled(q.quadratic.values(), scale, m)
        else:
            qi = qj = qv = np.empty(0, dtype=np.int64)
        return cls(q.num_vars, scale, lin, qi, qj, qv, q.offset)


def analyze_branch(
    arr: IntArrays, u: int, b: int, backend: str = "auto"
) -> tuple[dict[int, int], dict[int, int], Fraction]:
    """Persistency labels and bound of the subproblem with x_u := b.

    Returns (strong, weak, bound); labels use the parent index space and
    exclude u; the bound includes the fold-out delta of fixing u, so it
    lower-bounds the parent problem restricted to x_u = b.
    """
    lin = arr.lin.copy()
    touches = (arr.qi == u) | (arr.qj == u)
    delta = int(lin[u]) if b else 0
    if b and touches.any():
        other = np.where(arr.qi[touches] == u, arr.qj[touches], arr.qi[touches])
        np.add.at(lin, other, arr.qv[touches])
    lin[u] = 0
    keep = ~touches
    qi, qj, qv = arr.qi[keep], arr.qj[keep], arr.qv[keep]

    # Posiform rewrite: negative a·x_i·x_j becomes a on x_i plus (-a)·x_i·x̄_j.
    neg = qv < 0
    if neg.any():
        np.add.at(lin, qi[neg], qv[neg])
    cu = 2 * qi
    cv = 2 * qj + neg
    vals = np.abs(qv)

    lpos = lin > 0
    lneg = lin < 0
    constant = delta + int(lin[lneg].sum())  # scaled, offset excluded
    lcodes = np.concatenate([2 * np.nonzero(lpos)[0], 2 * np.nonzero(lneg)[0] + 1])
    lvals = np.concatenate([lin[lpos], -lin[lneg]])

    num_nodes = 2 * arr.num_vars + 2
    nl = lcodes + 2
    tails = np.concatenate([cu + 2, cv + 2, np.full(len(nl), SOURCE, dtype=np.int64), nl])
    heads = np.concatenate([(cv + 2) ^ 1, (cu + 2) ^ 1, nl ^ 1, np.full(len(nl), SINK, dtype=np.int64)])
    caps = np.concatenate([vals, vals, lvals, lvals])

    if len(caps) == 0:
        weak = {v: 0 for v in range(arr.num_vars) if v != u}
        return {}, weak, arr.offset + Fraction(constant, arr.scale)

    scale = 2 * arr.scale
    net = ImplicationNetwork(arr.num_vars, scale, *_merge_arcs(tails, heads, caps, num_nodes))
    flow = max_flow(net, backend=backend)
    bound = arr.offset + Fraction(2 * constant + flow.flow_value, scale)
    strong, weak = extract_labels(flow, arr.num_vars)
    strong.pop(u, None)
    weak.pop(u, None)
    return strong, weak, bound
