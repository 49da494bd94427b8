"""Probe branch analysis on the problem's scaled integer arrays.

Probing runs two persistency analyses per variable.  The problem is scaled
once into :class:`~quboprep.posiform.IntArrays`; a branch folds x_u := b
into a copy of those arrays and then takes the same posiform → network →
max flow → labels route as :func:`~quboprep.persistency.analyze`.  The
branch keeps the full index space (the probed variable just loses its
terms), so returned labels are in the problem's own indices.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np

from .network import build_network, max_flow
from .persistency import extract_labels
from .posiform import IntArrays, to_posiform


def analyze_branch(arr: IntArrays, u: int, b: int) -> tuple[dict[int, int], dict[int, int], Fraction]:
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
    branch = replace(
        arr,
        lin=lin,
        qi=arr.qi[keep],
        qj=arr.qj[keep],
        qv=arr.qv[keep],
        offset=arr.offset + Fraction(delta, arr.scale),
    )
    p = to_posiform(branch)
    flow = max_flow(build_network(p))
    bound = p.constant + Fraction(flow.flow_value, flow.network.scale)
    strong, weak = extract_labels(flow, arr.num_vars)
    strong.pop(u, None)
    weak.pop(u, None)
    return strong, weak, bound
