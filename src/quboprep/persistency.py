"""Strong/weak persistency extraction from the residual implication network.

All labels come from the residual graph of one symmetrized max flow, built
once as a CSR (:meth:`~quboprep.network.FlowResult.residual_adjacency`).
:func:`analyze_all` runs several problems through one flow, on the network
of their disjoint union, and :func:`split_blocks` hands each problem its own
labels and bound; :func:`analyze` is the one-problem case.  The blocks share
only the source and the sink.  The sink is never reachable at a maximum
flow, a middle literal reaches no middle literal of another block, and
residual reachability is the same for every maximum flow (Picard &
Queyranne, 1980), so every block gets exactly the result it gets alone.

Strong labels: one BFS from the source; literals it reaches hold value 1 in
every minimizer (their complements hold 0).  Weak labels extend the strong
ones over the unlabeled "middle" literals.  One SCC pass finds the frustrated
variables, whose two literals share a component; they stay unresolved.  The
other middle variables are oriented greedily, each orientation applied only
together with its full implication closure (one BFS from the chosen
literal), which guarantees the autarky property: overwriting any assignment
with the weak values never increases energy, so at least one minimizer
agrees with every reported weak value simultaneously.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .model import Coeff, Qubo, Reduction, as_coeff, fix_variables
from .network import SOURCE, FlowResult, build_network, max_flow
from .posiform import IntArrays, to_posiform


@dataclass(frozen=True)
class PersistencyResult:
    """Partial assignments from roof duality, plus the roof-dual bound.

    ``strong`` holds in every optimum; ``weak`` (a superset) holds
    simultaneously in at least one optimum.
    """

    num_vars: int
    strong: dict[int, int] = field(default_factory=dict)
    weak: dict[int, int] = field(default_factory=dict)
    bound: Coeff = 0

    def __post_init__(self):
        for var, val in self.strong.items():
            if self.weak.get(var) != val:
                raise ValueError(f"strong label x{var}={val} missing from weak set")

    def _pct(self, count: int) -> float:
        if self.num_vars == 0:
            return 100.0  # vacuously fully resolved
        return 100.0 * count / self.num_vars

    @property
    def strong_pct(self) -> float:
        return self._pct(len(self.strong))

    @property
    def weak_pct(self) -> float:
        return self._pct(len(self.weak))

    def summary(self) -> str:
        return (
            f"strong_pct={self.strong_pct:.2f},weak_pct={self.weak_pct:.2f},"
            f"bound={self.bound}"
        )

    def to_csv_text(self) -> str:
        """`var,value,class` rows followed by a summary line."""
        lines = ["var,value,class"]
        for var in sorted(self.weak):
            cls = "strong" if var in self.strong else "weak"
            lines.append(f"{var},{self.weak[var]},{cls}")
        lines.append("")
        lines.append("strong_pct,weak_pct,bound")
        lines.append(f"{self.strong_pct:.2f},{self.weak_pct:.2f},{self.bound}")
        return "\n".join(lines)


def analyze(q: Qubo | IntArrays) -> PersistencyResult:
    """Roof-dual bound plus strong and weak persistencies of ``q``, given as
    a Qubo or as its scaled arrays."""
    return analyze_all([q if isinstance(q, IntArrays) else IntArrays.from_qubo(q)])[0]


def analyze_all(problems: Sequence[IntArrays]) -> list[PersistencyResult]:
    """:func:`analyze` of each problem, all in one max flow.

    The problems must share one scale.  Their disjoint union (problem b's
    variable k is variable ``starts[b] + k``) goes through one posiform
    rewrite, one network, one flow and one label extraction; the blocks
    share only the source and the sink, so :func:`split_blocks` gives each
    problem exactly the result it gets alone.
    """
    if not problems:
        return []
    if any(arr.scale != problems[0].scale for arr in problems):
        raise ValueError("problems analyzed together must share one scale")
    starts = np.cumsum([0] + [arr.num_vars for arr in problems])
    shift = np.repeat(starts[:-1], [len(arr.qv) for arr in problems])
    p = to_posiform(IntArrays(
        int(starts[-1]),
        problems[0].scale,
        np.concatenate([arr.lin for arr in problems]),
        np.concatenate([arr.qi for arr in problems]) + shift,
        np.concatenate([arr.qj for arr in problems]) + shift,
        np.concatenate([arr.qv for arr in problems]),
        0,
    ))
    # Each problem's posiform constant: its offset plus its negative linear
    # part after the rewrite (the complemented linear terms of its block).
    negative = np.zeros(p.num_vars, dtype=np.int64)
    odd = (p.lin_codes & 1) == 1
    negative[p.lin_codes[odd] >> 1] = p.lin_vals[odd]
    constants = [
        arr.offset - Fraction(int(negative[lo:hi].sum()), p.scale)
        for arr, lo, hi in zip(problems, starts[:-1].tolist(), starts[1:].tolist())
    ]
    net = build_network(p)
    flow = max_flow(net)
    strong, weak = extract_labels(flow, p.num_vars)
    return [
        PersistencyResult(arr.num_vars, s, w, as_coeff(bound))
        for arr, (s, w, bound) in zip(
            problems, split_blocks(flow, strong, weak, starts.tolist(), constants)
        )
    ]


def split_blocks(
    flow: FlowResult,
    strong: dict[int, int],
    weak: dict[int, int],
    starts: Sequence[int],
    constants: Sequence[Coeff],
) -> list[tuple[dict[int, int], dict[int, int], Fraction]]:
    """(strong, weak, bound) of each block of variables
    ``starts[b]:starts[b + 1]`` of a flow over disjoint problems that share
    only the source and the sink.

    Labels keep their dict order and move to the block's own indices.  A
    block's flow is a maximum flow of its problem alone, so its bound is
    ``constants[b]`` (the posiform constant) plus that flow: ``flow2`` adds
    to each source arc's flow that of its partner, an arc into the sink from
    the same block, so the block's source arcs sum to twice its flow.
    """
    out = [({}, {}) for _ in starts[1:]]
    for labels, k in ((strong, 0), (weak, 1)):
        lo = hi = 0
        for j, v in labels.items():
            if not lo <= j < hi:  # labels mostly come in runs of one block
                b = bisect_right(starts, j) - 1
                lo, hi, block = starts[b], starts[b + 1], out[b][k]
            block[j - lo] = v
    scale = flow.network.scale
    flow2 = flow.flow2
    return [
        (s, w, c + Fraction(int(flow2[2 * lo : 2 * hi].sum()) // 2, scale))
        for (s, w), c, lo, hi in zip(out, constants, starts, starts[1:])
    ]


def extract_labels(flow, num_vars: int) -> tuple[dict[int, int], dict[int, int]]:
    """Strong and weak variable labels from a symmetrized max-flow residual.

    Middle variables are taken in ascending order; one without a value gets
    the closure of x̄ (value 0) if that closure is consistent, else that of
    x (value 1).  A closure is the set of middle literals reachable from the
    start literal; it is consistent when it reaches no literal valued 0 and
    no frustrated variable, and not both literals of any variable.  Its
    unvalued literals become 1 and their complements 0.  The literals valued
    1 stay closed under reachability, so a variable whose closures both fail
    is never valued later.
    """
    n_nodes = flow.network.num_nodes
    adj = flow.residual_adjacency()
    reached = np.zeros(n_nodes, dtype=bool)
    reached[breadth_first_order(adj, SOURCE, directed=True, return_predecessors=False)] = True
    pos, neg = reached[2::2], reached[3::2]
    both = np.flatnonzero(pos & neg)
    if len(both):
        raise AssertionError(
            f"both literals of x{int(both[0])} reachable; max flow is not maximal"
        )
    resolved = pos | neg
    strong_vars = np.flatnonzero(resolved)
    strong = dict(zip(strong_vars.tolist(), pos[strong_vars].astype(int).tolist()))

    weak = dict(strong)
    middle_vars = np.flatnonzero(~resolved)
    if len(middle_vars):
        _, labels = connected_components(adj, directed=True, connection="strong")
        middle = np.zeros(n_nodes, dtype=bool)
        middle[2:] = np.repeat(~resolved, 2)
        frustrated = np.zeros(n_nodes, dtype=bool)
        frustrated[2:] = np.repeat(labels[2::2] == labels[3::2], 2)
        value = np.full(n_nodes, -1, dtype=np.int8)
        in_reach = np.zeros(n_nodes, dtype=bool)
        for var in middle_vars[~frustrated[2 * middle_vars + 2]].tolist():
            if value[2 * var + 2] >= 0:
                continue
            # Prefer the orientation that sets this (lowest unresolved) var to 0.
            for start in (2 * var + 3, 2 * var + 2):
                reach = breadth_first_order(adj, start, directed=True, return_predecessors=False)
                reach = reach[middle[reach]]
                in_reach[reach] = True
                consistent = not (
                    (value[reach] == 0).any()
                    or frustrated[reach].any()
                    or in_reach[reach ^ 1].any()
                )
                in_reach[reach] = False
                if consistent:
                    new = reach[value[reach] < 0]
                    value[new] = 1
                    value[new ^ 1] = 0
                    break
        labelled = middle_vars[value[2 * middle_vars + 2] >= 0]
        weak.update(zip(labelled.tolist(), value[2 * labelled + 2].tolist()))

    return strong, weak


def reduce(q: Qubo, result: PersistencyResult, mode: str = "weak") -> Reduction:
    """Fix the strong or weak set of ``result`` in ``q``.

    With mode="weak" the reduced problem keeps at least one global optimum
    (min original == min reduced + delta); with mode="strong" every optimum
    survives.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    if result.num_vars != q.num_vars:
        raise ValueError(
            f"result has {result.num_vars} variables, problem has {q.num_vars}"
        )
    chosen = result.strong if mode == "strong" else result.weak
    return fix_variables(q, chosen)
