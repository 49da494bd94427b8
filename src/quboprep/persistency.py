"""Strong/weak persistency extraction from the residual implication network.

All labels come from the residual graph of one symmetrized max flow, built
once as a CSR (:meth:`~quboprep.network.FlowResult.residual_adjacency`).

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

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .model import Coeff, Qubo, Reduction, as_coeff, fix_variables
from .network import SOURCE, build_network, max_flow
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
    arr = q if isinstance(q, IntArrays) else IntArrays.from_qubo(q)
    p = to_posiform(arr)
    net = build_network(p)
    flow = max_flow(net)
    bound = as_coeff(p.constant + Fraction(flow.flow_value, net.scale))
    strong, weak = extract_labels(flow, arr.num_vars)
    return PersistencyResult(arr.num_vars, strong, weak, bound)


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
    net = flow.network
    n_nodes = net.num_nodes

    if net.num_arcs == 0:
        # Every variable is isolated; both values are optimal, report 0.
        return {}, {v: 0 for v in range(num_vars)}

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
