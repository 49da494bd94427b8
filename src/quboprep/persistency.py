"""Strong/weak persistency extraction from the residual implication network.

Strong labels: literals residual-reachable from the source hold value 1 in
every minimizer (their complements hold 0).  Weak labels extend the strong
ones over the unlabeled "middle" literals by orienting complementary SCC
pairs of the residual graph.  An orientation is applied only together with
its full implication closure, which guarantees the autarky property:
overwriting any assignment with the weak values never increases energy, so
at least one minimizer agrees with every reported weak value simultaneously.
Variables whose two literals share an SCC (frustration) stay unresolved.
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


def analyze(q: Qubo) -> PersistencyResult:
    """Roof-dual bound plus strong and weak persistencies of ``q``."""
    p = to_posiform(IntArrays.from_qubo(q))
    net = build_network(p)
    flow = max_flow(net)
    bound = as_coeff(p.constant + Fraction(flow.flow_value, net.scale))
    strong, weak = extract_labels(flow, q.num_vars)
    return PersistencyResult(q.num_vars, strong, weak, bound)


def extract_labels(flow, num_vars: int) -> tuple[dict[int, int], dict[int, int]]:
    """Strong and weak variable labels from a symmetrized max-flow residual."""
    net = flow.network
    n_nodes = net.num_nodes

    if net.num_arcs == 0:
        # Every variable is isolated; both values are optimal, report 0.
        return {}, {v: 0 for v in range(num_vars)}

    adj = flow.residual_adjacency()
    reached_nodes = breadth_first_order(
        adj, SOURCE, directed=True, return_predecessors=False
    )
    reached = np.zeros(n_nodes, dtype=bool)
    reached[reached_nodes] = True

    strong: dict[int, int] = {}
    for node in range(2, n_nodes):
        if reached[node]:
            var = (node - 2) >> 1
            val = 0 if node & 1 else 1
            if strong.get(var, val) != val:
                raise AssertionError(
                    f"both literals of x{var} reachable; max flow is not maximal"
                )
            strong[var] = val

    middle = ~reached & ~reached[np.arange(n_nodes) ^ 1]
    middle[:2] = False

    weak = dict(strong)
    middle_vars = [v for v in range(num_vars) if middle[2 * v + 2]]
    if middle_vars:
        _, labels = connected_components(adj, directed=True, connection="strong")
        comp_next: dict[int, set[int]] = {}
        coo = adj.tocoo()
        rows, cols = coo.row, coo.col
        both_mid = middle[rows] & middle[cols]
        for r, c in zip(rows[both_mid].tolist(), cols[both_mid].tolist()):
            lr, lc = int(labels[r]), int(labels[c])
            if lr != lc:
                comp_next.setdefault(lr, set()).add(lc)

        comp_complement: dict[int, int] = {}
        self_comp: set[int] = set()
        for node in np.nonzero(middle)[0].tolist():
            lab = int(labels[node])
            clab = int(labels[node ^ 1])
            comp_complement[lab] = clab
            if lab == clab:
                self_comp.add(lab)

        comp_value: dict[int, int] = {}

        def closure(start: int) -> set[int] | None:
            """Components forced to 1 by setting `start` to 1, or None."""
            seen: set[int] = set()
            stack = [start]
            while stack:
                lab = stack.pop()
                if lab in seen:
                    continue
                if lab in self_comp:
                    return None
                prior = comp_value.get(lab)
                if prior == 0:
                    return None
                if prior == 1:
                    continue  # its own closure is already all-ones
                seen.add(lab)
                stack.extend(comp_next.get(lab, ()))
            for lab in seen:
                if comp_complement[lab] in seen:
                    return None
            return seen

        for var in middle_vars:
            pos_lab = int(labels[2 * var + 2])
            neg_lab = comp_complement[pos_lab]
            if pos_lab in self_comp:
                continue  # frustrated: x_var and its complement share an SCC
            if pos_lab in comp_value:
                weak[var] = comp_value[pos_lab]
                continue
            # Prefer the orientation that sets this (lowest unresolved) var to 0.
            for lab, val in ((neg_lab, 0), (pos_lab, 1)):
                forced = closure(lab)
                if forced is not None:
                    for f in forced:
                        comp_value[f] = 1
                        comp_value[comp_complement[f]] = 0
                    weak[var] = val
                    break

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
