"""Roof-dual bound and strong/weak persistencies of the implication network.

All labels come from the residual graph of one symmetrized max flow, as a
CSR (:meth:`~quboprep.network.FlowResult.residual_adjacency`).
:func:`roof_dual` runs one problem through its network and one flow to the
bound; :func:`analyze` takes that step (:func:`_roof_flow`) and adds
:func:`extract_labels`.  A flow over several disjoint problems
that share only the source and the sink (the k-pair probe layouts of
:mod:`~quboprep._fast`) is split by :func:`split_blocks`, which hands each
problem its own labels and bound (:func:`split_labels` splits a label dict
by block); the split solver splits the weak labels of its level runs, each
the residual of one maximum matching, the same way
(:func:`~quboprep.decompose._weak_labels`).  The sink is never reachable at
a maximum flow, a middle literal reaches no middle literal of another
block, and residual reachability is the same for every maximum flow
(Picard & Queyranne, 1980), so every block gets exactly the result it gets
alone.

Strong labels: one BFS from the source; literals it reaches hold value 1 in
every minimizer (their complements hold 0).  Weak labels extend the strong
ones over the unlabeled "middle" literals.  One SCC pass finds the frustrated
variables, whose two literals share a component; they stay unresolved.  The
other middle variables are oriented greedily, each orientation applied only
together with its full implication closure (one search from the chosen
literal over the unfrustrated middle literals), which guarantees the autarky property: overwriting any assignment
with the weak values never increases energy, so at least one minimizer
agrees with every reported weak value simultaneously.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .model import Coeff, Qubo, Reduction, as_coeff, fix_variables
from .network import SINK, SOURCE, FlowResult, build_network, max_flow
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


def _roof_flow(arr: IntArrays) -> tuple[FlowResult, Coeff]:
    """Maximum flow of ``arr``'s network and the roof-dual bound: the
    posiform constant plus the flow value in energy units."""
    p = to_posiform(arr)
    net = build_network(arr)
    flow = max_flow(net)
    return flow, as_coeff(p.constant + Fraction(flow.flow_value, net.scale))


def roof_dual(q: Qubo) -> Coeff:
    """Max-flow lower bound on min_x q(x); exact when q is submodular."""
    return _roof_flow(IntArrays.from_qubo(q))[1]


def analyze(q: Qubo | IntArrays) -> PersistencyResult:
    """Roof-dual bound plus strong and weak persistencies of ``q``, given as
    a Qubo or as its scaled arrays."""
    arr = q if isinstance(q, IntArrays) else IntArrays.from_qubo(q)
    flow, bound = _roof_flow(arr)
    strong, weak = extract_labels(flow.residual_adjacency())
    return PersistencyResult(arr.num_vars, strong, weak, bound)


# Quadratic entries per disjoint union laid out for one flow or one
# matching (a probe batch's copies, a split level's run); a larger member
# runs alone.  Read at call time.
UNION_ENTRIES = 1 << 15


def _exact(value: int, scale: int) -> Coeff:
    """``value / scale`` exactly: an int, with no Fraction arithmetic, when
    ``scale`` divides ``value``, else a Fraction."""
    quotient, rest = divmod(value, scale)
    return Fraction(value, scale) if rest else quotient


def split_blocks(
    flow: FlowResult,
    strong: dict[int, int],
    weak: dict[int, int],
    starts: Sequence[int],
    constants: Sequence[Coeff],
) -> list[tuple[dict[int, int], dict[int, int], Coeff]]:
    """(strong, weak, bound) of each block of variables
    ``starts[b]:starts[b + 1]`` of a flow over disjoint problems that share
    only the source and the sink.

    Labels keep their dict order and move to the block's own indices.  A
    block's flow is a maximum flow of its problem alone, so its bound is
    ``constants[b]`` (the posiform constant) plus that flow: ``flow2`` adds
    to each source arc's flow that of its partner, an arc into the sink from
    the same block, so the block's source arcs sum to twice its flow.
    """
    scale = flow.network.scale
    source = np.zeros(2 * starts[-1] + 1, dtype=np.int64)
    np.cumsum(flow.flow2[: 2 * starts[-1]], out=source[1:])
    sums = np.diff(source[2 * np.asarray(starts)]).tolist()
    blocks = zip(split_labels(strong, starts), split_labels(weak, starts), constants, sums)
    return [(s, w, c + _exact(f // 2, scale)) for s, w, c, f in blocks]


def split_labels(labels: dict[int, int], starts: Sequence[int]) -> list[dict[int, int]]:
    """``labels`` of a union split per block of variables ``starts[b]:starts[b
    + 1]``, each in the block's own indices and in the union's dict order."""
    out: list[dict[int, int]] = [{} for _ in starts[1:]]
    lo = hi = 0
    for j, v in labels.items():
        if not lo <= j < hi:  # labels mostly come in runs of one block
            b = bisect_right(starts, j) - 1
            lo, hi, block = starts[b], starts[b + 1], out[b]
        block[j - lo] = v
    return out


def extract_labels(adj: csr_matrix, mirror: bool = False) -> tuple[dict[int, int], ...]:
    """Strong and weak variable labels from ``adj``, the residual graph of a
    symmetrized maximum flow as a CSR over its 2N + 2 nodes with no repeated
    entry (:meth:`~quboprep.network.FlowResult.residual_adjacency`).  They
    depend only on which nodes reach which.  A residual in which the source
    reaches the sink, or both literals of a variable, is not that of a
    maximum flow and raises.  With ``mirror`` a third dict follows: the weak
    labels of the same greedy in the other orientation, which tries x
    before x̄, from the same search and SCC pass.  Complemented, they are
    the weak labels of the residual with every x_k and x̄_k swapped, the
    residual of the problem with every variable complemented (see
    :mod:`~quboprep._fast`).

    Middle variables are taken in ascending order; one without a value gets
    the closure of x̄ (value 0) if that closure is consistent, else that of
    x (value 1).  A closure is the set of middle literals reachable from the
    start literal ℓ; its unvalued literals become 1 and their complements 0,
    so the literals valued 1 stay closed under reachability.  It is
    consistent unless it reaches a frustrated literal or ℓ̄, because by skew
    symmetry (a residual arc y → z comes with z̄ → ȳ):

    (a) an unvalued ℓ reaches no literal z valued 0: ℓ ⇝ z gives z̄ ⇝ ℓ̄;
    (b) a closure holds both literals of some y iff it holds ℓ̄: ℓ ⇝ y and
        ℓ ⇝ ȳ give y ⇝ ℓ̄.

    As no failure depends on the values, a variable whose closures both
    fail is never valued.  A path from a middle literal y that leaves the
    middle literals never comes back: an arc from y into the sink or into
    the complement of a literal the source reaches would let the source
    reach ȳ, so the path leaves through the source or a literal the source
    reaches, and the source reaches all that follows.  So a closure is
    searched among the literals of the unfrustrated middle variables alone,
    on their own rows, gathered through ``indptr`` rather than by a pass
    over every residual arc; it fails when it holds ℓ̄ or a literal with an
    arc into a frustrated one.  The search enters no valued literal: by (a)
    none is valued 0, and those valued 1 are closed and reach no frustrated
    literal.  So a lone x, whose x̄ has no residual arc into a middle
    literal, gets the closure {x̄} in one step.
    """
    n_nodes = adj.shape[0]
    reached = np.zeros(n_nodes, dtype=bool)
    reached[breadth_first_order(adj, SOURCE, directed=True, return_predecessors=False)] = True
    if reached[SINK]:
        raise AssertionError("the source reaches the sink; max flow is not maximal")
    pos, neg = reached[2::2], reached[3::2]
    both = np.flatnonzero(pos & neg)
    if len(both):
        raise AssertionError(
            f"both literals of x{int(both[0])} reachable; max flow is not maximal"
        )
    resolved = pos | neg
    strong_vars = np.flatnonzero(resolved)
    strong = dict(zip(strong_vars.tolist(), pos[strong_vars].astype(int).tolist()))

    weaks = [dict(strong) for _ in range(1 + mirror)]
    middle_vars = np.flatnonzero(~resolved)
    if len(middle_vars):
        _, labels = connected_components(adj, directed=True, connection="strong")
        frustrated = np.zeros(n_nodes, dtype=bool)
        frustrated[2:] = np.repeat(labels[2::2] == labels[3::2], 2)
        todo = middle_vars[~frustrated[2 * middle_vars + 2]]
        todo_list = todo.tolist()
        for weak, values in zip(weaks, _closures(adj, todo, frustrated, mirror)):
            weak.update((var, val) for var, val in zip(todo_list, values) if val >= 0)

    return (strong, *weaks)


def _closures(
    adj: csr_matrix, todo: np.ndarray, frustrated: np.ndarray, mirror: bool
) -> list[list[int]]:
    """The value (−1 for none) that :func:`extract_labels`'s closures give
    each unfrustrated middle variable of ``todo`` (ascending), searched on
    the rows of their literals alone: x_k of ``todo[k]`` is local node 2k
    and x̄_k node 2k + 1, so a complement is still ``^ 1``.  One list per
    orientation: x̄ first, then, with ``mirror``, x first."""
    nodes = np.stack([2 * todo + 2, 2 * todo + 3], axis=1).ravel()
    local = np.full(len(frustrated), -1, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    lo, size = adj.indptr[nodes], adj.indptr[nodes + 1] - adj.indptr[nodes]
    ends = np.cumsum(size)
    heads = adj.indices[np.arange(size.sum()) + np.repeat(lo - (ends - size), size)]
    tails = np.repeat(np.arange(len(nodes)), size)
    bad = np.zeros(len(nodes), dtype=bool)
    bad[tails[frustrated[heads]]] = True
    inner = local[heads] >= 0
    ptr = np.searchsorted(tails[inner], np.arange(len(nodes) + 1)).tolist()
    succ, bad = local[heads[inner]].tolist(), bad.tolist()
    out = []
    for first, second in ((1, 0), (0, 1))[: 1 + mirror]:
        value = [-1] * len(nodes)
        for x in range(0, len(nodes), 2):
            if value[x] >= 0:
                continue
            # x̄ first prefers the orientation that sets this (lowest
            # unresolved) var to 0.
            for start in (x + first, x + second):
                reach, stack = {start}, [start]
                while stack:
                    y = stack.pop()
                    if bad[y] or y == start ^ 1:
                        break
                    for z in succ[ptr[y] : ptr[y + 1]]:
                        if value[z] < 0 and z not in reach:
                            reach.add(z)
                            stack.append(z)
                else:
                    for y in reach:
                        value[y], value[y ^ 1] = 1, 0
                    break
        out.append(value[::2])
    return out


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
