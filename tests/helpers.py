"""Shared test utilities, including independent oracles.

The max-flow oracle here is a naive Edmonds-Karp sharing no code with the
package's flow kernel, so value agreement between the two is meaningful.
The dict views of networks, flows and posiforms below exist only for
readable assertions.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from scipy.sparse.csgraph import breadth_first_order, connected_components

from quboprep.model import Qubo
from quboprep.network import SOURCE, ImplicationNetwork, _merge_arcs


def edmonds_karp(num_nodes: int, arcs, source: int, sink: int) -> int:
    """Max-flow value by BFS augmenting paths; arcs = (u, v, cap) triples."""
    cap = {}
    adj: dict[int, set[int]] = {}
    for u, v, c in arcs:
        cap[(u, v)] = cap.get((u, v), 0) + int(c)
        cap.setdefault((v, u), cap.get((v, u), 0))
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    total = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in parent and cap.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return total
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(cap[(u, w)] for u, w in path)
        for u, w in path:
            cap[(u, w)] -= bottleneck
            cap[(w, u)] += bottleneck
        total += bottleneck


def enumerate_energies(q: Qubo):
    """All (assignment, energy) pairs by direct evaluation (n small)."""
    n = q.num_vars
    for code in range(1 << n):
        values = tuple((code >> i) & 1 for i in range(n))
        yield values, q.energy(values)


def exact_min(q: Qubo):
    best = None
    argmins = []
    for values, energy in enumerate_energies(q):
        if best is None or energy < best:
            best, argmins = energy, [values]
        elif energy == best:
            argmins.append(values)
    return best, argmins


def random_qubo(rng: np.random.Generator, n: int, coeff_range=(-4, 4), density=0.5) -> Qubo:
    lin = {i: int(rng.integers(coeff_range[0], coeff_range[1] + 1)) for i in range(n)}
    quad = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                quad[(i, j)] = int(rng.integers(coeff_range[0], coeff_range[1] + 1))
    return Qubo.from_terms(n, lin, quad)


def posiform_energy(p, values):
    """Energy of an array posiform at a 0/1 assignment, term by term."""

    def lit(code: int) -> int:
        v = values[code >> 1]
        return 1 - v if code & 1 else v

    total = sum(a * lit(c) for c, a in zip(p.lin_codes.tolist(), p.lin_vals.tolist()))
    total += sum(
        a * lit(cu) * lit(cv)
        for cu, cv, a in zip(p.qu.tolist(), p.qv.tolist(), p.quad_vals.tolist())
    )
    return p.constant + Fraction(total, p.scale)


def literal_node(var: int, complemented: bool = False) -> int:
    return 2 * var + int(complemented) + 2


def arc_dict(net) -> dict[tuple[int, int], int]:
    return {(int(u), int(v)): int(c) for u, v, c in zip(net.tails, net.heads, net.caps)}


def network_from_arcs(num_vars: int, arcs, scale: int = 2) -> ImplicationNetwork:
    """Network from skew-closed (tail, head, capacity) triples; parallel arcs
    merge by capacity addition.  Asserts every merged arc has its partner."""
    tails, heads, caps = (np.array([a[k] for a in arcs], dtype=np.int64) for k in range(3))
    net = ImplicationNetwork(num_vars, scale, *_merge_arcs(tails, heads, caps, 2 * num_vars + 2))
    assert_skew_partners(net)
    return net


def assert_skew_partners(net) -> None:
    """Arc ``partner[k]`` of every arc k is (v̄ → ū) with the same capacity."""
    p = net.partner
    assert (net.tails[p] == net.heads ^ 1).all()
    assert (net.heads[p] == net.tails ^ 1).all()
    assert (net.caps[p] == net.caps).all()


def flow_fractions(result) -> dict[tuple[int, int], Fraction]:
    """Net symmetrized flow per arc, in energy units."""
    net = result.network
    return {
        (int(u), int(v)): Fraction(int(f2), 2 * net.scale)
        for u, v, f2 in zip(net.tails, net.heads, result.flow2)
    }


def residual_caps(result) -> dict[tuple[int, int], Fraction]:
    """Residual capacities (energy units) for all residual arcs."""
    net = result.network
    out: dict[tuple[int, int], Fraction] = {}
    arc_set = set(zip(net.tails.tolist(), net.heads.tolist()))
    for u, v, c, f2 in zip(net.tails, net.heads, net.caps, result.flow2):
        out[(int(u), int(v))] = Fraction(int(2 * c - f2), 2 * net.scale)
        if (int(v), int(u)) not in arc_set and f2 > 0:
            out[(int(v), int(u))] = Fraction(int(f2), 2 * net.scale)
    return out


def reference_labels(flow, num_vars: int) -> tuple[dict[int, int], dict[int, int]]:
    """Strong and weak labels by the component-level closure search that
    ``persistency.extract_labels`` replaced; kept as its differential oracle."""
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


@st.composite
def class_and_fixes(draw):
    """A QUBO (int or Fraction, with offset), one relation class of two or
    more members with random complement flags, and fixes of other variables."""
    n = draw(st.integers(2, 7))
    coeff = st.integers(-4, 4)
    if draw(st.booleans()):
        coeff = st.builds(Fraction, coeff, st.integers(1, 4))
    lin = {i: draw(coeff) for i in range(n)}
    quad = {(i, j): draw(coeff) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    q = Qubo.from_terms(n, lin, quad, draw(coeff))
    order = draw(st.permutations(range(n)))
    size = draw(st.integers(2, n))
    cls = {m: (order[0], draw(st.booleans())) for m in order[1:size]}
    fixes = {v: draw(st.integers(0, 1)) for v in order[size:] if draw(st.booleans())}
    return q, cls, fixes
