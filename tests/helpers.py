"""Shared test utilities, including independent oracles.

The max-flow oracle here is a naive Edmonds-Karp sharing no code with the
package's flow kernel, so value agreement between the two is meaningful.
The dict views of networks, flows and posiforms below exist only for
readable assertions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from scipy.sparse.csgraph import breadth_first_order, connected_components

from quboprep import network
from quboprep.errors import SizeGuardError
from quboprep.model import Qubo, as_coeff
from quboprep.network import SINK, SOURCE, ImplicationNetwork
from quboprep.persistency import PersistencyResult, extract_labels, split_blocks
from quboprep.posiform import IntArrays, Posiform, to_posiform
from quboprep.problems import CliqueEncodingParams, clique_qubo


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


def arc_tails(net: ImplicationNetwork) -> np.ndarray:
    """The tail of every arc, read off the CSR row pointers."""
    return np.repeat(np.arange(net.num_nodes), np.diff(net.indptr))


def arc_reverses(net: ImplicationNetwork) -> np.ndarray:
    """The index of every arc's reverse (v → u): a search of its key
    ``head * num_nodes + tail`` among the sorted arc keys.  Asserts that the
    keys strictly increase and that every reverse is stored."""
    tails, heads = arc_tails(net), net.heads.astype(np.int64)
    keys = tails * net.num_nodes + heads
    assert (np.diff(keys) > 0).all()
    wanted = heads * net.num_nodes + tails
    rev = np.searchsorted(keys, wanted)
    assert (rev < len(keys)).all()
    assert (keys[rev] == wanted).all()
    return rev


def network_flow_value(net: ImplicationNetwork) -> int:
    """:func:`edmonds_karp` on the arcs of an implication network."""
    arcs = zip(arc_tails(net).tolist(), net.heads.tolist(), net.caps.tolist())
    return edmonds_karp(net.num_nodes, arcs, SOURCE, SINK)


def count_kernel_calls(monkeypatch) -> list:
    """Spy on scipy's flow kernel as ``network.max_flow`` calls it, one call
    per capacity-scaling phase; returns the list the calls are appended to."""
    calls = []
    kernel = network.maximum_flow

    def counted(graph, source, sink):
        calls.append(graph.shape)
        return kernel(graph, source, sink)

    monkeypatch.setattr(network, "maximum_flow", counted)
    return calls


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


def scaled_qubo(q: Qubo, k: int) -> Qubo:
    """``q`` with every coefficient and the offset multiplied by ``k``."""
    return Qubo.from_terms(
        q.num_vars,
        {i: k * a for i, a in q.linear.items()},
        {key: k * a for key, a in q.quadratic.items()},
        k * q.offset,
    )


def with_fractions(rng: np.random.Generator, q: Qubo) -> Qubo:
    """``q`` with every coefficient divided by a random small denominator."""
    dens = (2, 3, 4, 6)
    return Qubo.from_terms(
        q.num_vars,
        {i: Fraction(a, int(rng.choice(dens))) for i, a in q.linear.items()},
        {k: Fraction(a, int(rng.choice(dens))) for k, a in q.quadratic.items()},
        Fraction(1, 3),
    )


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
    """Positive-capacity arcs; the layout also stores zero-capacity ones."""
    arcs = zip(arc_tails(net).tolist(), net.heads.tolist(), net.caps.tolist())
    return {(u, v): c for u, v, c in arcs if c > 0}


def reference_network(p: Posiform) -> ImplicationNetwork:
    """The network of ``p`` by one sort of all arc keys and a merge of
    parallel arcs: the layout that ``network.build_network`` replaced,
    kept as the oracle its direct layout must equal array for array.  It
    takes any posiform, parallel terms included.

    Each term gives one arc: (s → ℓ̄) for the linear term on ℓ, on every
    literal (capacity 0 where there is none), and (u → v̄) for a term u·v.
    These arcs, their skew partners, their reverses and the reverses'
    partners are laid out as four blocks, so that an arc's partner is the
    same offset in the block ``block ^ 1`` and its reverse the same offset
    in the block ``block ^ 2``.  One sort puts them in CSR order and merges
    parallel arcs by capacity addition; the partner map carries over to the
    merged arcs.
    """
    n = p.num_vars
    num_nodes = 2 * n + 2
    lin_caps = np.zeros(2 * n, dtype=np.int64)
    np.add.at(lin_caps, p.lin_codes, p.lin_vals)
    lits = np.arange(2, num_nodes)
    u = np.concatenate([np.zeros(2 * n, dtype=np.int64), p.qu + 2])
    v = np.concatenate([lits ^ 1, (p.qv + 2) ^ 1])
    u1, v1 = u ^ 1, v ^ 1
    keys = np.concatenate([u, v1, v, u1]) * num_nodes + np.concatenate([v, u1, u, v1])
    order = np.argsort(keys)
    keys = keys[order]
    caps = np.concatenate([lin_caps, p.quad_vals])
    caps = np.concatenate([caps, caps, np.zeros(2 * len(u), dtype=np.int64)])[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    slot = np.empty(len(keys), dtype=np.int64)  # merged index of each laid-out arc
    slot[order] = np.cumsum(new) - 1
    if not new.all():
        first = np.flatnonzero(new)
        keys, caps = keys[first], np.add.reduceat(caps, first)
    blocks = slot.reshape(4, len(u))
    partner = np.empty(len(keys), dtype=np.int64)
    partner[blocks] = blocks[[1, 0, 3, 2]]
    indptr = np.searchsorted(keys, np.arange(num_nodes + 1) * num_nodes).astype(np.int32)
    heads = keys % num_nodes
    return ImplicationNetwork(n, 2 * p.scale, heads.astype(np.int32), caps, indptr, partner)


def reference_merged(num_vars, scale, lin, qi, qj, qv, offset) -> IntArrays:
    """``IntArrays.merged`` by one argsort of the keys, with sums and the
    magnitude check on Python ints: equal keys summed, zero sums dropped.
    Raises SizeGuardError when the result's Σ|a| reaches 2**62."""
    lin, qi, qj, qv = (np.asarray(a, dtype=object).tolist() for a in (lin, qi, qj, qv))
    keys = [i * num_vars + j for i, j in zip(qi, qj)]
    sums: dict[int, int] = {}
    for k in np.argsort(np.array(keys, dtype=np.int64), kind="stable").tolist():
        sums[keys[k]] = sums.get(keys[k], 0) + qv[k]
    sums = {key: a for key, a in sums.items() if a}
    if sum(map(abs, lin)) + sum(map(abs, sums.values())) >= 2**62:
        raise SizeGuardError("reference magnitude reaches 2**62")
    qi, qj = ([divmod(key, num_vars)[k] for key in sums] for k in (0, 1))
    cols = (np.array(col, dtype=np.int64) for col in (lin, qi, qj, list(sums.values())))
    return IntArrays(num_vars, scale, *cols, offset)


def reference_plus(a: IntArrays, b: IntArrays) -> IntArrays:
    """``a.plus(b)``: the concatenated entries through :func:`reference_merged`."""
    return reference_merged(
        a.num_vars, a.scale, [x + y for x, y in zip(a.lin.tolist(), b.lin.tolist())],
        a.qi.tolist() + b.qi.tolist(), a.qj.tolist() + b.qj.tolist(),
        a.qv.tolist() + b.qv.tolist(), a.offset + b.offset,
    )


def reference_fold(arr: IntArrays, fixed, subs) -> tuple[IntArrays, Fraction]:
    """``arr.fold(fixed, subs)`` by a loop over the terms on Python ints
    (variable k becomes c + s·y_t), merged by :func:`reference_merged`."""
    survivors = [k for k in range(arr.num_vars) if k not in fixed and k not in subs]
    image = {k: (0, 1, t) for t, k in enumerate(survivors)}
    image.update({k: (v, 0, None) for k, v in fixed.items()})
    for k, (i, comp) in subs.items():
        image[k] = (1, -1, image[i][2]) if comp else image[i]
    lin, qi, qj, qv, delta = [0] * len(survivors), [], [], [], 0
    for k, a in enumerate(arr.lin.tolist()):
        c, s, t = image[k]
        delta += a * c
        if s:
            lin[t] += a * s
    for i, j, a in zip(arr.qi.tolist(), arr.qj.tolist(), arr.qv.tolist()):
        (ci, si, ti), (cj, sj, tj) = image[i], image[j]
        delta += a * ci * cj
        if si * cj:
            lin[ti] += a * si * cj
        if ci * sj:
            lin[tj] += a * ci * sj
        if si * sj and ti == tj:
            lin[ti] += a * si * sj
        elif si * sj:
            qi.append(min(ti, tj))
            qj.append(max(ti, tj))
            qv.append(a * si * sj)
    out = reference_merged(len(survivors), arr.scale, lin, qi, qj, qv, arr.offset)
    return out, Fraction(delta, arr.scale)


def assert_same_arrays(got: IntArrays, want: IntArrays) -> None:
    """Equal fields, with the arrays equal in values and dtype."""
    for name in ("num_vars", "scale", "offset"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("lin", "qi", "qj", "qv"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def network_from_arcs(num_vars: int, arcs, scale: int = 2) -> ImplicationNetwork:
    """Network from skew-closed (tail, head, capacity) triples; parallel arcs
    merge by capacity addition, and zero-capacity arcs are dropped.

    Each arc is read back as the posiform term that gives it: (s → ℓ) and
    (ℓ̄ → t) as the linear term on ℓ̄, (u → v) as the term u·v̄.  A term gives
    two arcs, skew partners, so on a skew-closed input every term comes out
    doubled and is halved here.  Asserts the layout invariants.
    """
    lin_codes, lin_vals, qu, qv, quad_vals = [], [], [], [], []
    for u, v, c in arcs:
        if c == 0:
            continue
        if u == SOURCE:
            lin_codes.append((v - 2) ^ 1)
            lin_vals.append(c)
        elif v == SINK:
            lin_codes.append(u - 2)
            lin_vals.append(c)
        else:
            qu.append(u - 2)
            qv.append((v - 2) ^ 1)
            quad_vals.append(c)
    cols = (np.array(col, dtype=np.int64) for col in (lin_codes, lin_vals, qu, qv, quad_vals))
    net = reference_network(Posiform(num_vars, scale // 2, 0, *cols))
    assert (net.caps % 2 == 0).all(), "arcs are not skew-closed"
    net = replace(net, caps=net.caps // 2)
    assert_skew_partners(net)
    return net


def assert_skew_partners(net) -> None:
    """The layout invariants: a canonical CSR (rows by tail, heads strictly
    ascending) in which arc ``partner[k]`` of every arc k is (v̄ → ū) with
    the same capacity and the reverse (v → u) of every arc is stored."""
    arc_reverses(net)
    tails, p = arc_tails(net), net.partner
    assert (tails[p] == net.heads ^ 1).all()
    assert (net.heads[p] == tails ^ 1).all()
    assert (net.caps[p] == net.caps).all()


def flow_fractions(result) -> dict[tuple[int, int], Fraction]:
    """Net symmetrized flow per arc, in energy units."""
    net = result.network
    return {
        (u, v): Fraction(f2, 2 * net.scale)
        for u, v, f2 in zip(arc_tails(net).tolist(), net.heads.tolist(), result.flow2.tolist())
    }


def residual_caps(result) -> dict[tuple[int, int], Fraction]:
    """Residual capacities (energy units), derived from the positive-capacity
    arcs alone: c - f forward, and f backward unless the reverse arc has
    capacity of its own (then it is listed as an arc itself)."""
    net = result.network
    out: dict[tuple[int, int], Fraction] = {}
    positive = arc_dict(net)
    tails = arc_tails(net).tolist()
    for u, v, c, f2 in zip(tails, net.heads.tolist(), net.caps.tolist(), result.flow2.tolist()):
        if c > 0:
            out[(u, v)] = Fraction(2 * c - f2, 2 * net.scale)
            if (v, u) not in positive and f2 > 0:
                out[(v, u)] = Fraction(f2, 2 * net.scale)
    return out


def reference_labels(flow) -> tuple[dict[int, int], dict[int, int]]:
    """Strong and weak labels by the component-level closure search that
    ``persistency.extract_labels`` replaced; kept as its differential oracle."""
    n_nodes = flow.network.num_nodes
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
    middle_vars = [v for v in range(flow.network.num_vars) if middle[2 * v + 2]]
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


def reference_extract_labels(adj) -> tuple[dict[int, int], dict[int, int]]:
    """``persistency.extract_labels`` as it was before its closure test was
    cut to a frustrated literal or the start's complement: every closure
    also checked for a literal valued 0 and for both literals of a
    variable, and lone variables were valued inside the loop.  Kept as its
    differential oracle.

    Middle variables are taken in ascending order; one without a value gets
    the closure of x̄ (value 0) if that closure is consistent, else that of
    x (value 1).  A closure is the set of middle literals reachable from the
    start literal; it is consistent when it reaches no literal valued 0 and
    no frustrated variable, and not both literals of any variable.  Its
    unvalued literals become 1 and their complements 0.  The literals valued
    1 stay closed under reachability, so a variable whose closures both fail
    is never valued later.  ``adj`` is the residual CSR, as
    ``extract_labels`` takes it.
    """
    n_nodes = adj.shape[0]
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
        # A middle x̄ with no residual arc into a middle literal reaches none:
        # what the source reaches reaches none, and an arc from x̄ to the
        # sink or to the complement of a literal the source reaches would,
        # by skew symmetry, let the source reach x.  So x̄'s closure is {x̄},
        # which is consistent, and x takes 0 without a BFS.
        into_middle = np.zeros(len(adj.indices) + 1, dtype=np.int64)
        np.cumsum(middle[adj.indices], out=into_middle[1:])
        todo = middle_vars[~frustrated[2 * middle_vars + 2]]
        x_bar = 2 * todo + 3
        alone = into_middle[adj.indptr[x_bar + 1]] == into_middle[adj.indptr[x_bar]]
        for var, lone in zip(todo.tolist(), alone.tolist()):
            if value[2 * var + 2] >= 0:
                continue
            if lone:
                value[2 * var + 2], value[2 * var + 3] = 0, 1
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


def reference_cfat_edges(n: int, c: int) -> tuple[tuple[int, int], ...]:
    """Sorted edges of the c-fat ring graph on n >= 2 vertices, group by
    group: each group is a clique and is joined to the next one on the ring."""
    k = max(1, int(n / (c * math.log(n))))
    base, extra = divmod(n, k)
    sizes = [base + 1] * extra + [base] * (k - extra)
    starts = [0]
    for s in sizes[:-1]:
        starts.append(starts[-1] + s)
    groups = [list(range(starts[g], starts[g] + sizes[g])) for g in range(k)]
    edges = set()
    for g, members in enumerate(groups):
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                edges.add((members[a], members[b]))
        nxt = groups[(g + 1) % k]
        if nxt is not members:
            for u in members:
                for v in nxt:
                    edges.add((u, v) if u < v else (v, u))
    return tuple(sorted(edges))


def reference_set_bits(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending: one lowest bit per step."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def reference_split_vertex(adj, mask: int) -> int:
    """The split vertex of the split-tree node ``mask`` over neighbour
    masks ``adj``: its member with the fewest neighbours inside ``mask``,
    a tie going to the lowest vertex."""
    return min(reference_set_bits(mask), key=lambda u: (adj[u] & mask).bit_count())


def reference_level_union(g, masks: list[int]) -> tuple[IntArrays, list[list[int]]]:
    """The clique problems of the subgraphs of ``g`` on ``masks``, node by
    node (``g.induced`` → ``clique_qubo`` → ``IntArrays.from_qubo``) and
    then ``IntArrays.union``; and each node's sorted members."""
    members = [reference_set_bits(mask) for mask in masks]
    arrs = [IntArrays.from_qubo(clique_qubo(g.induced(m)[0])) for m in members]
    return IntArrays.union(arrs), members


def reference_union_analysis(problems: list[IntArrays]) -> list[PersistencyResult]:
    """Each problem's result from one max flow over the disjoint union of
    ``problems`` (``IntArrays.union``, which needs one scale), split back
    per block by ``split_blocks``, each block's bound from its own posiform
    constant: the block rule that the probe layouts rely on."""
    union = IntArrays.union(problems)
    starts = np.cumsum([0] + [arr.num_vars for arr in problems]).tolist()
    flow = network.max_flow(network.build_network(union))
    strong, weak = extract_labels(flow.residual_adjacency())
    constants = [to_posiform(arr).constant for arr in problems]
    blocks = split_blocks(flow, strong, weak, starts, constants)
    return [
        PersistencyResult(arr.num_vars, s, w, as_coeff(bound))
        for arr, (s, w, bound) in zip(problems, blocks)
    ]


def level_run_union(qi: np.ndarray, qj: np.ndarray, starts: np.ndarray) -> IntArrays:
    """The disjoint union of a split level run's clique problems (−A on
    every variable, B on every pair; the complement-penalty defaults) from
    the run's pairs and block starts, as ``decompose._level`` hands them
    over."""
    enc = CliqueEncodingParams.complement_penalty()
    m = int(starts[-1])
    lin = np.full(m, -enc.A, dtype=np.int64)
    return IntArrays(m, 1, lin, qi, qj, np.full(len(qi), enc.B, dtype=np.int64), 0)


def reference_split_residual(qi, qj, mate) -> list[tuple[int, int]]:
    """The arcs (tail, head) of a split level run's matching residual over
    its 2m + 2 literal nodes (x_u is node 2u + 2, x̄_u node 2u + 3), for
    the run's pairs ``qi`` < ``qj`` and the matching ``mate`` (row u to
    column ``mate[u]``, −1 for none), as seven arc families: s → x_u and
    x̄_u → t unless u is matched on both sides, x_u → s and t → x̄_u if u
    is matched on either side, x_u → x̄_v and x_v → x̄_u on every pair, and
    x̄_v → x_u and x̄_u → x_v where u is matched to v (once where v is also
    matched to u).  The arc list ``decompose._weak_labels`` sorted into a
    CSR before ``decompose._residual`` wrote the rows itself; kept as its
    differential oracle."""
    mate = [int(w) for w in mate]
    sides = [int(w >= 0) for w in mate]
    for w in mate:
        if w >= 0:
            sides[w] += 1
    arcs = []
    for u, side in enumerate(sides):
        if side < 2:
            arcs += [(0, 2 * u + 2), (2 * u + 3, 1)]
        if side > 0:
            arcs += [(2 * u + 2, 0), (1, 2 * u + 3)]
    for u, v in zip(np.asarray(qi).tolist(), np.asarray(qj).tolist()):
        arcs += [(2 * u + 2, 2 * v + 3), (2 * v + 2, 2 * u + 3)]
    for u, v in enumerate(mate):
        if v >= 0 and (mate[v] != u or u < v):
            arcs += [(2 * v + 3, 2 * u + 2), (2 * u + 3, 2 * v + 2)]
    return arcs


def reference_color_order(vertices: list[int], adj) -> tuple[list[int], list[int]]:
    """Greedy coloring; returns vertices ordered by color with bounds.

    The first-fit scan over color classes that ``oracle.exact_max_clique``
    used before it peeled the classes off a bitmask; kept as its
    differential oracle."""
    classes: list[int] = []  # bitmask per color class
    color_of: dict[int, int] = {}
    for v in vertices:
        placed = False
        for ci, cmask in enumerate(classes):
            if not (adj[v] & cmask):
                classes[ci] = cmask | (1 << v)
                color_of[v] = ci
                placed = True
                break
        if not placed:
            color_of[v] = len(classes)
            classes.append(1 << v)
    ordered = sorted(vertices, key=lambda v: color_of[v])
    bounds = [color_of[v] + 1 for v in ordered]
    return ordered, bounds


def reference_add_implications(state, u: int, implied) -> None:
    """``_ProbeState.add_implications`` as four sign cases, one per (b, v);
    the body it had before the penalty came from one product, kept as its
    differential oracle."""
    from quboprep.probing import IMPLICATION_WEIGHT

    if not implied:
        return
    w = state.working()
    n = w.num_vars
    keys = np.array([min(u, j) * n + max(u, j) for _, j, _ in implied], dtype=np.int64)
    have = w.qi * n + w.qj
    at = np.minimum(np.searchsorted(have, keys), max(len(have) - 1, 0))
    existing = np.where(have[at] == keys, w.qv[at], 0) if len(have) else np.zeros_like(keys)
    p = IMPLICATION_WEIGHT * w.scale
    lin = np.zeros(n, dtype=np.int64)
    couplings: list[tuple[int, int]] = []  # (j, value) of a new u–j entry
    offset = 0
    orig_u = state.total.surviving[u]
    for (b, j, v), coupling in zip(implied, existing.tolist()):
        orig_j = state.total.surviving[j]
        if (orig_u, b, orig_j, v) in state._impl_seen:
            continue
        if b == 1 and v == 0:
            if coupling > 0:
                continue  # a co-selection penalty already carries this arc
            couplings.append((j, p))
        elif b == 1 and v == 1:
            if coupling < 0:
                continue
            lin[u] += p
            couplings.append((j, -p))
        elif v == 0:  # b == 0: x_j implies x_u
            if coupling < 0:
                continue
            lin[j] += p
            couplings.append((j, -p))
        else:  # b == 0, v == 1: penalize both zero
            if coupling > 0:
                continue
            offset += IMPLICATION_WEIGHT
            lin[u] -= p
            lin[j] -= p
            couplings.append((j, p))
        state._impl_seen.add((orig_u, b, orig_j, v))
    if not couplings:
        return
    js, vals = (np.array(col, dtype=np.int64) for col in zip(*sorted(couplings)))
    added = IntArrays(n, w.scale, lin, np.minimum(u, js), np.maximum(u, js), vals, offset)
    state.penalty = state.penalty.plus(added)
    state._changed()
