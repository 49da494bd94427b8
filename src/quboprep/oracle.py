"""Independent exact solvers used as ground truth.

Nothing here touches the posiform/network pipeline: QUBO minimization is
plain enumeration over assignment chunks, Maximum Clique is a bitset
branch-and-bound whose coloring bound peels color classes off the candidate
mask, Maximum Cut is enumeration.  Size guards are hard errors; a silently
degraded oracle would invalidate every acceptance run built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeGuardError
from .model import Coeff, Qubo, as_coeff
from .graphs import Graph, set_bits

BRUTE_FORCE_MAX_VARS = 25
MAX_CUT_MAX_VARS = 25
_CHUNK_BITS = 18
_ENERGY_LIMIT = 2**62


def _scaled_int_arrays(q: Qubo):
    """Linear/quadratic coefficient arrays times the denominator lcm.

    Raises SizeGuardError unless Σ|a|·denom + |offset·denom| < 2**62, which
    bounds every energy the enumeration sums in int64.
    """
    coeffs = (*q.linear.values(), *q.quadratic.values(), q.offset)
    denom = math.lcm(*(a.denominator for a in coeffs))
    lin_vals = {i: int(a * denom) for i, a in q.linear.items()}
    pair_list = sorted(q.quadratic)
    quad_vals = [int(q.quadratic[p] * denom) for p in pair_list]
    off = int(q.offset * denom)
    magnitude = sum(map(abs, lin_vals.values())) + sum(map(abs, quad_vals)) + abs(off)
    if magnitude >= _ENERGY_LIMIT:
        raise SizeGuardError(f"brute_force_qubo needs scaled |coefficient| sum < 2**62, got {magnitude}")
    lin = np.zeros(q.num_vars, dtype=np.int64)
    for i, a in lin_vals.items():
        lin[i] = a
    pairs = np.array(pair_list, dtype=np.int64).reshape(-1, 2)
    quad = np.array(quad_vals, dtype=np.int64)
    return denom, lin, pairs, quad, off


def brute_force_qubo(
    q: Qubo, enumerate_all: bool = False
) -> tuple[Coeff, list[tuple[int, ...]]]:
    """Exact minimum by full enumeration (num_vars <= 25, hard guard).

    Returns (min energy, minimizers); the minimizer list is complete when
    ``enumerate_all``, otherwise holds a single argmin.
    """
    n = q.num_vars
    if n > BRUTE_FORCE_MAX_VARS:
        raise SizeGuardError(f"brute_force_qubo limited to {BRUTE_FORCE_MAX_VARS} variables, got {n}")
    if n == 0:
        return q.offset, [()]
    denom, lin, pairs, quad, off = _scaled_int_arrays(q)
    best = None
    argmins: list[int] = []
    var_idx = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, 1 << _CHUNK_BITS):
        stop = min(start + (1 << _CHUNK_BITS), 1 << n)
        codes = np.arange(start, stop, dtype=np.int64)
        bits = ((codes[:, None] >> var_idx[None, :]) & 1).astype(np.int64)
        energy = bits @ lin + off
        if len(quad):
            energy += (bits[:, pairs[:, 0]] & bits[:, pairs[:, 1]]) @ quad
        chunk_min = int(energy.min())
        if best is None or chunk_min < best:
            best = chunk_min
            argmins = []
        if chunk_min == best:
            hits = codes[energy == best]
            if enumerate_all:
                argmins.extend(int(h) for h in hits)
            elif not argmins:
                argmins = [int(hits[0])]
    assert best is not None
    minimum = as_coeff(Fraction(best, denom))
    assignments = [tuple((code >> i) & 1 for i in range(n)) for code in argmins]
    return minimum, assignments


def _greedy_clique(adj, cand: int) -> int:
    """Bitmask of a clique greedily grown within ``cand`` (initial lower
    bound), from each of the 8 vertices of highest degree within ``cand``
    (ties by index).  A clique grown from a seed is at most one larger than
    the seed's degree, and only a larger clique replaces the best one, so
    the seeds stop once the best clique outgrows the next seed's degree."""
    members = set_bits(cand)
    degrees = [(adj[v] & cand).bit_count() for v in members]
    best = 0
    for k in sorted(range(len(members)), key=degrees.__getitem__, reverse=True)[:8]:
        if best.bit_count() > degrees[k]:
            break
        seed = members[k]
        mask, grow = 1 << seed, adj[seed] & cand
        while grow:
            low = grow & -grow
            mask |= low
            grow &= adj[low.bit_length() - 1]
        if mask.bit_count() > best.bit_count():
            best = mask
    return best


def _color_order(cand: int, outside, floor: int) -> tuple[list[int], list[int]]:
    """Greedy coloring: the vertices of ``cand`` ordered by color, with color
    counts as bounds, leaving out colors up to ``floor``.  Each class is peeled
    off what is left: take the lowest vertex v, keep ``outside[v]`` (neither v
    nor a neighbour), repeat.  These are first-fit's classes over the vertices
    in ascending order."""
    ordered, bounds, color = [], [], 0
    while cand:
        color += 1
        q = cand
        while q:
            low = q & -q
            cand ^= low
            v = low.bit_length() - 1
            q &= outside[v]
            if color > floor:
                ordered.append(v)
        bounds += [color] * (len(ordered) - len(bounds))
    return ordered, bounds


def max_clique_within(adj, outside, cand: int, need: int = 0) -> int:
    """Bitmask of a maximum clique among the vertices of ``cand``, by
    branch-and-bound with a greedy-coloring bound, the color classes peeled
    off each node's candidate bitmask.

    ``adj[v]`` is v's neighbour bitmask and ``outside[v]`` is ``~(adj[v] |
    1 << v)``.  Only the bits of ``cand`` are read, in ascending order, so a
    subgraph's clique comes out of its parent's masks as it comes out of its
    own, relabelled.

    A positive ``need`` bounds the search by the clique it has to beat: it
    starts from the bound ``need - 1``, with no greedy clique, and returns 0
    when ``cand`` holds no clique of ``need`` vertices.  Otherwise the
    unbounded search runs, so a clique that is returned is the one that
    ``need <= 0`` returns.  The split solver bounds each leaf this way and
    still counts every leaf in ``SplitStats.n_calls``; a custom leaf solver
    gets no bound and still sees every leaf."""
    if need > 0:
        best_mask, best_size = 0, need - 1
    else:
        best_mask = _greedy_clique(adj, cand)
        best_size = best_mask.bit_count()

    def expand(cand_mask: int, current_mask: int, size: int) -> None:
        nonlocal best_mask, best_size
        # A vertex of color <= best_size - size cannot lead to a larger clique.
        ordered, bounds = _color_order(cand_mask, outside, best_size - size)
        for k in range(len(ordered) - 1, -1, -1):
            if size + bounds[k] <= best_size:
                return
            v = ordered[k]
            new_mask = current_mask | (1 << v)
            new_cand = cand_mask & adj[v]
            if new_cand:
                expand(new_cand, new_mask, size + 1)
            elif size + 1 > best_size:
                best_mask, best_size = new_mask, size + 1
            cand_mask &= ~(1 << v)

    if cand:
        expand(cand, 0, 0)
    if need > 0:
        return max_clique_within(adj, outside, cand) if best_mask else 0
    if any(best_mask & outside[v] for v in set_bits(best_mask)):
        raise AssertionError("branch-and-bound produced a non-clique")
    return best_mask


def exact_max_clique(g: Graph) -> tuple[int, ...]:
    """A maximum clique of ``g``: :func:`max_clique_within` on all of it."""
    adj = g.adjacency_bits
    outside = [~(a | 1 << v) for v, a in enumerate(adj)]
    return tuple(set_bits(max_clique_within(adj, outside, (1 << g.n) - 1)))


def exact_max_cut(g: Graph) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Exhaustive Maximum Cut (n <= 25, hard guard)."""
    if g.n > MAX_CUT_MAX_VARS:
        raise SizeGuardError(f"exact_max_cut limited to {MAX_CUT_MAX_VARS} vertices, got {g.n}")
    if g.n == 0:
        return ((), ()), 0
    if g.n == 1:
        return (((0,), ())), 0
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    best_cut = -1
    best_code = 0
    # Vertex 0 pinned to side 0; complements give the same cut.
    half = 1 << (g.n - 1)
    for start in range(0, half, 1 << _CHUNK_BITS):
        stop = min(start + (1 << _CHUNK_BITS), half)
        codes = np.arange(start, stop, dtype=np.int64) << 1
        if len(ends):
            sides_u = (codes[:, None] >> ends[None, :, 0]) & 1
            sides_v = (codes[:, None] >> ends[None, :, 1]) & 1
            cuts = (sides_u != sides_v).sum(axis=1)
        else:
            cuts = np.zeros(len(codes), dtype=np.int64)
        k = int(cuts.argmax())
        if int(cuts[k]) > best_cut:
            best_cut = int(cuts[k])
            best_code = int(codes[k])
    side1 = tuple(v for v in range(g.n) if best_code >> v & 1)
    side0 = tuple(v for v in range(g.n) if not best_code >> v & 1)
    return (side0, side1), best_cut


@dataclass(frozen=True)
class PersistencyReport:
    """Outcome of checking persistency claims against all minimizers."""

    ok: bool
    num_minimizers: int
    strong_violations: tuple[str, ...] = ()
    weak_satisfied: bool = True
    detail: str = ""


def verify_persistency(q: Qubo, result) -> PersistencyReport:
    """Enumerate all minimizers of ``q`` and check a persistency claim.

    ``result`` may be a PersistencyResult (strong/weak maps) or a
    ProbeOutcome (fixed map plus relations).  Strong claims must hold in
    every minimizer; the weak/probe assignment must hold simultaneously in
    at least one.
    """
    if q.num_vars > BRUTE_FORCE_MAX_VARS:
        raise SizeGuardError(f"verification limited to {BRUTE_FORCE_MAX_VARS} variables")
    _, minimizers = brute_force_qubo(q, enumerate_all=True)

    strong = getattr(result, "strong", {})
    violations = []
    for var, val in sorted(strong.items()):
        bad = [m for m in minimizers if m[var] != val]
        if bad:
            violations.append(
                f"strong x{var}={val} violated by {len(bad)}/{len(minimizers)} minimizers"
            )

    if hasattr(result, "relations"):  # ProbeOutcome
        fixed = result.fixed

        def agrees(m) -> bool:
            if any(m[var] != val for var, val in fixed.items()):
                return False
            return all(
                m[j] == (1 - m[i] if comp else m[i])
                for j, i, comp in result.relations
            )

    else:
        weak = result.weak

        def agrees(m) -> bool:
            return all(m[var] == val for var, val in weak.items())

    weak_ok = any(agrees(m) for m in minimizers)
    ok = not violations and weak_ok
    detail = "" if ok else "; ".join(violations) or "no minimizer matches the weak/probe assignment"
    return PersistencyReport(
        ok=ok,
        num_minimizers=len(minimizers),
        strong_violations=tuple(violations),
        weak_satisfied=weak_ok,
        detail=detail,
    )
