"""The benchmark's workloads: input generators, operations and output checks.

Every operation gets a freshly built input, made from a per-operation seed
outside the timed region (``Graph.adjacency`` and ``adjacency_bits`` are
cached on the instance, so a reused graph would make later operations
cheaper than the first).  Each workload has one fixed graph (random families
are generated with seed 0), and the seed of an operation is a random
relabelling of its vertices: the order in which probing and splitting visit
variables changes, while the amount of work stays comparable from run to run.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from quboprep import (
    CliqueEncodingParams,
    Graph,
    clique_qubo,
    decode_clique,
    exact_max_clique,
    gen_cfat,
    gen_g,
    gen_gnp,
    gen_hamming,
    max_clique_split,
    probe,
)
from quboprep.decompose import default_leaf_solver
from quboprep.experiments import degree_to_density_pct, problem_qubo

CFAT_N, CFAT_C = 100, 1
GCUT_N, GCUT_DEGREE, GCUT_SEED = 200, 5.0, 0
SPLIT_N, SPLIT_P, SPLIT_SEED, SPLIT_THRESHOLD = 70, 3200 / 4950, 0, 15
HAMMING_BITS, HAMMING_D, RATIONAL_B = 6, 4, Fraction(3, 2)


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


@dataclass
class Instance:
    graph: Graph
    qubo: object = None  # the encoded Qubo; None for the split workload


def op_seed(seed: int, k: int) -> int:
    """Seed of the k-th operation of a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def relabel(g: Graph, seed: int) -> Graph:
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def fresh(g: Graph) -> Graph:
    """A copy of ``g`` without cached adjacency."""
    return Graph(g.n, g.edges)


# --- inputs ------------------------------------------------------------------


def build_cfat(seed: int) -> Instance:
    g = relabel(gen_cfat(CFAT_N, CFAT_C), seed)
    return Instance(g, clique_qubo(fresh(g)))


def build_gcut(seed: int) -> Instance:
    g = relabel(gen_g(GCUT_N, degree_to_density_pct(GCUT_N, GCUT_DEGREE), GCUT_SEED), seed)
    return Instance(g, problem_qubo(fresh(g), "cut"))


def build_split(seed: int) -> Instance:
    return Instance(relabel(gen_gnp(SPLIT_N, SPLIT_P, SPLIT_SEED), seed))


def build_rational(seed: int) -> Instance:
    g = relabel(gen_hamming(HAMMING_BITS, HAMMING_D), seed)
    params = CliqueEncodingParams.complement_penalty(B=RATIONAL_B)
    return Instance(g, clique_qubo(fresh(g), params))


# --- operations ----------------------------------------------------------------


def run_probe(inst: Instance, tracer=None):
    fn = probe if tracer is None else tracer.span("probing.probe", probe)
    return fn(inst.qubo)


def run_split(inst: Instance, tracer=None):
    """fig3-style row: the split solver with, then without, persistency."""
    fn = max_clique_split
    if tracer is not None:
        fn = tracer.span("decompose.max_clique_split", fn)
    solver = default_leaf_solver(SPLIT_THRESHOLD)
    with_p = fn(inst.graph, solver, use_persistency=True)
    without_p = fn(fresh(inst.graph), solver, use_persistency=False)
    return with_p, without_p


# --- checks --------------------------------------------------------------------


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _lifted_zeros(q, out):
    """Lift of the all-zero reduced assignment; checks the energy identity."""
    red = out.reduction
    y = [0] * red.reduced.num_vars
    x = red.lift(y)
    energy = q.energy(x)
    _require(
        energy == red.reduced.energy(y) + red.delta,
        "lifted energy differs from reduced energy + delta",
    )
    return x, energy


def _lifted_clique(g: Graph, red) -> tuple[int, ...]:
    """A full assignment in the image of ``red.lift`` that is a maximum
    clique whenever the reduction kept an optimum."""
    m = red.reduced.num_vars
    if m == 0:
        return red.lift(())
    if not red.substitutions:
        # Only fixes: complete the fixed-to-1 vertices by a maximum clique of
        # the surviving vertices adjacent to all of them.
        ones = [v for v, val in red.fixed.items() if val]
        allowed = [v for v in red.surviving if all(g.has_edge(v, o) for o in ones)]
        sub, labels = g.induced(allowed)
        chosen = {labels[i] for i in exact_max_clique(sub)}
        return red.lift([int(v in chosen) for v in red.surviving])
    raise CheckFailed(f"cannot verify: {m} free variables left after substitutions")


def check_probe_clique(inst: Instance, out) -> None:
    g = fresh(inst.graph)
    omega = len(exact_max_clique(g))
    _lifted_zeros(inst.qubo, out)
    _require(out.bound <= -omega, f"bound {out.bound} above the optimum {-omega}")
    support, is_clique = decode_clique(g, _lifted_clique(g, out.reduction))
    _require(is_clique, "lifted assignment is not a clique")
    _require(len(support) == omega, f"lifted clique has size {len(support)}, omega is {omega}")


def check_probe_cut(inst: Instance, out) -> None:
    _, energy = _lifted_zeros(inst.qubo, out)
    _require(out.bound <= energy, f"bound {out.bound} above a feasible energy {energy}")


def check_split(inst: Instance, result) -> None:
    g = fresh(inst.graph)
    omega = len(exact_max_clique(g))
    for mode, (clique, _) in zip(("with", "without"), result):
        _require(g.is_clique(clique), f"{mode} persistency: not a clique")
        _require(len(clique) == omega, f"{mode} persistency: size {len(clique)}, omega is {omega}")


# --- per-operation counts --------------------------------------------------------


def probe_counts(out) -> dict[str, float]:
    return {
        "probing.passes": out.passes,
        "probing.fixed": len(out.fixed),
        "probing.relations": len(out.relations),
        "probing.resolved": out.resolved,
        "probing.resolved_pct": out.probe_pct,
    }


def split_counts(result) -> dict[str, float]:
    (_, with_stats), (_, without_stats) = result
    return {
        "decompose.leaf_calls": with_stats.n_calls,
        "decompose.leaf_calls_plain": without_stats.n_calls,
        "decompose.eliminated": with_stats.vertices_eliminated_by_persistency,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Instance]
    run: Callable
    check: Callable
    counts: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("probe-cfat", build_cfat, run_probe, check_probe_clique, probe_counts),
        Workload("probe-gcut", build_gcut, run_probe, check_probe_cut, probe_counts),
        Workload("split-dense", build_split, run_split, check_split, split_counts),
        Workload("probe-rational", build_rational, run_probe, check_probe_clique, probe_counts),
    )
}
