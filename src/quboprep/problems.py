"""QUBO/Ising encodings of Maximum Clique and Maximum Cut, plus decoders."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import Coeff, IsingModel, Qubo, _check_values, as_coeff, spins_to_binary
from .graphs import Graph

COMPLEMENT_PENALTY = "complement-penalty"
FIXED_SIZE = "fixed-size"


@dataclass(frozen=True)
class CliqueEncodingParams:
    """Weights for the two Maximum Clique QUBO variants.

    complement-penalty: H = -A sum x_v + B sum_{(u,v) in complement} x_u x_v
    (defaults A=1, B=2); minimizers are exactly the maximum cliques.

    fixed-size: H = A(K - sum x_v)^2 + B(C(K,2) - sum_{(u,v) in E} x_u x_v)
    with defaults A=K+1, B=1; H == 0 exactly on cliques of size K.
    """

    variant: str = COMPLEMENT_PENALTY
    A: Coeff = 1
    B: Coeff = 2
    K: int | None = None

    @classmethod
    def complement_penalty(cls, A=1, B=2) -> "CliqueEncodingParams":
        return cls(COMPLEMENT_PENALTY, as_coeff(A), as_coeff(B), None)

    @classmethod
    def fixed_size(cls, K: int, A=None, B=1) -> "CliqueEncodingParams":
        if K < 1:
            raise ValueError("K must be >= 1")
        if A is None:
            A = K + 1
        return cls(FIXED_SIZE, as_coeff(A), as_coeff(B), K)

    def __post_init__(self):
        if self.variant not in (COMPLEMENT_PENALTY, FIXED_SIZE):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.A <= 0 or self.B <= 0:
            raise ValueError("penalty weights must be positive")
        if self.variant == FIXED_SIZE and (self.K is None or self.K < 1):
            raise ValueError("fixed-size encoding needs K >= 1")


def clique_qubo(g: Graph, params: CliqueEncodingParams | None = None) -> Qubo:
    """Encode Maximum Clique on ``g`` per ``params`` (complement-penalty by
    default).  For the fixed-size variant, K must not exceed the vertex
    count."""
    if params is None:
        params = CliqueEncodingParams.complement_penalty()
    if params.variant == COMPLEMENT_PENALTY:
        linear = {v: -params.A for v in range(g.n)}
        quadratic = {e: params.B for e in g.complement().edges}
        return Qubo.from_terms(g.n, linear, quadratic, 0)
    K, A, B = params.K, params.A, params.B
    if K > g.n:
        raise ValueError(f"K={K} exceeds vertex count {g.n}")
    # A(K - sum x)^2 expands to A*K^2 - (2K-1)A sum x + 2A sum_{u<v} x_u x_v.
    linear = {v: -A * (2 * K - 1) for v in range(g.n)}
    quadratic: dict[tuple[int, int], Coeff] = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            quadratic[(u, v)] = 2 * A
    for e in g.edges:
        quadratic[e] = quadratic[e] - B
    offset = A * K * K + B * (K * (K - 1) // 2)
    return Qubo.from_terms(g.n, linear, quadratic, offset)


def maxcut_qubo(g: Graph) -> Qubo:
    """Maximum Cut as minimization: energy -cut(x), so min energy = -maxcut."""
    linear = {v: -g.degree(v) for v in range(g.n) if g.degree(v)}
    quadratic = {e: 2 for e in g.edges}
    return Qubo.from_terms(g.n, linear, quadratic, 0)


def maxcut_ising(g: Graph) -> IsingModel:
    """Maximum Cut Ising form: minimize sum_{(u,v) in E} s_u s_v.

    cut = (|E| - energy) / 2 for any spin assignment.
    """
    return IsingModel.from_terms(g.n, {}, {e: 1 for e in g.edges}, 0)


def cut_from_ising_energy(g: Graph, energy: Coeff) -> Coeff:
    return as_coeff(Fraction(g.num_edges - energy, 2))


def decode_clique(g: Graph, assignment) -> tuple[tuple[int, ...], bool]:
    """Support of a binary assignment and whether it induces a clique."""
    values = _check_values(assignment, g.n, "binary")
    support = tuple(v for v in range(g.n) if values[v])
    return support, g.is_clique(support)


def decode_cut(g: Graph, assignment) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Partition named by an assignment (binary or spin) and its cut value."""
    values = _side_values(assignment, g.n)
    side0 = tuple(v for v in range(g.n) if not values[v])
    side1 = tuple(v for v in range(g.n) if values[v])
    cut = sum(1 for u, v in g.edges if values[u] != values[v])
    return (side0, side1), cut


def _side_values(assignment, n: int) -> Sequence[int]:
    if len(assignment) != n:
        raise ValueError(f"assignment length {len(assignment)} != {n}")
    if all(v in (0, 1) for v in assignment):
        return assignment
    if all(v in (-1, 1) for v in assignment):
        return spins_to_binary(assignment)
    raise ValueError("assignment must be binary (0/1) or spin (-1/+1)")
