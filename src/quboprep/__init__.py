"""Roof-duality preprocessing for QUBO/Ising problems.

Shrinks quadratic binary programs by strong/weak persistencies and probing,
encodes Maximum Clique / Maximum Cut, and solves Maximum Clique by a
persistency-aware vertex-splitting decomposition.
"""

from .model import (
    IsingModel,
    Qubo,
    Reduction,
    fix_variables,
    ising_to_qubo,
    read_qubo,
    substitute,
    write_qubo,
)
from .posiform import IntArrays
from .network import FlowResult, ImplicationNetwork, build_network, max_flow
from .persistency import PersistencyResult, analyze, roof_dual
from .probing import ProbeOutcome, probe
from .graphs import Graph, gen_cfat, gen_g, gen_gnp, gen_hamming, gen_u, perturb, read_dimacs, write_dimacs
from .problems import (
    CliqueEncodingParams,
    clique_qubo,
    decode_clique,
    decode_cut,
    maxcut_ising,
)
from .decompose import LeafSolver, SplitStats, max_clique_split
from .oracle import brute_force_qubo, exact_max_clique, exact_max_cut, verify_persistency
from .errors import FormatError, QuboprepError, SizeGuardError, SolverValidationError

__version__ = "0.1.0"

__all__ = [
    "CliqueEncodingParams",
    "FlowResult",
    "FormatError",
    "Graph",
    "ImplicationNetwork",
    "IntArrays",
    "IsingModel",
    "LeafSolver",
    "PersistencyResult",
    "ProbeOutcome",
    "Qubo",
    "QuboprepError",
    "Reduction",
    "SizeGuardError",
    "SolverValidationError",
    "SplitStats",
    "analyze",
    "brute_force_qubo",
    "build_network",
    "clique_qubo",
    "decode_clique",
    "decode_cut",
    "exact_max_clique",
    "exact_max_cut",
    "fix_variables",
    "gen_cfat",
    "gen_g",
    "gen_gnp",
    "gen_hamming",
    "gen_u",
    "ising_to_qubo",
    "max_clique_split",
    "max_flow",
    "maxcut_ising",
    "perturb",
    "probe",
    "read_dimacs",
    "read_qubo",
    "roof_dual",
    "substitute",
    "verify_persistency",
    "write_dimacs",
    "write_qubo",
]
