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
    qubo_to_ising,
    read_qubo,
    substitute,
    write_qubo,
)
from .posiform import IntArrays, Posiform, to_posiform
from .network import FlowResult, ImplicationNetwork, build_network, max_flow, roof_dual
from .persistency import PersistencyResult, analyze
from .probing import ProbeOutcome, probe
from .graphs import Graph, gen_cfat, gen_g, gen_gnp, gen_hamming, gen_u, perturb, read_dimacs, write_dimacs
from .problems import (
    CliqueEncodingParams,
    clique_qubo,
    cut_from_ising_energy,
    decode_clique,
    decode_cut,
    maxcut_ising,
    maxcut_qubo,
)
from .decompose import LeafSolver, SplitStats, max_clique_split, splitting_savings
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
    "Posiform",
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
    "cut_from_ising_energy",
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
    "maxcut_qubo",
    "perturb",
    "probe",
    "qubo_to_ising",
    "read_dimacs",
    "read_qubo",
    "roof_dual",
    "splitting_savings",
    "substitute",
    "to_posiform",
    "verify_persistency",
    "write_dimacs",
    "write_qubo",
]
