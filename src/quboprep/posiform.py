"""Scaled integer arrays of a QUBO, and their rewrite as a quadratic posiform.

A problem enters the roof-dual pipeline once, through
:meth:`IntArrays.from_qubo`: its coefficients are multiplied by the lcm of
their denominators (so int and Fraction inputs share one path) and stored as
flat int64 arrays, with the offset kept exact.  :func:`to_posiform` rewrites
those arrays as a posiform: an exact constant plus strictly positive terms
over literals x_i / x̄_i, each literal packed into the int code
``2*var + complemented``.  The network layer only concatenates these arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeGuardError
from .model import Coeff, Qubo

# Σ|a|·scale must stay below this: the largest int64 intermediate downstream
# is a doubled arc capacity (residual2 = 2·cap − flow2 in the max-flow layer).
_MAGNITUDE_LIMIT = 2**62


def _denominator_lcm(*groups) -> int:
    """lcm of the denominators of the Fraction coefficients in ``groups``."""
    lcm = 1
    for group in groups:
        for a in group:
            if isinstance(a, Fraction):
                lcm = math.lcm(lcm, a.denominator)
    return lcm


def _scaled(values, scale: int) -> list[int]:
    return list(values) if scale == 1 else [int(a * scale) for a in values]


@dataclass(frozen=True)
class IntArrays:
    """Flat int64 view of a Qubo: coefficients times ``scale``, exact offset.

    ``qi < qj`` on every quadratic entry.
    """

    num_vars: int
    scale: int
    lin: np.ndarray
    qi: np.ndarray
    qj: np.ndarray
    qv: np.ndarray
    offset: Coeff

    @classmethod
    def from_qubo(cls, q: Qubo) -> "IntArrays":
        """Scaled arrays of ``q``; raises SizeGuardError when Σ|a|·scale
        reaches _MAGNITUDE_LIMIT, where int64 arithmetic could wrap."""
        scale = _denominator_lcm(q.linear.values(), q.quadratic.values())
        lin_vals = _scaled(q.linear.values(), scale)
        quad_vals = _scaled(q.quadratic.values(), scale)
        magnitude = sum(map(abs, lin_vals)) + sum(map(abs, quad_vals))
        if magnitude >= _MAGNITUDE_LIMIT:
            raise SizeGuardError(
                f"coefficient magnitude sum {magnitude} (scaled by {scale}) "
                f"reaches the int64 limit 2**62"
            )
        lin = np.zeros(q.num_vars, dtype=np.int64)
        lin[np.fromiter(q.linear.keys(), dtype=np.int64, count=len(lin_vals))] = lin_vals
        if quad_vals:
            keys = np.array(list(q.quadratic.keys()), dtype=np.int64)
            qi, qj = keys[:, 0], keys[:, 1]
            qv = np.array(quad_vals, dtype=np.int64)
        else:
            qi = qj = qv = np.empty(0, dtype=np.int64)
        return cls(q.num_vars, scale, lin, qi, qj, qv, q.offset)


@dataclass(frozen=True)
class Posiform:
    """constant + (Σ lin_vals·lit + Σ quad_vals·lit_u·lit_v) / scale.

    Literal codes are ``2*var + complemented``; ``lin_codes`` holds one code
    per variable at most, ``qu``/``qv`` code pairs of distinct variables.
    All values are positive int64; ``constant`` is exact, in energy units.
    """

    num_vars: int
    scale: int
    constant: Coeff
    lin_codes: np.ndarray
    lin_vals: np.ndarray
    qu: np.ndarray
    qv: np.ndarray
    quad_vals: np.ndarray


def to_posiform(arr: IntArrays) -> Posiform:
    """Equivalent posiform of ``arr`` (pointwise-equal energies).

    Negative quadratic terms are rewritten a·x_i·x_j = a·x_i + (−a)·x_i·x̄_j,
    complementing the higher index; residual negative linear terms become
    constant + positive complemented term.
    """
    lin = arr.lin.copy()
    neg = arr.qv < 0
    if neg.any():
        np.add.at(lin, arr.qi[neg], arr.qv[neg])
    lpos = lin > 0
    lneg = lin < 0
    return Posiform(
        arr.num_vars,
        arr.scale,
        arr.offset + Fraction(int(lin[lneg].sum()), arr.scale),
        lin_codes=np.concatenate([2 * np.nonzero(lpos)[0], 2 * np.nonzero(lneg)[0] + 1]),
        lin_vals=np.concatenate([lin[lpos], -lin[lneg]]),
        qu=2 * arr.qi,
        qv=2 * arr.qj + neg,
        quad_vals=np.abs(arr.qv),
    )
