"""Scaled integer arrays of a QUBO, and their rewrite as a quadratic posiform.

A problem enters the roof-dual pipeline once, through
:meth:`IntArrays.from_qubo`: its coefficients are multiplied by the lcm of
their denominators (so int and Fraction inputs share one path) and stored as
flat int64 arrays, with the offset kept exact.  Probing keeps its working
problem in this form: :meth:`IntArrays.fold` eliminates fixed and
substituted variables, :meth:`IntArrays.plus` adds two problems by a
``searchsorted`` merge, and every result is checked against the same
magnitude limit.  Every constructor keeps the quadratic keys
``qi * num_vars + qj`` strictly increasing and drops zero entries, and the
network layer relies on that order.  :func:`to_posiform` rewrites the
arrays as a posiform: an exact constant plus strictly positive terms over
literals x_i / x̄_i, each literal packed into the int code
``2*var + complemented``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeGuardError
from .model import Coeff, Qubo, as_coeff

# Σ|a|·scale must stay below this: in max flow, caps − flows ≤ an arc's plus its
# reverse's capacity, and residual2 = 2·cap − flow2 ≤ twice that is the largest int64 value.
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


def _guard(magnitude: int, scale: int) -> None:
    if magnitude >= _MAGNITUDE_LIMIT:
        raise SizeGuardError(
            f"coefficient magnitude sum {magnitude} (scaled by {scale}) "
            f"reaches the int64 limit 2**62"
        )


@dataclass(frozen=True)
class IntArrays:
    """Flat int64 view of a Qubo: coefficients times ``scale``, exact offset.

    ``qi < qj`` on every quadratic entry, and the keys ``qi * num_vars + qj``
    strictly increase when the arrays come from the constructors below.
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
        _guard(sum(map(abs, lin_vals)) + sum(map(abs, quad_vals)), scale)
        lin = np.zeros(q.num_vars, dtype=np.int64)
        lin[np.fromiter(q.linear.keys(), dtype=np.int64, count=len(lin_vals))] = lin_vals
        if quad_vals:
            qi, qj = np.array(list(q.quadratic.keys()), dtype=np.int64).T.copy()
            qv = np.array(quad_vals, dtype=np.int64)
        else:
            qi = qj = qv = np.empty(0, dtype=np.int64)
        return cls.merged(q.num_vars, scale, lin, qi, qj, qv, q.offset)

    @classmethod
    def merged(cls, num_vars, scale, lin, qi, qj, qv, offset) -> "IntArrays":
        """Arrays with the entries of equal (qi, qj) summed, zero sums dropped
        and keys sorted; raises SizeGuardError like :meth:`from_qubo`.
        Keys that already strictly increase are only filtered, not sorted.

        Within the limit no int64 sum here wraps: a coefficient of the
        result is bounded by the magnitude of its inputs.
        """
        keys = qi * num_vars + qj
        if (keys[1:] <= keys[:-1]).any():
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            first = np.flatnonzero(np.diff(keys, prepend=-1))
            qv = np.add.reduceat(qv[order], first)
            qi, qj = np.divmod(keys[first], num_vars)
        keep = qv != 0
        if not keep.all():
            qi, qj, qv = qi[keep], qj[keep], qv[keep]
        out = cls(num_vars, scale, lin, qi, qj, qv, offset)
        # The float sum is within a relative 1e-9 of the exact one, so below
        # 2**61 the exact sum is below the limit; above it, Python ints
        # recompute it without wrapping.
        if np.abs(lin, dtype=np.float64).sum() + np.abs(out.qv, dtype=np.float64).sum() >= 2**61:
            _guard(sum(map(abs, lin.tolist())) + sum(map(abs, out.qv.tolist())), scale)
        return out

    def plus(self, other: "IntArrays") -> "IntArrays":
        """The sum of two problems over the same variables and scale: the
        entries of ``other`` are added where ``self`` has their key and
        inserted in key order where it does not."""
        n = self.num_vars
        mine, theirs = self.qi * n + self.qj, other.qi * n + other.qj
        at = np.searchsorted(mine, theirs)
        same = at < len(mine)
        same[same] = mine[at[same]] == theirs[same]
        qv = self.qv.copy()
        qv[at[same]] += other.qv[same]
        new = ~same
        at = at[new]
        return IntArrays.merged(
            n,
            self.scale,
            self.lin + other.lin,
            np.insert(self.qi, at, other.qi[new]),
            np.insert(self.qj, at, other.qj[new]),
            np.insert(qv, at, other.qv[new]),
            self.offset + other.offset,
        )

    def fold(
        self, fixed: Mapping[int, int], subs: Mapping[int, tuple[int, bool]]
    ) -> tuple["IntArrays", Coeff]:
        """Array twin of :func:`quboprep.model._fold`: (reduced arrays, delta).

        Variable k becomes c_k + s_k·y_{t_k} over the survivors y, ordered
        by index: (v, 0, -) when fixed to v, (0, 1, t_i) or (1, -1, t_i) when
        substituted by x_i or 1 - x_i.  A term a·x_i·x_j expands to
        a·c_i·c_j (into ``delta``), a·s_i·c_j·y_{t_i} and a·c_i·s_j·y_{t_j}
        (linear) and a·s_i·s_j·y_{t_i}·y_{t_j}, which is linear when
        t_i = t_j.  The offset is kept; ``delta`` is exact.
        """
        n = self.num_vars
        c = np.zeros(n, dtype=np.int64)
        s = np.ones(n, dtype=np.int64)
        gone = np.zeros(n, dtype=bool)
        if fixed:
            idx = np.fromiter(fixed.keys(), dtype=np.int64, count=len(fixed))
            c[idx] = np.fromiter(fixed.values(), dtype=np.int64, count=len(fixed))
            s[idx] = 0
            gone[idx] = True
        sub_j = np.fromiter(subs.keys(), dtype=np.int64, count=len(subs))
        gone[sub_j] = True
        m = n - int(gone.sum())
        t = np.zeros(n, dtype=np.int64)
        t[~gone] = np.arange(m)
        if len(subs):
            targets = np.array([(i, comp) for i, comp in subs.values()], dtype=np.int64)
            t[sub_j] = t[targets[:, 0]]
            c[sub_j] = targets[:, 1]
            s[sub_j] = 1 - 2 * targets[:, 1]

        lin, qi, qj, qv = self.lin, self.qi, self.qj, self.qv
        ci, si, ti, cj, sj, tj = c[qi], s[qi], t[qi], c[qj], s[qj], t[qj]
        delta = int(lin @ c) + int(qv @ (ci * cj))
        vi, vj, vq = qv * si * cj, qv * ci * sj, qv * si * sj
        pair = (vq != 0) & (ti != tj)
        same = (vq != 0) & (ti == tj)
        lin_at = np.concatenate([t[s != 0], ti[vi != 0], tj[vj != 0], ti[same]])
        lin_add = np.concatenate([(lin * s)[s != 0], vi[vi != 0], vj[vj != 0], vq[same]])
        new_lin = np.zeros(m, dtype=np.int64)
        np.add.at(new_lin, lin_at, lin_add)
        a, b = ti[pair], tj[pair]
        out = IntArrays.merged(
            m, self.scale, new_lin, np.minimum(a, b), np.maximum(a, b), vq[pair], self.offset
        )
        return out, as_coeff(Fraction(delta, self.scale))


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


def posiform_lin(arr: IntArrays) -> np.ndarray:
    """The linear part of ``arr`` once the posiform rewrite has moved each
    negative coupling a·x_i·x_j onto its lower index: a·x_i + (−a)·x_i·x̄_j."""
    lin = arr.lin.copy()
    neg = arr.qv < 0
    if neg.any():
        np.add.at(lin, arr.qi[neg], arr.qv[neg])
    return lin


def to_posiform(arr: IntArrays) -> Posiform:
    """Equivalent posiform of ``arr`` (pointwise-equal energies).

    Negative quadratic terms are rewritten as in :func:`posiform_lin`,
    complementing the higher index; residual negative linear terms become
    constant + positive complemented term.
    """
    lin = posiform_lin(arr)
    neg = arr.qv < 0
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
