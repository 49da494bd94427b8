"""Exact sparse QUBO and Ising representations with reductions.

Coefficients are kept exact: plain Python ints, or ``fractions.Fraction``
when a value is not integral.  All operations return new values; nothing is
mutated after construction.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TextIO, Union

from .errors import FormatError

Coeff = Union[int, Fraction]


def as_coeff(value) -> Coeff:
    """Normalize a number to an exact coefficient (int when integral)."""
    if isinstance(value, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("coefficient must be finite")
        value = Fraction(value)  # exact binary expansion
    if isinstance(value, str):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"unsupported coefficient type: {type(value).__name__}")


def canonical_pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _check_values(values, num_vars: int, kind: str) -> Sequence[int]:
    if len(values) != num_vars:
        raise ValueError(f"assignment length {len(values)} != num_vars {num_vars}")
    domain = (0, 1) if kind == "binary" else (-1, 1)
    for v in values:
        if v not in domain:
            raise ValueError(f"value {v} outside {kind} domain {domain}")
    return values


def _canonicalize(
    num_vars: int,
    linear: Mapping[int, Coeff] | None,
    quadratic: Mapping[tuple[int, int], Coeff] | None,
):
    lin: dict[int, Coeff] = {}
    for i, a in (linear or {}).items():
        if not 0 <= i < num_vars:
            raise ValueError(f"linear index {i} out of range for {num_vars} variables")
        a = as_coeff(a)
        if a != 0:
            acc = lin.get(i, 0) + a
            if acc:
                lin[i] = acc
            else:
                lin.pop(i, None)
    quad: dict[tuple[int, int], Coeff] = {}
    for (i, j), a in (quadratic or {}).items():
        if i == j:
            raise ValueError(f"quadratic key ({i},{j}) pairs a variable with itself")
        if not (0 <= i < num_vars and 0 <= j < num_vars):
            raise ValueError(f"quadratic key ({i},{j}) out of range")
        a = as_coeff(a)
        if a == 0:
            continue
        key = canonical_pair(i, j)
        acc = quad.get(key, 0) + a
        if acc:
            quad[key] = acc
        else:
            quad.pop(key, None)
    return lin, quad


@dataclass(frozen=True)
class Qubo:
    """minimize  offset + sum a_i x_i + sum_{i<j} a_ij x_i x_j,  x in {0,1}^N.

    ``linear`` and ``quadratic`` hold only nonzero coefficients; quadratic
    keys are canonical (i < j).  Use :meth:`from_terms` to build from raw,
    possibly duplicated input.
    """

    num_vars: int
    linear: dict[int, Coeff] = field(default_factory=dict)
    quadratic: dict[tuple[int, int], Coeff] = field(default_factory=dict)
    offset: Coeff = 0

    @classmethod
    def from_terms(cls, num_vars, linear=None, quadratic=None, offset=0) -> "Qubo":
        lin, quad = _canonicalize(num_vars, linear, quadratic)
        return cls(num_vars, lin, quad, as_coeff(offset))

    @property
    def num_terms(self) -> int:
        """Stored nonzero coefficient count (the default "QUBO size")."""
        return len(self.linear) + len(self.quadratic)

    @property
    def dense_size(self) -> int:
        """num_vars**2, the dense-matrix size some benchmarks report."""
        return self.num_vars * self.num_vars

    def energy(self, values) -> Coeff:
        values = _check_values(values, self.num_vars, "binary")
        e = self.offset
        for i, a in self.linear.items():
            if values[i]:
                e += a
        for (i, j), a in self.quadratic.items():
            if values[i] and values[j]:
                e += a
        return e


@dataclass(frozen=True)
class IsingModel:
    """minimize  offset + sum h_i s_i + sum_{i<j} J_ij s_i s_j,  s in {-1,+1}^N."""

    num_vars: int
    h: dict[int, Coeff] = field(default_factory=dict)
    j: dict[tuple[int, int], Coeff] = field(default_factory=dict)
    offset: Coeff = 0

    @classmethod
    def from_terms(cls, num_vars, h=None, j=None, offset=0) -> "IsingModel":
        lin, quad = _canonicalize(num_vars, h, j)
        return cls(num_vars, lin, quad, as_coeff(offset))

    @property
    def num_terms(self) -> int:
        return len(self.h) + len(self.j)

    def energy(self, values) -> Coeff:
        values = _check_values(values, self.num_vars, "spin")
        e = self.offset
        for i, a in self.h.items():
            e += a * values[i]
        for (i, k), a in self.j.items():
            e += a * values[i] * values[k]
        return e


def ising_to_qubo(m: IsingModel) -> Qubo:
    """Convert via s_i = 2 x_i - 1 (equivalently x_i = (s_i + 1)/2).

    Energies agree exactly on corresponding assignments.
    """
    lin: dict[int, Coeff] = {}
    quad: dict[tuple[int, int], Coeff] = {}
    offset = m.offset
    for i, h in m.h.items():
        lin[i] = lin.get(i, 0) + 2 * h
        offset -= h
    for (i, j), c in m.j.items():
        quad[(i, j)] = quad.get((i, j), 0) + 4 * c
        lin[i] = lin.get(i, 0) - 2 * c
        lin[j] = lin.get(j, 0) - 2 * c
        offset += c
    return Qubo.from_terms(m.num_vars, lin, quad, offset)


def qubo_to_ising(q: Qubo) -> IsingModel:
    """Convert via x_i = (s_i + 1)/2; inverse of :func:`ising_to_qubo`."""
    h: dict[int, Coeff] = {}
    jj: dict[tuple[int, int], Coeff] = {}
    offset = Fraction(q.offset)
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    for i, a in q.linear.items():
        h[i] = h.get(i, 0) + a * half
        offset += a * half
    for (i, j), a in q.quadratic.items():
        jj[(i, j)] = jj.get((i, j), 0) + a * quarter
        h[i] = h.get(i, 0) + a * quarter
        h[j] = h.get(j, 0) + a * quarter
        offset += a * quarter
    return IsingModel.from_terms(q.num_vars, h, jj, offset)


def spins_to_binary(values: Sequence[int]) -> tuple[int, ...]:
    return tuple((s + 1) // 2 for s in values)


@dataclass(frozen=True)
class Reduction:
    """Record of how an original QUBO maps onto a smaller one.

    ``fixed``, the domain of ``substitutions`` and ``surviving`` partition the
    original variable indices.  Substitution targets are always surviving
    original indices.  For any assignment y of ``reduced``::

        original.energy(lift(y)) == reduced.energy(y) + delta
    """

    original_num_vars: int
    fixed: dict[int, int]
    substitutions: dict[int, tuple[int, bool]]
    surviving: tuple[int, ...]
    reduced: Qubo
    delta: Coeff = 0

    @classmethod
    def identity(cls, q: Qubo) -> "Reduction":
        return cls(q.num_vars, {}, {}, tuple(range(q.num_vars)), q, 0)

    def lift(self, values) -> tuple[int, ...]:
        """Expand an assignment of the reduced problem to the original one."""
        values = _check_values(values, self.reduced.num_vars, "binary")
        full = [0] * self.original_num_vars
        pos = {orig: k for k, orig in enumerate(self.surviving)}
        for orig, k in pos.items():
            full[orig] = values[k]
        for orig, v in self.fixed.items():
            full[orig] = v
        for orig, (target, complemented) in self.substitutions.items():
            base = full[target]
            full[orig] = 1 - base if complemented else base
        return tuple(full)

    def compose(self, second: "Reduction") -> "Reduction":
        """Chain a reduction of ``self.reduced`` into one of the original."""
        if second.original_num_vars != self.reduced.num_vars:
            raise ValueError("second reduction does not match reduced problem")
        fixed = dict(self.fixed)
        for sub_idx, v in second.fixed.items():
            fixed[self.surviving[sub_idx]] = v
        subs: dict[int, tuple[int, bool]] = {}
        for sub_j, (sub_i, comp) in second.substitutions.items():
            subs[self.surviving[sub_j]] = (self.surviving[sub_i], comp)
        # Re-resolve earlier substitutions whose target was consumed by `second`.
        for orig_j, (orig_i, comp) in self.substitutions.items():
            if orig_i in fixed:
                fixed_val = fixed[orig_i]
                fixed[orig_j] = 1 - fixed_val if comp else fixed_val
            elif orig_i in subs:
                tgt, comp2 = subs[orig_i]
                subs[orig_j] = (tgt, comp ^ comp2)
            else:
                subs[orig_j] = (orig_i, comp)
        for orig_j in list(subs):
            if orig_j in fixed:  # happens only on malformed input
                raise ValueError("substituted variable also fixed")
        surviving = tuple(self.surviving[k] for k in second.surviving)
        return Reduction(
            self.original_num_vars,
            fixed,
            subs,
            surviving,
            second.reduced,
            self.delta + second.delta,
        )


def _fold(
    q: Qubo, fixed: Mapping[int, int], subs: Mapping[int, tuple[int, bool]]
) -> Reduction:
    """Eliminate the variables of ``fixed`` and ``subs`` in one pass.

    Each original variable is written as c + s·y_t over the surviving
    variables y: a survivor is (0, 1, its new index), x_j := v is
    (v, 0, None), x_j := x_i is (0, 1, t_i) and x_j := 1 - x_i is
    (1, -1, t_i).  Every term is expanded through that map with
    y_t·y_t = y_t; constants go to ``delta``.  Only nonzero constants are
    added, so an all-int ``delta`` stays an int.  The merged terms form the
    reduced problem directly, without a second pass through ``from_terms``.
    """
    surviving = tuple(k for k in range(q.num_vars) if k not in fixed and k not in subs)
    image = {orig: (0, 1, k) for k, orig in enumerate(surviving)}
    for j, v in fixed.items():
        image[j] = (v, 0, None)
    for j, (i, complemented) in subs.items():
        image[j] = (1, -1, image[i][2]) if complemented else image[i]
    delta: Coeff = 0
    lin: dict[int, Coeff] = {}
    quad: dict[tuple[int, int], Coeff] = {}
    for i, a in q.linear.items():
        c, s, t = image[i]
        if c:
            delta += a
        if s:
            lin[t] = lin.get(t, 0) + (a if s > 0 else -a)
    for (i, j), a in q.quadratic.items():
        ci, si, ti = image[i]
        cj, sj, tj = image[j]
        if ci and cj:
            delta += a
        if si and sj and ti == tj:  # y_t·y_t = y_t: one linear coefficient
            f = si * cj + ci * sj + si * sj
            if f:
                lin[ti] = lin.get(ti, 0) + (a if f > 0 else -a)
            continue
        if si and cj:
            lin[ti] = lin.get(ti, 0) + (a if si > 0 else -a)
        if sj and ci:
            lin[tj] = lin.get(tj, 0) + (a if sj > 0 else -a)
        if si and sj:
            key = canonical_pair(ti, tj)
            quad[key] = quad.get(key, 0) + (a if si == sj else -a)
    # Keys are already canonical and merged: drop zero sums, normalize the rest.
    reduced = Qubo(
        len(surviving),
        {t: as_coeff(a) for t, a in lin.items() if a},
        {key: as_coeff(a) for key, a in quad.items() if a},
        as_coeff(q.offset),
    )
    return Reduction(q.num_vars, dict(fixed), dict(subs), surviving, reduced, delta)


def fix_variables(q: Qubo, partial: Mapping[int, int]) -> Reduction:
    """Fix ``partial`` (index -> {0,1}) and fold the consequences.

    Fixed-at-1 quadratic terms fold into linear terms, fixed linear terms and
    doubly-fixed quadratic terms into ``delta``; fixed-at-0 terms vanish.
    """
    for i, v in partial.items():
        if not 0 <= i < q.num_vars:
            raise ValueError(f"index {i} out of range")
        if v not in (0, 1):
            raise ValueError(f"fixed value {v} not in {{0,1}}")
    return _fold(q, {i: int(v) for i, v in partial.items()}, {})


def substitute(q: Qubo, relations: Mapping[int, tuple[int, bool]]) -> Reduction:
    """Eliminate every x_j of ``relations`` ({j: (i, complemented)}) in one
    pass by x_j := x_i, or x_j := 1 - x_i when ``complemented``.

    Targets must survive: no target may itself be substituted.
    """
    for j, (i, _) in relations.items():
        for k in (i, j):
            if not 0 <= k < q.num_vars:
                raise ValueError(f"index {k} out of range")
        if i == j:
            raise ValueError("cannot substitute a variable with itself")
        if i in relations:
            raise ValueError(f"target {i} of x{j} is itself substituted")
    return _fold(q, {}, relations)


# --- QUBO text format -------------------------------------------------------
#
#   # comment
#   p qubo <num_vars> <num_terms>
#   o <offset>              (optional, anywhere after the header)
#   <i> <j> <coeff>         i == j denotes a linear term; 0-based indices


def _format_coeff(a: Coeff) -> str:
    if isinstance(a, Fraction) and a.denominator != 1:
        return f"{a.numerator}/{a.denominator}"
    return str(int(a))


def write_qubo(q: Qubo, f: TextIO) -> None:
    f.write(f"p qubo {q.num_vars} {q.num_terms}\n")
    if q.offset != 0:
        f.write(f"o {_format_coeff(q.offset)}\n")
    for i in sorted(q.linear):
        f.write(f"{i} {i} {_format_coeff(q.linear[i])}\n")
    for (i, j) in sorted(q.quadratic):
        f.write(f"{i} {j} {_format_coeff(q.quadratic[(i, j)])}\n")


def read_qubo(f: TextIO) -> Qubo:
    num_vars = None
    num_terms = None
    offset: Coeff = 0
    lin: dict[int, Coeff] = {}
    quad: dict[tuple[int, int], Coeff] = {}
    seen = 0
    for lineno, raw in enumerate(f, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if num_vars is not None:
                raise FormatError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "qubo":
                raise FormatError(f"bad header {line!r}", lineno)
            try:
                num_vars, num_terms = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"bad header counts {line!r}", lineno) from None
            if num_vars < 0 or num_terms < 0:
                raise FormatError("negative counts in header", lineno)
            continue
        if parts[0] == "o":
            if len(parts) != 2:
                raise FormatError(f"bad offset line {line!r}", lineno)
            try:
                offset = as_coeff(parts[1])
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"bad offset value {parts[1]!r}", lineno) from None
            continue
        if num_vars is None:
            raise FormatError("term before 'p qubo' header", lineno)
        if len(parts) != 3:
            raise FormatError(f"expected '<i> <j> <coeff>', got {line!r}", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
            a = as_coeff(parts[2])
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"bad term line {line!r}", lineno) from None
        if not (0 <= i < num_vars and 0 <= j < num_vars):
            raise FormatError(f"index out of range in {line!r}", lineno)
        if i == j:
            lin[i] = lin.get(i, 0) + a
        else:
            key = canonical_pair(i, j)
            quad[key] = quad.get(key, 0) + a
        seen += 1
    if num_vars is None:
        raise FormatError("missing 'p qubo' header")
    if num_terms is not None and seen != num_terms:
        raise FormatError(f"header announced {num_terms} terms, found {seen}")
    return Qubo.from_terms(num_vars, lin, quad, offset)
