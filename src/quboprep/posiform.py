"""Rewrite a QUBO as a quadratic posiform over literals.

A posiform has a (possibly negative) constant plus terms with strictly
positive coefficients over literals x_i / x̄_i.  Literals are packed into int
codes ``2*var + complemented`` so the network layer can vectorize over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .model import Coeff, Qubo, _check_values


class Literal(NamedTuple):
    var: int
    complemented: bool

    @property
    def code(self) -> int:
        return 2 * self.var + int(self.complemented)

    @classmethod
    def from_code(cls, code: int) -> "Literal":
        return cls(code >> 1, bool(code & 1))

    def __str__(self) -> str:
        return f"~x{self.var}" if self.complemented else f"x{self.var}"


def lit_code(var: int, complemented: bool = False) -> int:
    return 2 * var + int(complemented)


@dataclass(frozen=True)
class Posiform:
    """constant + sum a_u u + sum a_uv u v  with all a_u, a_uv > 0.

    ``linear`` maps a literal code to its coefficient; ``quadratic`` maps a
    code pair (smaller code first, distinct variables) to its coefficient.
    """

    num_vars: int
    constant: Coeff = 0
    linear: dict[int, Coeff] = field(default_factory=dict)
    quadratic: dict[tuple[int, int], Coeff] = field(default_factory=dict)

    def energy(self, values) -> Coeff:
        values = _check_values(values, self.num_vars, "binary")

        def lit_value(code: int) -> int:
            v = values[code >> 1]
            return 1 - v if code & 1 else v

        e = self.constant
        for code, a in self.linear.items():
            if lit_value(code):
                e += a
        for (cu, cv), a in self.quadratic.items():
            if lit_value(cu) and lit_value(cv):
                e += a
        return e

    def validate(self) -> None:
        for code, a in self.linear.items():
            if a <= 0:
                raise ValueError(f"nonpositive linear coefficient {a} on code {code}")
            if not 0 <= code >> 1 < self.num_vars:
                raise ValueError(f"literal code {code} out of range")
        for (cu, cv), a in self.quadratic.items():
            if a <= 0:
                raise ValueError(f"nonpositive quadratic coefficient {a}")
            if cu >= cv:
                raise ValueError(f"non-canonical pair ({cu},{cv})")
            if cu >> 1 == cv >> 1:
                raise ValueError(f"pair ({cu},{cv}) uses one variable twice")
            if not (0 <= cu >> 1 < self.num_vars and 0 <= cv >> 1 < self.num_vars):
                raise ValueError(f"pair ({cu},{cv}) out of range")


def to_posiform(q: Qubo) -> Posiform:
    """Equivalent posiform of ``q`` (pointwise-equal energies).

    Negative quadratic terms are rewritten a·x_i·x_j = a·x_i + (−a)·x_i·x̄_j,
    complementing the higher index; residual negative linear terms become
    constant + positive complemented term.  Quadratic terms are processed in
    ascending canonical order so output is deterministic.
    """
    lin_by_var: dict[int, Coeff] = dict(q.linear)
    quadratic: dict[tuple[int, int], Coeff] = {}
    for (i, j) in sorted(q.quadratic):
        a = q.quadratic[(i, j)]
        if a > 0:
            key = (lit_code(i), lit_code(j))
        else:
            lin_by_var[i] = lin_by_var.get(i, 0) + a
            key = (lit_code(i), lit_code(j, True))
            a = -a
        quadratic[key] = quadratic.get(key, 0) + a
    constant = q.offset
    linear: dict[int, Coeff] = {}
    for i in sorted(lin_by_var):
        b = lin_by_var[i]
        if b > 0:
            linear[lit_code(i)] = b
        elif b < 0:
            constant += b
            linear[lit_code(i, True)] = -b
    return Posiform(q.num_vars, constant, linear, quadratic)
