"""Probing: fix each variable both ways and combine the two analyses.

Per probed variable x_u the two subproblems x_u=0 and x_u=1 are analyzed;
four kinds of conclusions are drawn, every one preserving at least one
global optimum (the first and last preserve all of them):

* a variable weakly labeled the same way in both branches is fixed;
* one labeled opposite ways yields a relation x_j = x_u (or its complement),
  applied by substitution;
* strong labels of a single branch are implications (x_u=b forces x_j=v in
  every optimum of that branch); they become nonnegative penalty terms that
  vanish on every optimum, added to the problem for later flow analyses,
  which they enrich without changing the set of minimizers;
* a branch whose roof-dual bound exceeds a known feasible energy is dead,
  so the probed variable is fixed the other way.  Feasible energies are
  harvested automatically from branches whose weak labels cover every
  variable; a caller-supplied incumbent seeds the same rule.

A sweep that probed every remaining variable without drawing any conclusion
still proves the bound min(E(all zeros), min_u bound(x_u=1)): every nonzero
assignment lies in some x_u=1 branch.  When a harvested assignment meets
that bound it is a certified optimum, and all remaining variables are fixed
to it (again weak-persistency semantics).

Conclusions are applied immediately, so later probes run on the shrunken
problem; sweeps repeat until a fixpoint or ``max_passes``.  The shrunken
problem and the implication penalties stay scaled int64 arrays throughout
(see :class:`_ProbeState`); the reduced ``Qubo`` of the outcome is built
once, from the input, when probing ends.  The two branches of a probe share
one max flow on the pair network of the working problem
(:class:`~quboprep._fast.BranchPair`), laid out once per working problem and
number of pairs; a probe only writes capacities into it.  Once the working
problem has stayed unchanged for ``_BATCH`` (4) probes in a row, as in the
stalled last sweep that ends almost every call, the next 4 unresolved
variables of the sweep share one flow on a layout of 4 pairs (fewer when
the copies would pass :data:`~quboprep.persistency.UNION_ENTRIES` quadratic
entries, the budget that the split solver's level runs share).  Their
results are used in sweep order; the first probe that changes the working
problem (an apply, or an implication that records a term) drops the rest,
so every probe gets exactly the result it gets alone.  Resolved
percentages count relation-eliminated variables as resolved (they leave the
problem); reports state the convention.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import persistency
from ._fast import BranchPair, analyze_branch
from .model import Coeff, Qubo, Reduction, as_coeff, fix_variables, substitute
from .persistency import analyze
from .posiform import IntArrays

IMPLICATION_WEIGHT = 1
_BATCH = 4  # probes per max flow once the working problem stops changing


@dataclass(frozen=True)
class ProbeOutcome:
    """Everything probing concluded, plus the cumulative reduction.

    ``fixed`` holds directly fixed original variables; ``relations`` holds
    (eliminated_var, representative_var, complemented) triples with
    representative < eliminated_var, kept even if the representative was
    fixed later (``reduction.fixed`` then carries the resolved value).
    """

    num_vars: int
    fixed: dict[int, int]
    relations: tuple[tuple[int, int, bool], ...]
    bound: Coeff
    passes: int
    reduction: Reduction

    @property
    def resolved(self) -> int:
        return self.num_vars - self.reduction.reduced.num_vars

    @property
    def probe_pct(self) -> float:
        if self.num_vars == 0:
            return 100.0
        return 100.0 * self.resolved / self.num_vars

    def to_csv_text(self) -> str:
        """`var,value,class` rows, relation rows, then a summary line."""
        lines = ["var,value,class"]
        for var in sorted(self.fixed):
            lines.append(f"{var},{self.fixed[var]},probe")
        for j, i, comp in sorted(self.relations):
            rhs = f"!{i}" if comp else f"{i}"
            lines.append(f"{j},= {rhs},relation")
        lines.append("")
        lines.append("probe_pct,passes,bound")
        lines.append(f"{self.probe_pct:.2f},{self.passes},{self.bound}")
        return "\n".join(lines)


class _ProbeState:
    """The reduced problem and the implication penalties, as scaled arrays.

    ``true`` is the input reduced by everything applied so far, and
    ``penalty`` holds only the implication-penalty terms, over the same
    variables, at the same scale (the lcm of the input's denominators) and
    in the same frame: both are shifted by ``total.delta`` to give energies
    of the input.  Invariant, for every assignment y of ``true``::

        penalty(y) >= 0, with equality whenever y minimizes true

    so the working problem true + penalty has the same minimizers as
    ``true``, and its persistency labels and roof-dual bounds (plus
    ``total.delta``) hold for the input.  Fixing and substitution are linear
    in the coefficients, so ``apply`` folds both arrays through the same
    map and moves the penalty fold's ``delta`` into its offset.  Both keep
    their quadratic keys strictly increasing, without zero entries, as
    every :class:`IntArrays` constructor leaves them; ``add_implications``
    looks couplings up by binary search.

    ``_layout`` is the last pair layout (:class:`~quboprep._fast.BranchPair`).
    It is replaced when :meth:`working` returns another problem (after an
    ``apply``, or an ``add_implications`` that records something) or a probe
    needs another number of pairs, not dropped when that problem changes:
    freed early, its arrays would leave the top of the heap empty for the
    allocator to return to the system, and the next layout would fault
    those pages back in.
    ``_batch`` holds the results computed ahead for the working problem,
    which a change drops (:meth:`_changed`).

    ``total`` does the index bookkeeping only: it composes the applied
    fixes and substitutions, and accumulates the exact ``delta``, but its
    ``reduced`` is an empty stand-in; :meth:`reduction` builds the real one.
    """

    def __init__(self, q: Qubo):
        self.q = q
        self.true = IntArrays.from_qubo(q)
        empty = np.empty(0, dtype=np.int64)
        self.penalty = IntArrays(
            q.num_vars, self.true.scale, np.zeros(q.num_vars, dtype=np.int64), empty, empty, empty, 0
        )
        self.total = Reduction.identity(Qubo(q.num_vars))
        self._working: IntArrays | None = None  # true + penalty; None when stale
        self._layout: BranchPair | None = None
        self._batch: dict[int, tuple] = {}  # u -> its branches, computed ahead
        self._steady = 0  # probes since the working problem last changed
        self._impl_seen: set[tuple[int, int, int, int]] = set()

    @property
    def enriched(self) -> bool:
        """Whether an implication has been recorded."""
        return bool(self._impl_seen)

    def working(self) -> IntArrays:
        """true + penalty."""
        if not self.enriched:
            return self.true
        if self._working is None:
            self._working = self.true.plus(self.penalty)
        return self._working

    def analyze_branches(self, u: int, ahead: Iterator[int]):
        """(strong, weak, bound) per branch of x_u, labels in current
        indices.

        ``ahead`` yields the variables the sweep probes after u, in order,
        if nothing changes.  Once the working problem has stayed unchanged for
        :data:`_BATCH` probes, u and the next ``_BATCH - 1`` of them share one
        flow (fewer when their copies would pass
        :data:`~quboprep.persistency.UNION_ENTRIES` quadratic entries), and
        their results wait in ``_batch`` until they are probed or the
        working problem changes.  The flow reuses ``_layout`` while that
        has the working problem and ``len(us)`` pairs."""
        self._steady += 1
        if u in self._batch:
            return self._batch.pop(u)
        w = self.working()
        k = 1
        if self._steady > _BATCH:
            k = max(1, min(_BATCH, persistency.UNION_ENTRIES // max(1, 2 * len(w.qv))))
        us = [u, *islice(ahead, k - 1)]
        layout = self._layout
        if layout is None or layout.arr is not w or layout.pairs != len(us):
            layout = self._layout = BranchPair.of(w, len(us))
        out = analyze_branch(layout, us)
        self._batch = {v: out[2 * p : 2 * p + 2] for p, v in enumerate(us)}
        return self._batch.pop(u)

    def _changed(self) -> None:
        """The working problem changed: drop what was computed for the old
        one."""
        self._working = None
        self._batch = {}
        self._steady = 0

    def add_implications(self, u: int, implied) -> None:
        """Penalize x_u=b ∧ x_j≠v for each (b, j, v) in ``implied`` (zero on
        optima); skips implications already recorded or already carried by a
        coupling of the right sign.  Each j appears once in ``implied``, so
        every check reads the working problem as it was before the call.
        The penalty is p·(c_u + s_u·x_u)·(c_j + s_j·x_j), the two factors
        being [x_u = b] and [x_j ≠ v]; a u–j coupling of the sign of s_u·s_j
        already carries it."""
        if not implied:
            return
        w = self.working()
        n = w.num_vars
        keys = np.array([min(u, j) * n + max(u, j) for _, j, _ in implied], dtype=np.int64)
        have = w.qi * n + w.qj
        at = np.minimum(np.searchsorted(have, keys), max(len(have) - 1, 0))
        existing = np.where(have[at] == keys, w.qv[at], 0) if len(have) else np.zeros_like(keys)
        p = IMPLICATION_WEIGHT * w.scale
        couplings: list[tuple[int, int, int]] = []  # (j, coupling, x_j term)
        lin_u = offset = 0
        orig_u = self.total.surviving[u]
        for (b, j, v), coupling in zip(implied, existing.tolist()):
            orig_j = self.total.surviving[j]
            if (orig_u, b, orig_j, v) in self._impl_seen:
                continue
            c_u, s_u, c_j, s_j = 1 - b, 2 * b - 1, v, 1 - 2 * v
            if coupling * s_u * s_j > 0:
                continue
            offset += IMPLICATION_WEIGHT * c_u * c_j
            lin_u += p * c_j * s_u
            couplings.append((j, p * s_u * s_j, p * c_u * s_j))
            self._impl_seen.add((orig_u, b, orig_j, v))
        if not couplings:
            return
        # Sorted by j, the keys of the u–j entries strictly increase.
        js, vals, lin_js = (np.array(col, dtype=np.int64) for col in zip(*sorted(couplings)))
        lin = np.zeros(n, dtype=np.int64)
        lin[js] = lin_js
        lin[u] = lin_u
        added = IntArrays(n, w.scale, lin, np.minimum(u, js), np.maximum(u, js), vals, offset)
        self.penalty = self.penalty.plus(added)
        self._changed()

    def apply(self, subs: dict[int, tuple[int, bool]], fixes: dict[int, int]) -> None:
        """Apply a relation class ``subs`` and ``fixes`` (both in current
        indices, disjoint, no target fixed) to both arrays and the chain."""
        m = self.true.num_vars
        surviving = tuple(k for k in range(m) if k not in fixes and k not in subs)
        self.true, delta = self.true.fold(fixes, subs)
        penalty, p_delta = self.penalty.fold(fixes, subs)
        self.penalty = replace(penalty, offset=penalty.offset + p_delta)
        step = Reduction(m, dict(fixes), dict(subs), surviving, Qubo(len(surviving)), delta)
        self.total = self.total.compose(step)
        self._changed()

    def reduction(self) -> Reduction:
        """The whole reduction of the input: one substitute, then one
        fix_variables, unless nothing was applied."""
        subs, fixed = self.total.substitutions, self.total.fixed
        if not subs and not fixed:
            return Reduction.identity(self.q)
        subbed = substitute(self.q, subs)
        pos = {o: k for k, o in enumerate(subbed.surviving)}
        return subbed.compose(fix_variables(subbed.reduced, {pos[j]: v for j, v in fixed.items()}))


def probe(
    q: Qubo,
    max_passes: int = 10,
    incumbent: Coeff | None = None,
) -> ProbeOutcome:
    """Run probing sweeps on ``q`` until fixpoint or ``max_passes``.

    Each sweep first applies plain roof-duality weak persistencies (of the
    true problem, then of the implication-enriched working problem), then
    probes every still-unresolved variable in ascending index order.
    ``incumbent`` (optional) is the energy of any known feasible assignment
    and seeds the dead-branch rule; better incumbents found along the way
    are harvested automatically.
    """
    if max_passes < 1:
        raise ValueError("max_passes must be >= 1")
    state = _ProbeState(q)
    direct_fixed: dict[int, int] = {}
    relations: list[tuple[int, int, bool]] = []
    best_bound: Coeff | None = None
    best_assignment: tuple[int, ...] | None = None  # original frame, = incumbent
    passes = 0

    def observe_bound(b) -> None:
        nonlocal best_bound
        b = as_coeff(b)
        if best_bound is None or b > best_bound:
            best_bound = b

    def record_fixes(fixes: dict[int, int]) -> None:
        for cur_idx, val in fixes.items():
            direct_fixed[state.total.surviving[cur_idx]] = val

    while passes < max_passes:
        passes += 1
        changed = False

        for source in ("true", "working"):
            if source == "working" and not state.enriched:
                break
            res = analyze(state.true if source == "true" else state.working())
            observe_bound(res.bound + state.total.delta)
            if res.weak:
                record_fixes(res.weak)
                state.apply({}, res.weak)
                changed = True

        sweep_ids = list(state.total.surviving)
        sweep_branch1_min: Coeff | None = None
        sweep_probes = 0
        cert_candidate: tuple[Coeff, list[int]] | None = None  # reset on apply
        pos = {o: k for k, o in enumerate(sweep_ids)}  # original id -> current index
        for i, orig_v in enumerate(sweep_ids):
            if orig_v not in pos:
                continue  # resolved earlier in this sweep
            u = pos[orig_v]
            ahead = (pos[o] for o in islice(sweep_ids, i + 1, None) if o in pos)
            (s0, w0, b0), (s1, w1, b1) = state.analyze_branches(u, ahead)
            sweep_probes += 1
            b1_global = b1 + state.total.delta
            if sweep_branch1_min is None or b1_global < sweep_branch1_min:
                sweep_branch1_min = b1_global

            fixes: dict[int, int] = {}
            rels: dict[int, int] = {}
            for j in w0.keys() & w1.keys():
                if w0[j] == w1[j]:
                    fixes[j] = w0[j]
                else:
                    rels[j] = w0[j]  # x_j = x_u xor w0[j]

            n_free = state.true.num_vars - 1
            for b, weak_b, bound_b in ((0, w0, b0), (1, w1, b1)):
                if len(weak_b) != n_free:
                    continue
                feasible = bound_b + state.total.delta
                improves_cert = cert_candidate is None or feasible < cert_candidate[0]
                improves_inc = incumbent is None or feasible < incumbent
                if not (improves_cert or improves_inc):
                    continue
                values = [0] * state.true.num_vars
                values[u] = b
                for j, v in weak_b.items():
                    values[j] = v
                if improves_cert:
                    cert_candidate = (feasible, values)
                if improves_inc:
                    energy = q.energy(state.total.lift(values))
                    if incumbent is None or energy < incumbent:
                        incumbent = as_coeff(energy)
                        best_assignment = state.total.lift(values)

            if incumbent is not None and u not in fixes:
                dead0 = b0 + state.total.delta > incumbent
                dead1 = b1 + state.total.delta > incumbent
                if dead0 and dead1:
                    raise ValueError(
                        f"incumbent {incumbent} is below the optimum "
                        f"(both probe bounds exceed it)"
                    )
                if dead0:
                    fixes[u] = 1
                elif dead1:
                    fixes[u] = 0

            state.add_implications(u, [
                (b, j, v)
                for b, strong_b in ((0, s0), (1, s1))
                for j, v in strong_b.items()
                if j not in fixes and j not in rels and j != u
            ])

            if rels and u in fixes:
                for j, alpha in rels.items():
                    fixes[j] = fixes[u] ^ alpha
                rels = {}

            if not fixes and not rels:
                continue
            changed = True
            # The representative is the class's lowest index.  Members are
            # listed highest first: the reduction's dicts, and so its repr,
            # follow this order.
            members = {u: 0, **rels}
            rep = min(members)
            subs = {
                m: (rep, bool(alpha ^ members[rep]))
                for m, alpha in sorted(members.items(), reverse=True)
                if m != rep
            }
            orig = state.total.surviving
            relations.extend((orig[m], orig[i], comp) for m, (i, comp) in reversed(subs.items()))
            record_fixes(fixes)
            state.apply(subs, fixes)
            pos = {o: k for k, o in enumerate(state.total.surviving)}
            cert_candidate = None  # recorded values are in a stale index space

        if (
            not changed
            and state.true.num_vars > 0
            and sweep_probes == state.true.num_vars
            and sweep_branch1_min is not None
        ):
            # Stalled sweep: every nonzero assignment lies in some probed
            # x_u=1 branch, so this is a proven lower bound on the minimum.
            zeros_energy = state.true.offset + state.total.delta
            proven = min(zeros_energy, sweep_branch1_min)
            observe_bound(proven)
            commit = None
            if cert_candidate is not None:
                if q.energy(state.total.lift(cert_candidate[1])) == proven:
                    commit = dict(enumerate(cert_candidate[1]))
            if commit is None and best_assignment is not None and incumbent == proven:
                candidate = [best_assignment[orig] for orig in state.total.surviving]
                if q.energy(state.total.lift(candidate)) == proven:
                    commit = dict(enumerate(candidate))
            if commit is None and zeros_energy == proven:
                commit = {k: 0 for k in range(state.true.num_vars)}
            if commit is not None:
                record_fixes(commit)
                state.apply({}, commit)
                changed = True

        if not changed or state.true.num_vars == 0:
            break

    if state.true.num_vars == 0:
        observe_bound(state.true.offset + state.total.delta)

    return ProbeOutcome(
        num_vars=q.num_vars,
        fixed=direct_fixed,
        relations=tuple(relations),
        bound=best_bound if best_bound is not None else 0,
        passes=passes,
        reduction=state.reduction(),
    )
