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
problem; sweeps repeat until a fixpoint or ``max_passes``.  Resolved
percentages count relation-eliminated variables as resolved (they leave the
problem); reports state the convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ._fast import analyze_branch
from .model import Coeff, Qubo, Reduction, as_coeff, fix_variables, substitute
from .persistency import analyze
from .posiform import IntArrays

IMPLICATION_WEIGHT = 1


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
    """True reduction chain plus the implication penalties.

    ``penalty`` holds only the implication-penalty terms, over the variables
    of the true reduced problem ``cur`` and in the same frame: both are
    shifted by ``total.delta`` to give energies of the original problem.
    Invariant, for every assignment y of ``cur``::

        penalty(y) >= 0, with equality whenever y minimizes cur

    so the working problem cur + penalty has the same minimizers as ``cur``,
    and its persistency labels and roof-dual bounds (plus ``total.delta``)
    hold for the original problem.  Fixing and substitution are linear in
    the coefficients, so ``apply`` runs the same steps on the penalty and
    folds the penalty step's ``delta`` into its offset.
    """

    def __init__(self, q: Qubo):
        self.total = Reduction.identity(q)
        self.penalty = Qubo(q.num_vars)
        self._arrays: IntArrays | None = None  # of working_qubo(); None when stale
        self._impl_seen: set[tuple[int, int, int, int]] = set()

    @property
    def cur(self) -> Qubo:
        return self.total.reduced

    @property
    def enriched(self) -> bool:
        """Whether an implication has been recorded."""
        return bool(self._impl_seen)

    def working_qubo(self) -> Qubo:
        """cur + penalty."""
        c, p = self.cur, self.penalty
        if not self.enriched:
            return c
        lin, quad = dict(c.linear), dict(c.quadratic)
        for i, a in p.linear.items():
            lin[i] = lin.get(i, 0) + a
        for key, a in p.quadratic.items():
            quad[key] = quad.get(key, 0) + a
        return Qubo.from_terms(c.num_vars, lin, quad, c.offset + p.offset)

    def analyze_branches(self, u: int):
        """(strong, weak, bound) per branch, labels in current indices."""
        if self._arrays is None:
            self._arrays = IntArrays.from_qubo(self.working_qubo())
        return [analyze_branch(self._arrays, u, b) for b in (0, 1)]

    def add_implications(self, u: int, implied) -> None:
        """Penalize x_u=b ∧ x_j≠v for each (b, j, v) in ``implied`` (zero on
        optima); skips implications already recorded or already carried by a
        coupling of the right sign."""
        if not implied:
            return
        lin, quad = dict(self.penalty.linear), dict(self.penalty.quadratic)
        offset = self.penalty.offset
        p = IMPLICATION_WEIGHT
        orig_u = self.total.surviving[u]

        def bump(terms, key, a) -> None:
            acc = terms.get(key, 0) + a
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)

        for b, j, v in implied:
            orig_j = self.total.surviving[j]
            if (orig_u, b, orig_j, v) in self._impl_seen:
                continue
            key = (u, j) if u < j else (j, u)
            existing = self.cur.quadratic.get(key, 0) + quad.get(key, 0)
            if b == 1 and v == 0:
                if existing > 0:
                    continue  # a co-selection penalty already carries this arc
                bump(quad, key, p)
            elif b == 1 and v == 1:
                if existing < 0:
                    continue
                bump(lin, u, p)
                bump(quad, key, -p)
            elif v == 0:  # b == 0: x_j implies x_u
                if existing < 0:
                    continue
                bump(lin, j, p)
                bump(quad, key, -p)
            else:  # b == 0, v == 1: penalize both zero
                if existing > 0:
                    continue
                offset = offset + p
                bump(lin, u, -p)
                bump(lin, j, -p)
                bump(quad, key, p)
            self._impl_seen.add((orig_u, b, orig_j, v))
            self._arrays = None
        self.penalty = Qubo(self.cur.num_vars, lin, quad, offset)

    def apply(self, subs: dict[int, tuple[int, bool]], fixes: dict[int, int]) -> Reduction:
        """Apply a relation class ``subs`` and then ``fixes`` (both in current
        indices) to the true chain and the penalty; returns the step reduction."""

        def run_ops(problem: Qubo) -> Reduction:
            step = substitute(problem, subs) if subs else Reduction.identity(problem)
            if fixes:
                pos = {o: k for k, o in enumerate(step.surviving)}
                step = step.compose(
                    fix_variables(step.reduced, {pos[j]: v for j, v in fixes.items()})
                )
            return step

        step = run_ops(self.cur)
        self.total = self.total.compose(step)
        p_step = run_ops(self.penalty)
        self.penalty = replace(p_step.reduced, offset=p_step.reduced.offset + p_step.delta)
        self._arrays = None
        return step


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
            cur = state.cur
            res = analyze(cur if source == "true" else state.working_qubo())
            observe_bound(res.bound + state.total.delta)
            if res.weak:
                record_fixes(res.weak)
                state.apply({}, res.weak)
                changed = True

        sweep_ids = list(state.total.surviving)
        sweep_branch1_min: Coeff | None = None
        sweep_probes = 0
        cert_candidate: tuple[Coeff, list[int]] | None = None  # reset on apply
        for orig_v in sweep_ids:
            pos = {o: k for k, o in enumerate(state.total.surviving)}
            if orig_v not in pos:
                continue  # resolved earlier in this sweep
            u = pos[orig_v]
            (s0, w0, b0), (s1, w1, b1) = state.analyze_branches(u)
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

            n_free = state.cur.num_vars - 1
            for b, weak_b, bound_b in ((0, w0, b0), (1, w1, b1)):
                if len(weak_b) != n_free:
                    continue
                feasible = bound_b + state.total.delta
                improves_cert = cert_candidate is None or feasible < cert_candidate[0]
                improves_inc = incumbent is None or feasible < incumbent
                if not (improves_cert or improves_inc):
                    continue
                values = [0] * state.cur.num_vars
                values[u] = b
                for j, v in weak_b.items():
                    values[j] = v
                if improves_cert:
                    cert_candidate = (feasible, values)
                if improves_inc:
                    energy = state.cur.energy(values) + state.total.delta
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
            cert_candidate = None  # recorded values are in a stale index space

        if (
            not changed
            and state.cur.num_vars > 0
            and sweep_probes == state.cur.num_vars
            and sweep_branch1_min is not None
        ):
            # Stalled sweep: every nonzero assignment lies in some probed
            # x_u=1 branch, so this is a proven lower bound on the minimum.
            zeros_energy = state.cur.offset + state.total.delta
            proven = min(zeros_energy, sweep_branch1_min)
            observe_bound(proven)
            commit = None
            if cert_candidate is not None:
                if state.cur.energy(cert_candidate[1]) + state.total.delta == proven:
                    commit = dict(enumerate(cert_candidate[1]))
            if commit is None and best_assignment is not None and incumbent == proven:
                candidate = [best_assignment[orig] for orig in state.total.surviving]
                if state.cur.energy(candidate) + state.total.delta == proven:
                    commit = dict(enumerate(candidate))
            if commit is None and zeros_energy == proven:
                commit = {k: 0 for k in range(state.cur.num_vars)}
            if commit is not None:
                record_fixes(commit)
                state.apply({}, commit)
                changed = True

        if not changed or state.cur.num_vars == 0:
            break

    if state.cur.num_vars == 0:
        observe_bound(state.cur.offset + state.total.delta)

    return ProbeOutcome(
        num_vars=q.num_vars,
        fixed=direct_fixed,
        relations=tuple(relations),
        bound=best_bound if best_bound is not None else 0,
        passes=passes,
        reduction=state.total,
    )
