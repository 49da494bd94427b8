"""Acceptance suite: every spec criterion at its stated tolerance.

One PASS/FAIL line per criterion (or sub-criterion) is printed and repeated
in the terminal summary.  Three sub-assertions reproduce paper claims that
measurements contradict (4a, 5c, 6b); they are implemented faithfully and
left red — the analysis lives in the project notes, not in softened tests.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import spearmanr

from quboprep import (
    CliqueEncodingParams,
    Qubo,
    brute_force_qubo,
    clique_qubo,
    exact_max_clique,
    exact_max_cut,
    gen_cfat,
    gen_gnp,
    gen_hamming,
    ising_to_qubo,
    maxcut_ising,
    perturb,
    probe,
    roof_dual,
)
from quboprep.decompose import default_leaf_solver, max_clique_split
from quboprep.experiments import degree_to_density_pct, make_graph
from quboprep.persistency import analyze, reduce as reduce_by

from conftest import record_acceptance
from helpers import random_qubo

pytestmark = pytest.mark.slow

CFAT_PUBLISHED = {
    (200, 1): (1534, 12),
    (200, 5): (8473, 58),
    (500, 1): (4459, 14),
    (500, 5): (23191, 64),
}


def check(label, ok, detail=""):
    record_acceptance(label, ok, detail)
    assert ok, f"{label}: {detail}"


# --- criterion 1: Table 1 Hamming rows, exact, each run < 60 s ---------------


@pytest.mark.parametrize(
    "bits,d,weak,probe_pct",
    [(6, 2, 100.0, 100.0), (6, 4, 0.0, 0.0), (8, 2, 100.0, 100.0), (8, 4, 0.0, 0.0)],
)
def test_criterion_1_table1_hamming(bits, d, weak, probe_pct):
    start = time.perf_counter()
    q = clique_qubo(gen_hamming(bits, d))
    res = analyze(q)
    out = probe(q)
    elapsed = time.perf_counter() - start
    ok = (
        res.strong_pct == 0.0
        and res.weak_pct == weak
        and out.probe_pct == probe_pct
        and elapsed < 60.0
    )
    check(
        f"1 hamming({bits},{d})",
        ok,
        f"strong={res.strong_pct:.2f} weak={res.weak_pct:.2f} "
        f"probe={out.probe_pct:.2f} in {elapsed:.1f}s",
    )


# --- criterion 2: Table 1 c-fat rows, conditional on generator validation ----


def test_criterion_2_generator_validation():
    ok = True
    details = []
    for (n, c), (edges, omega) in sorted(CFAT_PUBLISHED.items()):
        g = gen_cfat(n, c)
        got_omega = len(exact_max_clique(g))
        ok &= g.num_edges == edges and got_omega == omega
        details.append(f"({n},{c}):m={g.num_edges}/{edges},w={got_omega}/{omega}")
    check("2 cfat generator vs published DIMACS", ok, " ".join(details))


@pytest.mark.parametrize("n,c", sorted(CFAT_PUBLISHED))
def test_criterion_2_table1_cfat(n, c):
    start = time.perf_counter()
    q = clique_qubo(gen_cfat(n, c))
    res = analyze(q)
    out = probe(q)
    elapsed = time.perf_counter() - start
    ok = (
        res.strong_pct == 0.0
        and res.weak_pct == 0.0
        and out.probe_pct == 100.0
        and elapsed < 600.0
    )
    check(
        f"2 cfat({n},{c})",
        ok,
        f"strong={res.strong_pct:.2f} weak={res.weak_pct:.2f} "
        f"probe={out.probe_pct:.2f} in {elapsed:.0f}s",
    )


# --- criterion 3: Table 2 formulation comparison ------------------------------


def test_criterion_3_table2():
    g = gen_hamming(8, 2)
    q4 = clique_qubo(g)
    r4 = analyze(q4)
    k = len(exact_max_clique(g))
    q5 = clique_qubo(g, CliqueEncodingParams.fixed_size(k))
    r5 = analyze(q5)
    ok = (
        q4.num_terms == 1280
        and r4.weak_pct == 100.0
        and r4.strong_pct == 0.0
        and k == 128
        and q5.dense_size == 65536
        and r5.strong_pct == 0.0
        and r5.weak_pct == 0.0
    )
    # The paper's c-fat(200,1) Eq.(4) row (69/100) conflicts with its own
    # Table 1; reported here, not asserted.
    gc = gen_cfat(200, 1)
    rc = analyze(clique_qubo(gc))
    kc = len(exact_max_clique(gc))
    rc5 = analyze(clique_qubo(gc, CliqueEncodingParams.fixed_size(kc)))
    check(
        "3 table2",
        ok,
        f"eq4(nnz=1280:{q4.num_terms},weak={r4.weak_pct:.0f}) "
        f"eq5(K={k},dense={q5.dense_size},strong={r5.strong_pct:.0f},weak={r5.weak_pct:.0f}); "
        f"cfat rows reported: eq4={rc.strong_pct:.0f}/{rc.weak_pct:.0f} "
        f"eq5={rc5.strong_pct:.0f}/{rc5.weak_pct:.0f} (not asserted)",
    )


# --- criterion 4: Table 3 qualitative pattern, paper scale, 5 seeds -----------

SEEDS = range(5)


def _maxcut_analysis(family, n, degree, seed):
    g = make_graph(family, n, degree_to_density_pct(n, degree), seed)
    return g, analyze(ising_to_qubo(maxcut_ising(g)))


def test_criterion_4a_table3_g_dense_rows_weak_100():
    # Paper claim (Table 3): weak = 100.00 at parameters 5 and 10.  Measured
    # reality is ~0; see the decisions notes for the full analysis.
    values = {}
    for n, degree in [(500, 5.0), (500, 10.0), (1000, 5.0)]:
        for seed in SEEDS:
            _, res = _maxcut_analysis("g", n, degree, seed)
            values[(n, degree, seed)] = res.weak_pct
    ok = all(v == 100.0 for v in values.values())
    worst = min(values.values())
    check("4a table3 g@5,10 weak=100.00", ok, f"measured weak as low as {worst:.2f}")


def test_criterion_4b_table3_g_sparse_rows():
    ok = True
    details = []
    for n in (500, 1000):
        for seed in SEEDS:
            g, res = _maxcut_analysis("g", n, 2.5, seed)
            out = probe(ising_to_qubo(maxcut_ising(g)))
            ok &= 0.0 < res.weak_pct < 100.0 and out.probe_pct > res.weak_pct
            details.append(f"n={n},s={seed}:w={res.weak_pct:.1f},p={out.probe_pct:.1f}")
    check("4b table3 g@2.5 (0<weak<100, probe>weak)", ok, "; ".join(details[:4]) + " ...")


def test_criterion_4c_table3_u_rows():
    ok = True
    worst = 0.0
    for n, degree in [(500, 5.0), (500, 10.0), (1000, 5.0), (1000, 10.0)]:
        for seed in SEEDS:
            _, res = _maxcut_analysis("u", n, degree, seed)
            ok &= res.weak_pct <= 5.0 and res.strong_pct == 0.0
            worst = max(worst, res.weak_pct)
    check("4c table3 U (weak<=5, strong=0)", ok, f"max weak={worst:.2f}")


# --- criterion 5: Fig. 2 shape properties on Hamming(8,2) --------------------

FIG2_GRID = [round(0.1 * k, 1) for k in range(11)]


def test_criterion_5a_delete_p0_weak_100():
    res = analyze(clique_qubo(gen_hamming(8, 2)))
    check("5a fig2 delete p=0 weak=100", res.weak_pct == 100.0, f"weak={res.weak_pct:.2f}")


def test_criterion_5b_delete_weak_collapses():
    base = gen_hamming(8, 2)
    worst = 0.0
    for p in [p for p in FIG2_GRID if p >= 0.1]:
        for seed in SEEDS:
            res = analyze(clique_qubo(perturb(base, p, "delete", seed)))
            worst = max(worst, res.weak_pct)
    check("5b fig2 delete p>=0.1 weak<20", worst < 20.0, f"max weak={worst:.2f}")


def test_criterion_5c_insert_strong_monotone():
    # Paper claim: strong grows over the whole interval; measured curve has
    # a real dip near p=0.7-0.9, keeping Spearman below the 0.9 threshold.
    base = gen_hamming(8, 2)
    means = []
    for p in FIG2_GRID:
        vals = [
            analyze(clique_qubo(perturb(base, p, "insert", seed))).strong_pct
            for seed in SEEDS
        ]
        means.append(sum(vals) / len(vals))
    rho = float(spearmanr(FIG2_GRID, means).statistic)
    check("5c fig2 insert strong Spearman>0.9", rho > 0.9, f"rho={rho:.3f}")


# --- criterion 6: Fig. 3 at desk scale ----------------------------------------

FIG3_GRID = [400, 800, 1600, 2400, 3200]


@pytest.fixture(scope="module")
def fig3_mean_ratios():
    means = {}
    solver = default_leaf_solver(15)
    for m_expected in FIG3_GRID:
        p = m_expected / (100 * 99 / 2)
        ratios = []
        for seed in SEEDS:
            g = gen_gnp(100, p, seed)
            _, stats_with = max_clique_split(g, solver, use_persistency=True)
            _, stats_without = max_clique_split(g, solver, use_persistency=False)
            ratios.append(
                (stats_with.n_calls - stats_without.n_calls) / stats_without.n_calls
            )
        means[m_expected] = sum(ratios) / len(ratios)
    return means


def test_criterion_6a_sparsest_mean_ratio_nonpositive(fig3_mean_ratios):
    sparsest = fig3_mean_ratios[FIG3_GRID[0]]
    check("6a fig3 sparsest mean ratio<=0", sparsest <= 0.0, f"mean={sparsest:.3f}")


def test_criterion_6b_savings_largest_at_sparse_end(fig3_mean_ratios):
    # Paper claim; measured savings instead peak at the dense end (see notes).
    sparsest = fig3_mean_ratios[FIG3_GRID[0]]
    ok = sparsest == min(fig3_mean_ratios.values())
    check(
        "6b fig3 savings largest at sparse end",
        ok,
        " ".join(f"{m}:{r:.3f}" for m, r in sorted(fig3_mean_ratios.items())),
    )


# --- criterion 7: soundness sweep ---------------------------------------------


def test_criterion_7_soundness_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    strong_violations = 0
    weak_losses = 0
    bound_violations = 0
    dominance_violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 15))
        q = random_qubo(rng, n, coeff_range=(-4, 4), density=float(rng.uniform(0.2, 0.9)))
        minimum, minimizers = brute_force_qubo(q, enumerate_all=True)
        res = analyze(q)
        if res.bound > minimum:
            bound_violations += 1
        min_set = set(minimizers)
        for var, val in res.strong.items():
            if any(m[var] != val for m in min_set):
                strong_violations += 1
                break
        if not any(all(m[v] == val for v, val in res.weak.items()) for m in min_set):
            weak_losses += 1
        red = reduce_by(q, res, mode="weak")
        if brute_force_qubo(red.reduced)[0] + red.delta != minimum:
            weak_losses += 1
        out = probe(q)
        if out.bound > minimum:
            bound_violations += 1
        if out.probe_pct < res.weak_pct:
            dominance_violations += 1
        if brute_force_qubo(out.reduction.reduced)[0] + out.reduction.delta != minimum:
            weak_losses += 1
    elapsed = time.perf_counter() - start
    ok = (
        strong_violations == 0
        and weak_losses == 0
        and bound_violations == 0
        and dominance_violations == 0
        and elapsed < 300.0
    )
    check(
        "7 soundness sweep (500 instances)",
        ok,
        f"strong={strong_violations} weak_loss={weak_losses} bound={bound_violations} "
        f"dominance={dominance_violations} in {elapsed:.0f}s",
    )


# --- criterion 8: submodular tightness -----------------------------------------


def test_criterion_8_submodular_tightness():
    rng = np.random.default_rng(777)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 15))
        lin = {i: int(rng.integers(-4, 5)) for i in range(n)}
        quad = {
            (i, j): int(rng.integers(-4, 0))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        }
        q = Qubo.from_terms(n, lin, quad)
        minimum, _ = brute_force_qubo(q)
        res = analyze(q)
        if roof_dual(q) != minimum or res.weak_pct != 100.0:
            ok = False
            break
    check("8 submodular tightness (100 instances)", ok)


# --- criterion 9: decomposition correctness ------------------------------------


def test_criterion_9_decomposition_correctness():
    rng = np.random.default_rng(99)
    solver = default_leaf_solver(12)
    ok = True
    runs = 0
    for graph_index in range(50):
        n = int(rng.integers(8, 41))
        p = [0.2, 0.5, 0.8][graph_index % 3]
        g = gen_gnp(n, p, 5000 + graph_index)
        reference = len(exact_max_clique(g))
        for use_persistency in (False, True):
            clique, _ = max_clique_split(g, solver, use_persistency=use_persistency)
            runs += 1
            if len(clique) != reference or not g.is_clique(clique):
                ok = False
    check("9 decomposition vs oracle (100 runs)", ok, f"runs={runs}")


# --- criterion 10: exact identities ---------------------------------------------


def test_criterion_10_exact_identities():
    rng = np.random.default_rng(1234)
    ok = True
    for _ in range(12):
        n = int(rng.integers(4, 17))
        g = gen_gnp(n, float(rng.uniform(0.2, 0.8)), int(rng.integers(0, 10**6)))
        clique_min, _ = brute_force_qubo(clique_qubo(g))
        if -clique_min != len(exact_max_clique(g)):
            ok = False
        ising_min, _ = brute_force_qubo(ising_to_qubo(maxcut_ising(g)))
        cut = Fraction(g.num_edges - ising_min, 2)
        if cut != exact_max_cut(g)[1]:
            ok = False
    check("10 exact identities (clique & cut)", ok)
