"""Experiment harness: the persistency tables and figure sweeps as CSV rows.

Each experiment returns a list of dicts (one CSV row each) carrying every
parameter and seed needed to reproduce the row bit-exactly.  Rows can be
computed in a process pool; output order is always sorted by parameters,
not completion time.

Conventions pinned here (see README): table3's parameter column is the
expected average degree (edge probability p/(n-1), geometric radius
calibrated to the same expected degree); deterministic families carry
seed = -1.
"""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterable

from . import graphs, problems
from .decompose import default_leaf_solver, splitting_savings
from .model import Qubo, ising_to_qubo
from .oracle import exact_max_clique
from .persistency import analyze
from .probing import probe

TABLE1_ROWS = [
    ("cfat", 200, 1),
    ("cfat", 200, 5),
    ("cfat", 500, 1),
    ("cfat", 500, 5),
    ("hamming", 6, 2),
    ("hamming", 6, 4),
    ("hamming", 8, 2),
    ("hamming", 8, 4),
]

TABLE3_ROWS = [
    ("g", 500, 2.5),
    ("g", 500, 5.0),
    ("g", 500, 10.0),
    ("g", 1000, 2.5),
    ("g", 1000, 5.0),
    ("u", 500, 5.0),
    ("u", 500, 10.0),
    ("u", 1000, 5.0),
    ("u", 1000, 10.0),
]

FIG2_GRID = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
FIG3_EDGE_GRID = [400, 800, 1600, 2400, 3200]


def make_graph(family: str, n: int, param, seed=None) -> graphs.Graph:
    """Build a benchmark graph; param meaning depends on the family."""
    family = family.lower()
    if family == "cfat":
        return graphs.gen_cfat(n, int(param))
    if family == "hamming":
        return graphs.gen_hamming(n, int(param))
    if family == "g":
        return graphs.gen_g(n, float(param), seed)
    if family == "u":
        return graphs.gen_u(n, float(param), seed)
    if family == "gnp":
        return graphs.gen_gnp(n, float(param), seed)
    raise ValueError(f"unknown graph family {family!r}")


def degree_to_density_pct(n: int, degree: float) -> float:
    """Expected-average-degree parameter to the generators' density percent."""
    return 100.0 * float(degree) / (n - 1)


def problem_qubo(g: graphs.Graph, problem: str) -> Qubo:
    """clique4 (complement penalty), clique5 (fixed size, K from the exact
    oracle), or cut (max-cut Ising converted to a QUBO)."""
    if problem == "clique4":
        return problems.clique_qubo(g, problems.CliqueEncodingParams.complement_penalty())
    if problem == "clique5":
        k = len(exact_max_clique(g))
        return problems.clique_qubo(g, problems.CliqueEncodingParams.fixed_size(k))
    if problem == "cut":
        return ising_to_qubo(problems.maxcut_ising(g))
    raise ValueError(f"unknown problem {problem!r}")


def _table1_row(args) -> dict:
    family, n, param, with_probe = args
    g = make_graph(family, n, param)
    q = problem_qubo(g, "clique4")
    t0 = time.perf_counter()
    res = analyze(q)
    row = {
        "family": family,
        "n": g.n,
        "param": param,
        "seed": -1,
        "num_edges": g.num_edges,
        "qubo_terms": q.num_terms,
        "strong_pct": f"{res.strong_pct:.2f}",
        "weak_pct": f"{res.weak_pct:.2f}",
        "bound": str(res.bound),
    }
    if with_probe:
        out = probe(q)
        row["probe_pct"] = f"{out.probe_pct:.2f}"
        row["probe_passes"] = out.passes
    row["seconds"] = f"{time.perf_counter() - t0:.2f}"
    return row


def run_table1(with_probe: bool = True, jobs: int = 1) -> list[dict]:
    """Strong/weak/probe percentages for the c-fat and Hamming clique rows."""
    tasks = [(f, n, p, with_probe) for f, n, p in TABLE1_ROWS]
    return _pool_map(_table1_row, tasks, jobs)


def _table2_row(args) -> dict:
    family, n, param, formulation = args
    g = make_graph(family, n, param)
    q = problem_qubo(g, formulation)
    res = analyze(q)
    note = ""
    if family == "cfat" and formulation == "clique4":
        note = "paper tables disagree on this row; reported, not asserted"
    return {
        "family": family,
        "n": g.n,
        "param": param,
        "seed": -1,
        "formulation": formulation,
        "qubo_terms": q.num_terms,
        "qubo_dense_size": q.dense_size,
        "strong_pct": f"{res.strong_pct:.2f}",
        "weak_pct": f"{res.weak_pct:.2f}",
        "note": note,
    }


def run_table2(jobs: int = 1) -> list[dict]:
    """Eq.(4)-vs-Eq.(5) formulation comparison on Hamming(8,2), c-fat(200,1)."""
    tasks = [
        ("hamming", 8, 2, "clique4"),
        ("hamming", 8, 2, "clique5"),
        ("cfat", 200, 1, "clique4"),
        ("cfat", 200, 1, "clique5"),
    ]
    return _pool_map(_table2_row, tasks, jobs)


def _table3_row(args) -> dict:
    family, n, degree, seed, with_probe = args
    g = make_graph(family, n, degree_to_density_pct(n, degree), seed)
    q = problem_qubo(g, "cut")
    t0 = time.perf_counter()
    res = analyze(q)
    row = {
        "family": family,
        "n": n,
        "degree": degree,
        "seed": seed,
        "num_edges": g.num_edges,
        "strong_pct": f"{res.strong_pct:.2f}",
        "weak_pct": f"{res.weak_pct:.2f}",
        "bound": str(res.bound),
    }
    if with_probe:
        out = probe(q)
        row["probe_pct"] = f"{out.probe_pct:.2f}"
    row["seconds"] = f"{time.perf_counter() - t0:.2f}"
    return row


def run_table3(
    seeds: int = 5,
    with_probe: bool = True,
    jobs: int = 1,
    desk_scale: bool = False,
) -> list[dict]:
    """Max-cut persistency on g (random) and U (geometric) graphs.

    The parameter column is the expected average degree.  desk_scale shrinks
    every row to n=200 keeping the degree (twin rows are computed once).
    """
    base = [(f, 200 if desk_scale else n, d) for f, n, d in TABLE3_ROWS]
    tasks = [(f, n, d, s, with_probe) for f, n, d in base for s in range(seeds)]
    unique = list(dict.fromkeys(tasks))
    rows = dict(zip(unique, _pool_map(_table3_row, unique, jobs)))
    return [dict(rows[task]) for task in tasks]


def _fig2_row(args) -> dict:
    mode, p, seed = args
    g = graphs.perturb(graphs.gen_hamming(8, 2), p, mode, seed)
    q = problem_qubo(g, "clique4")
    res = analyze(q)
    return {
        "mode": mode,
        "p": p,
        "seed": seed,
        "num_edges": g.num_edges,
        "strong_pct": f"{res.strong_pct:.2f}",
        "weak_pct": f"{res.weak_pct:.2f}",
    }


def run_fig2(seeds: int = 5, jobs: int = 1) -> list[dict]:
    """Perturbation sweeps on Hamming(8,2): insert mode traces strong
    persistency growth, delete mode the collapse of weak persistency."""
    tasks = [(m, p, s) for m in ("insert", "delete") for p in FIG2_GRID for s in range(seeds)]
    return _pool_map(_fig2_row, tasks, jobs)


def _fig3_row(args) -> dict:
    n, m_expected, seed, threshold = args
    p = m_expected / (n * (n - 1) / 2)
    g = graphs.gen_gnp(n, p, seed)
    t0 = time.perf_counter()
    row = splitting_savings([g], default_leaf_solver(threshold))[0]
    return {
        "n": n,
        "expected_edges": m_expected,
        "seed": seed,
        "threshold": threshold,
        "num_edges": g.num_edges,
        "n_qpbo": row.n_qpbo,
        "n_no_qpbo": row.n_no_qpbo,
        "ratio": f"{row.ratio:.4f}",
        "clique_size": row.clique_size,
        "seconds": f"{time.perf_counter() - t0:.2f}",
    }


def run_fig3(n: int = 100, threshold: int = 15, seeds: int = 5, jobs: int = 1) -> list[dict]:
    """Leaf-call savings of persistency-aware splitting over FIG3_EDGE_GRID."""
    tasks = [(n, m, s, threshold) for m in FIG3_EDGE_GRID for s in range(seeds)]
    return _pool_map(_fig3_row, tasks, jobs)


def _pool_map(fn: Callable, tasks: list, jobs: int) -> list[dict]:
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def default_outdir() -> Path:
    return Path(os.environ.get("QUBOPREP_OUTDIR", "results"))


def write_csv(rows: Iterable[dict], path) -> None:
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    fields: list[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "fig2": run_fig2,
    "fig3": run_fig3,
}
