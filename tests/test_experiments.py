"""Experiment harness plumbing tests (row structure, CSV, graph mapping)."""

import csv
from pathlib import Path

import pytest

from quboprep import experiments
from quboprep.cli import main
from quboprep.experiments import (
    degree_to_density_pct,
    make_graph,
    problem_qubo,
    run_fig3,
    run_table2,
    write_csv,
)
from quboprep.graphs import gen_cfat, gen_g


def test_make_graph_families():
    assert make_graph("cfat", 50, 1) == gen_cfat(50, 1)
    assert make_graph("g", 30, 10, 4) == gen_g(30, 10, 4)
    assert make_graph("hamming", 4, 2).n == 16
    with pytest.raises(ValueError):
        make_graph("mystery", 10, 1)


def test_degree_mapping():
    assert degree_to_density_pct(501, 5) == 1.0


def test_problem_qubo_variants():
    g = make_graph("gnp", 8, 0.5, 0)
    assert problem_qubo(g, "clique4").num_vars == 8
    assert problem_qubo(g, "clique5").offset > 0
    assert problem_qubo(g, "cut").num_vars == 8
    with pytest.raises(ValueError):
        problem_qubo(g, "tsp")


def test_table2_rows_structure():
    rows = run_table2()
    assert len(rows) == 4
    eq4 = rows[0]
    assert eq4["formulation"] == "clique4"
    assert eq4["qubo_terms"] == 1280
    assert rows[1]["qubo_dense_size"] == 65536
    cfat_eq4 = rows[2]
    assert cfat_eq4["note"]  # flagged as unverifiable against the paper


def test_fig3_rows_carry_parameters(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "FIG3_EDGE_GRID", [30])
    rows = run_fig3(n=20, threshold=6, seeds=2)
    assert len(rows) == 2
    for row in rows:
        assert {"n", "expected_edges", "seed", "threshold", "n_qpbo", "n_no_qpbo", "ratio"} <= set(row)
    path = tmp_path / "fig3.csv"
    write_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert "seed" in header and "ratio" in header


def test_write_csv_requires_rows(tmp_path):
    with pytest.raises(ValueError):
        write_csv([], tmp_path / "x.csv")


def _untimed_rows(path):
    with open(path, newline="") as f:
        return [{k: v for k, v in row.items() if k != "seconds"} for row in csv.DictReader(f)]


def test_fig3_rows_match_golden(tmp_path, capsys):
    """``quboprep experiment fig3 --seeds 1`` (n = 100, threshold 15) gives
    the recorded rows in every column but the timing: the leaf calls with
    and without persistency and the clique size, end to end."""
    assert main(["experiment", "fig3", "--seeds", "1", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    golden = _untimed_rows(Path(__file__).parent / "data" / "fig3_golden.csv")
    assert len(golden) == 5
    assert _untimed_rows(tmp_path / "fig3.csv") == golden


def test_table3_desk_rows_match_golden(tmp_path, capsys):
    """``quboprep experiment table3 --desk-scale --seeds 1`` gives the
    recorded rows in every column but the timing: the max-cut persistency
    percentages, bounds and probe percentages of the nine n = 200 rows, end
    to end through the CLI's dispatch and probing."""
    argv = ["experiment", "table3", "--desk-scale", "--seeds", "1", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    golden = _untimed_rows(Path(__file__).parent / "data" / "table3_desk_golden.csv")
    assert len(golden) == 9
    assert _untimed_rows(tmp_path / "table3.csv") == golden


@pytest.mark.parametrize("desk_scale, computed", [(True, 5), (False, 9)])
def test_table3_computes_each_distinct_row_once(desk_scale, computed, monkeypatch):
    """At desk scale the n = 500 and n = 1000 rows of a family and degree
    become one task; it is computed once and its row repeated in place, as
    a copy of its own."""
    seen = []
    monkeypatch.setattr(experiments, "_table3_row", lambda task: seen.append(task) or {"task": task})
    rows = experiments.run_table3(seeds=1, desk_scale=desk_scale)
    assert len(seen) == len(set(seen)) == computed
    rows_in_order = [(f, 200 if desk_scale else n, d) for f, n, d in experiments.TABLE3_ROWS]
    assert [row["task"][:3] for row in rows] == rows_in_order
    assert len({id(row) for row in rows}) == len(rows)
