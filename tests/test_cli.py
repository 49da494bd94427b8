"""CLI surface tests: commands, file formats, exit codes."""

import functools
import json

import pytest

from quboprep import experiments
from quboprep.cli import EXIT_GUARD, EXIT_PARSE, main
from quboprep.graphs import gen_gnp, write_dimacs
from quboprep.model import read_qubo


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_reduce_hamming_weak_100(capsys):
    code, out, _ = run(
        ["reduce", "--family", "hamming", "--n", "6", "--param", "2", "--json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["weak_pct"] == 100.0
    assert record["strong_pct"] == 0.0
    assert record["reduced_vars"] == 0


def test_reduce_empty_graph_trivially_resolved(tmp_path, capsys):
    graph_file = tmp_path / "empty.dimacs"
    graph_file.write_text("p edge 0 0\n")
    out_file = tmp_path / "reduced.qubo"
    code, out, _ = run(
        ["reduce", "--input", str(graph_file), "--out", str(out_file), "--json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["weak_pct"] == 100.0
    assert record["reduced_vars"] == 0
    with open(out_file) as f:
        assert read_qubo(f).num_vars == 0


def test_reduce_probe_writes_reduced_qubo(tmp_path, capsys):
    out_file = tmp_path / "reduced.qubo"
    report_file = tmp_path / "report.csv"
    code, out, _ = run(
        [
            "reduce", "--family", "cfat", "--n", "50", "--param", "1",
            "--probe", "--out", str(out_file), "--report", str(report_file),
            "--json",
        ],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["probe_pct"] == 100.0
    assert "var,value,class" in report_file.read_text()


def test_reduce_qubo_file_roundtrip(tmp_path, capsys):
    qubo_file = tmp_path / "problem.qubo"
    qubo_file.write_text("p qubo 2 2\n0 0 -1\n1 1 -2\n")
    code, out, _ = run(["reduce", "--input", str(qubo_file), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["weak_pct"] == 100.0


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.qubo"
    bad.write_text("p qubo nope\n")
    code, _, err = run(["reduce", "--input", str(bad)], capsys)
    assert code == EXIT_PARSE
    assert "error" in err


def test_missing_family_args_exit_code(capsys):
    code, _, err = run(["reduce", "--family", "cfat"], capsys)
    assert code == EXIT_PARSE


def test_solve_clique_split_matches_oracle(tmp_path, capsys):
    code, out, _ = run(
        [
            "solve", "clique", "--family", "gnp", "--n", "30", "--param", "0.5",
            "--seed", "3", "--split", "--threshold", "10", "--json",
        ],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    from quboprep.oracle import exact_max_clique

    g = gen_gnp(30, 0.5, 3)
    assert record["clique_size"] == len(exact_max_clique(g))


def test_solve_cut_k2(tmp_path, capsys):
    graph_file = tmp_path / "k2.dimacs"
    graph_file.write_text("p edge 2 1\ne 1 2\n")
    code, out, _ = run(["solve", "cut", "--input", str(graph_file), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["cut_value"] == 1


def test_solve_cut_guard_exit_code(capsys):
    code, _, err = run(
        ["solve", "cut", "--family", "gnp", "--n", "30", "--param", "0.5"], capsys
    )
    assert code == EXIT_GUARD


def test_solve_clique_dimacs_file(tmp_path, capsys):
    g = gen_gnp(25, 0.4, 9)
    path = tmp_path / "g.dimacs"
    write_dimacs(g, path)
    code, out, _ = run(["solve", "clique", "--input", str(path), "--json"], capsys)
    assert code == 0
    from quboprep.oracle import exact_max_clique

    assert json.loads(out)["clique_size"] == len(exact_max_clique(g))


def test_gen_then_oracle_verify(tmp_path, capsys):
    path = tmp_path / "gen.dimacs"
    code, out, _ = run(
        ["gen", "--family", "gnp", "--n", "12", "--param", "0.5", "--seed", "1",
         "--out", str(path)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["oracle", "verify", "--input", str(path)], capsys)
    assert code == 0
    assert "ok: True" in out


def test_oracle_min_subcommand(tmp_path, capsys):
    qubo_file = tmp_path / "problem.qubo"
    qubo_file.write_text("p qubo 2 1\n0 1 -3\n")
    code, out, _ = run(["oracle", "min", "--input", str(qubo_file), "--all"], capsys)
    assert code == 0
    assert "min_energy: -3" in out


def test_experiment_fig2_writes_csv(tmp_path, capsys):
    code, out, _ = run(
        ["experiment", "fig2", "--outdir", str(tmp_path), "--seeds", "1"],
        capsys,
    )
    assert code == 0
    content = (tmp_path / "fig2.csv").read_text().splitlines()
    assert content[0].startswith("mode,p,seed")
    assert len(content) > 10


@pytest.mark.parametrize(
    "name, extra, expected",
    [
        ("table1", ["--no-probe"], {"with_probe": False, "jobs": 2}),
        ("table2", [], {"jobs": 2}),
        (
            "table3",
            ["--seeds", "3", "--desk-scale"],
            {"seeds": 3, "with_probe": True, "jobs": 2, "desk_scale": True},
        ),
        ("fig2", ["--seeds", "4"], {"seeds": 4, "jobs": 2}),
        (
            "fig3",
            ["--n", "30", "--threshold", "7", "--seeds", "2"],
            {"n": 30, "threshold": 7, "seeds": 2, "jobs": 2},
        ),
    ],
)
def test_experiment_dispatch_forwards_options(name, extra, expected, tmp_path, capsys, monkeypatch):
    """Each experiment gets exactly the options its run function takes."""
    calls = []
    real = experiments.EXPERIMENTS[name]

    @functools.wraps(real)
    def fake(**kwargs):
        calls.append(kwargs)
        return [{"row": 1}]

    monkeypatch.setitem(experiments.EXPERIMENTS, name, fake)
    code, out, _ = run(["experiment", name, "--outdir", str(tmp_path), "--jobs", "2", *extra], capsys)
    assert code == 0
    assert calls == [expected]
    assert (tmp_path / f"{name}.csv").read_text().splitlines() == ["row", "1"]


def test_experiment_dispatch_covers_every_experiment():
    assert sorted(experiments.EXPERIMENTS) == ["fig2", "fig3", "table1", "table2", "table3"]
