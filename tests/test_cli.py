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


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["solve", "clique", "--family", "gnp", "--n", "5", "--param", "1.5"],
            "p must be in [0, 1]",
        ),
        (
            ["reduce", "--family", "hamming", "--n", "0", "--param", "2"],
            "need 1 <= d <= bits <= 16",
        ),
    ],
    ids=["solve-gnp-p", "reduce-hamming-bits"],
)
def test_out_of_range_family_args_exit_code(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_PARSE
    assert err == f"error: {message}\n"
    assert out == ""


def test_gen_negative_vertex_count_writes_no_file(tmp_path, capsys):
    out_file = tmp_path / "g.dimacs"
    argv = ["gen", "--family", "gnp", "--n", "-1", "--param", "0.5", "--out", str(out_file)]
    code, out, err = run(argv, capsys)
    assert code == EXIT_PARSE
    assert err == "error: vertex count must be nonnegative\n"
    assert out == ""
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "clique", "--family", "gnp", "--n", "10", "--param", "0.5", "--split"],
        ["experiment", "fig3"],
    ],
    ids=["solve", "experiment"],
)
@pytest.mark.parametrize("threshold", ["0", "-3", "x"])
def test_nonpositive_threshold_is_a_usage_error(argv, threshold, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threshold", threshold])
    assert exc.value.code == 2  # argparse's usage-error status
    assert "--threshold" in capsys.readouterr().err


@pytest.mark.parametrize("which, option", [("table3", "--seeds"), ("fig3", "--n")])
def test_nonpositive_experiment_sizes_are_usage_errors(which, option, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", which, "--outdir", str(tmp_path), option, "0"])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("n, pairs", [(20, 190), (1, 0), (80, 3160)])
def test_fig3_n_must_leave_room_for_every_edge_count(n, pairs, tmp_path, capsys):
    """fig3's largest grid value is 3200 expected edges; an n with fewer
    vertex pairs is an input error that names both numbers."""
    code, _, err = run(["experiment", "fig3", "--outdir", str(tmp_path), "--n", str(n)], capsys)
    assert code == EXIT_PARSE
    assert f"--n {n} has {pairs} vertex pairs" in err and "3200" in err
    assert not (tmp_path / "fig3.csv").exists()


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


@pytest.mark.parametrize(
    "target, flags",
    [
        ("clique", ["--probe-in-split"]),
        ("clique", ["--no-persistency"]),
        ("cut", ["--split", "--probe-in-split"]),
        ("cut", ["--split", "--no-persistency"]),
        ("cut", ["--probe-in-split"]),
        ("clique", ["--split", "--probe-in-split", "--no-persistency"]),
        ("clique", ["--split", "--no-persistency", "--probe-in-split"]),
        ("cut", ["--split"]),
        ("cut", ["--split", "--threshold", "3"]),
        ("cut", ["--threshold", "3"]),
        ("clique", ["--threshold", "3"]),
        ("clique", ["--threshold", "45", "--no-persistency"]),
    ],
)
def test_split_flags_without_a_split_are_input_errors(target, flags, capsys):
    argv = ["solve", target, "--family", "gnp", "--n", "10", "--param", "0.5", *flags]
    code, out, err = run(argv, capsys)
    assert code == EXIT_PARSE
    assert err == (
        "error: --split, --threshold, --no-persistency and --probe-in-split need solve"
        " clique --split; --no-persistency and --probe-in-split exclude each other\n"
    )
    assert out == ""


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


def test_oracle_min_without_input_is_an_input_error(capsys):
    code, out, err = run(["oracle", "min"], capsys)
    assert code == EXIT_PARSE
    assert err == "error: oracle min needs --input\n"
    assert out == ""


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
            {"seeds": 3, "jobs": 2, "desk_scale": True},
        ),
        ("fig2", ["--seeds", "4"], {"seeds": 4, "jobs": 2}),
        (
            "fig3",
            ["--n", "81", "--threshold", "7", "--seeds", "2"],
            {"n": 81, "threshold": 7, "seeds": 2, "jobs": 2},
        ),
    ],
)
def test_experiment_dispatch_forwards_options(name, extra, expected, tmp_path, capsys, monkeypatch):
    """Each experiment gets exactly the options given; the rest keep the
    run function's defaults."""
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


@pytest.mark.parametrize(
    "name, extra, flags",
    [
        ("table1", ["--seeds", "2"], "--seeds"),
        (
            "table2",
            ["--seeds", "3", "--no-probe", "--desk-scale"],
            "--seeds, --no-probe, --desk-scale",
        ),
        ("table2", ["--threshold", "4"], "--threshold"),
        ("table3", ["--n", "50"], "--n"),
        (
            "fig2",
            ["--desk-scale", "--n", "50", "--threshold", "4"],
            "--desk-scale, --n, --threshold",
        ),
        ("fig3", ["--no-probe"], "--no-probe"),
    ],
)
def test_experiment_rejects_options_it_does_not_take(
    name, extra, flags, tmp_path, capsys, monkeypatch
):
    """A flag the chosen experiment does not take is a usage error, raised
    before any row runs."""
    real = experiments.EXPERIMENTS[name]

    @functools.wraps(real)
    def never(**kwargs):
        raise AssertionError(f"{name} ran with {kwargs}")

    monkeypatch.setitem(experiments.EXPERIMENTS, name, never)
    code, _, err = run(["experiment", name, "--outdir", str(tmp_path), *extra], capsys)
    assert code == EXIT_PARSE
    assert f"experiment {name} does not take {flags}" in err
    assert not (tmp_path / f"{name}.csv").exists()


def test_experiment_dispatch_covers_every_experiment():
    assert sorted(experiments.EXPERIMENTS) == ["fig2", "fig3", "table1", "table2", "table3"]
