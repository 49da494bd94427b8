"""Command-line front end: reduce problems, run experiments, solve instances.

Exit codes: 0 success, 2 input errors (an ``OSError`` or a parse error) and
usage errors (split flags outside ``solve clique --split`` or together too),
3 oracle size-guard violations, 4 solution-validation failures.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

from . import experiments, graphs, oracle, problems
from .decompose import DEFAULT_THRESHOLD, default_leaf_solver, max_clique_split
from .errors import FormatError, SizeGuardError, SolverValidationError
from .model import Qubo, read_qubo, write_qubo
from .persistency import analyze
from .persistency import reduce as reduce_by_persistency
from .probing import probe

EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_VALIDATION = 4
EXIT_CODES = {
    FormatError: EXIT_PARSE,
    OSError: EXIT_PARSE,
    SizeGuardError: EXIT_GUARD,
    SolverValidationError: EXIT_VALIDATION,
}


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="DIMACS graph or QUBO file")
    parser.add_argument(
        "--family",
        choices=["cfat", "hamming", "g", "u", "gnp"],
        help="generated graph family (alternative to --input)",
    )
    parser.add_argument("--n", type=int, help="vertex count (bits for hamming)")
    parser.add_argument(
        "--param",
        help="family parameter: c (cfat), d (hamming), density %% (g/u), p (gnp)",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")


def _load_graph(args) -> graphs.Graph:
    if args.input:
        return graphs.read_dimacs(args.input)
    if not args.family:
        raise FormatError("need --input or --family")
    if args.n is None or args.param is None:
        raise FormatError(f"family {args.family!r} needs --n and --param")
    try:
        return experiments.make_graph(args.family, args.n, args.param, args.seed)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _load_qubo(args) -> tuple[Qubo, graphs.Graph | None]:
    if args.input and args.input.endswith(".qubo"):
        with open(args.input) as f:
            return read_qubo(f), None
    g = _load_graph(args)
    return experiments.problem_qubo(g, args.problem), g


def cmd_reduce(args) -> int:
    q, _ = _load_qubo(args)
    res = analyze(q)
    record = {
        "num_vars": q.num_vars,
        "qubo_terms": q.num_terms,
        "strong_pct": round(res.strong_pct, 2),
        "weak_pct": round(res.weak_pct, 2),
        "bound": str(res.bound),
    }
    report_lines = [res.to_csv_text()]
    if args.probe:
        out = probe(q, max_passes=args.max_passes)
        record["probe_pct"] = round(out.probe_pct, 2)
        record["probe_passes"] = out.passes
        record["probe_bound"] = str(out.bound)
        reduction = out.reduction
        report_lines.append(out.to_csv_text())
    else:
        reduction = reduce_by_persistency(q, res, mode=args.mode)
    record["reduced_vars"] = reduction.reduced.num_vars
    if args.out:
        with open(args.out, "w") as f:
            write_qubo(reduction.reduced, f)
        record["reduced_file"] = args.out
    if args.report:
        Path(args.report).write_text("\n\n".join(report_lines) + "\n")
    if args.json:
        print(json.dumps(record))
    else:
        for key, value in record.items():
            print(f"{key}: {value}")
    return 0


def cmd_solve(args) -> int:
    flags = (args.split, args.threshold is not None, args.probe_in_split, not args.persistency)
    outside = args.target != "clique" or not args.split
    if (any(flags) and outside) or (args.probe_in_split and not args.persistency):
        raise FormatError(
            "--split, --threshold, --no-persistency and --probe-in-split need solve clique"
            " --split; --no-persistency and --probe-in-split exclude each other"
        )
    g = _load_graph(args)
    t0 = time.perf_counter()
    if args.target == "clique":
        if args.split:
            solver = default_leaf_solver(args.threshold or DEFAULT_THRESHOLD)
            clique, stats = max_clique_split(
                g, solver, use_persistency=args.persistency, use_probing=args.probe_in_split
            )
            extra = {
                "n_calls": stats.n_calls,
                "max_depth": stats.max_depth,
                "eliminated_by_persistency": stats.vertices_eliminated_by_persistency,
            }
        else:
            clique = oracle.exact_max_clique(g)
            extra = {}
        members = set(clique)
        support, valid = problems.decode_clique(g, [int(v in members) for v in range(g.n)])
        if not valid:
            raise SolverValidationError(f"produced vertex set {support} is not a clique")
        if args.split and g.n <= 40:
            reference = len(oracle.exact_max_clique(g))
            if len(support) != reference:
                raise SolverValidationError(
                    f"clique size {len(support)} differs from exact size {reference}"
                )
        record = {
            "problem": "clique",
            "n": g.n,
            "num_edges": g.num_edges,
            "clique_size": len(support),
            "clique": list(support),
            **extra,
        }
    else:
        (side0, side1), value = oracle.exact_max_cut(g)
        ones = set(side1)
        assignment = [int(v in ones) for v in range(g.n)]
        (d0, d1), recomputed = problems.decode_cut(g, assignment)
        if recomputed != value:
            raise SolverValidationError("cut value mismatch between solver and decoder")
        record = {
            "problem": "cut",
            "n": g.n,
            "num_edges": g.num_edges,
            "cut_value": value,
            "side1": list(side1),
        }
    record["seconds"] = round(time.perf_counter() - t0, 3)
    print(json.dumps(record) if args.json else "\n".join(f"{k}: {v}" for k, v in record.items()))
    return 0


def cmd_experiment(args) -> int:
    """Run ``experiments.EXPERIMENTS[args.which]`` with the options given,
    each of which it has to take; the rest keep the run function's
    defaults."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "which")}
    outdir = Path(options.pop("outdir", None) or experiments.default_outdir())
    name = args.which
    run = experiments.EXPERIMENTS[name]
    accepted = inspect.signature(run).parameters
    unknown = [k for k in options if k not in accepted]
    if unknown:
        flags = ["--no-probe" if k == "with_probe" else "--" + k.replace("_", "-") for k in unknown]
        raise FormatError(f"experiment {name} does not take {', '.join(flags)}")
    if name == "fig3":
        n = options.get("n", accepted["n"].default)
        pairs, most = n * (n - 1) // 2, max(experiments.FIG3_EDGE_GRID)
        if pairs < most:
            raise FormatError(
                f"fig3 --n {n} has {pairs} vertex pairs, below its grid's {most} edges"
            )
    rows = run(**options)
    path = outdir / f"{name}.csv"
    experiments.write_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_oracle(args) -> int:
    if args.what == "min":
        if args.input is None:
            raise FormatError("oracle min needs --input")
        with open(args.input) as f:
            q = read_qubo(f)
        energy, minimizers = oracle.brute_force_qubo(q, enumerate_all=args.all)
        print(f"min_energy: {energy}")
        print(f"minimizers: {len(minimizers)}")
        if args.all:
            for m in minimizers[:64]:
                print("".join(str(b) for b in m))
    elif args.what == "clique":
        g = _load_graph(args)
        clique = oracle.exact_max_clique(g)
        print(f"clique_size: {len(clique)}")
        print(f"clique: {list(clique)}")
    elif args.what == "cut":
        g = _load_graph(args)
        (s0, s1), value = oracle.exact_max_cut(g)
        print(f"cut_value: {value}")
        print(f"side1: {list(s1)}")
    else:  # verify
        g = _load_graph(args)
        q = experiments.problem_qubo(g, args.problem)
        result = probe(q) if args.probe else analyze(q)
        report = oracle.verify_persistency(q, result)
        print(f"ok: {report.ok}")
        print(f"minimizers: {report.num_minimizers}")
        if not report.ok:
            print(f"detail: {report.detail}")
            return EXIT_VALIDATION
    return 0


def cmd_gen(args) -> int:
    g = _load_graph(args)
    graphs.write_dimacs(g, args.out)
    print(f"wrote {g.n} vertices, {g.num_edges} edges to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quboprep",
        description="Roof-duality preprocessing for QUBO/Ising problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="persistency/probing report plus reduced QUBO")
    _add_graph_args(p_reduce)
    p_reduce.add_argument("--problem", choices=["clique4", "clique5", "cut"], default="clique4")
    p_reduce.add_argument("--probe", action="store_true", help="also run probing")
    p_reduce.add_argument("--max-passes", type=int, default=10)
    p_reduce.add_argument("--mode", choices=["strong", "weak"], default="weak")
    p_reduce.add_argument("--out", help="write the reduced QUBO here")
    p_reduce.add_argument("--report", help="write var,value,class rows here")
    p_reduce.add_argument("--json", action="store_true")
    p_reduce.set_defaults(fn=cmd_reduce)

    p_solve = sub.add_parser("solve", help="solve Maximum Clique / Maximum Cut")
    p_solve.add_argument("target", choices=["clique", "cut"])
    _add_graph_args(p_solve)
    p_solve.add_argument("--split", action="store_true", help="use the vertex-splitting solver")
    p_solve.add_argument("--threshold", type=_positive_int, help=f"default {DEFAULT_THRESHOLD}")
    p_solve.add_argument(
        "--no-persistency",
        dest="persistency",
        action="store_false",
        help="disable persistency shrinking inside the split recursion",
    )
    p_solve.add_argument(
        "--probe-in-split",
        action="store_true",
        help="probe every subgraph too (much slower)",
    )
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(fn=cmd_solve)

    # Only the options given reach the run function, which must take them.
    p_exp = sub.add_parser(
        "experiment", help="reproduce a table/figure as CSV", argument_default=argparse.SUPPRESS
    )
    p_exp.add_argument("which", choices=sorted(experiments.EXPERIMENTS))
    p_exp.add_argument("--outdir", help="output directory (default $QUBOPREP_OUTDIR or ./results)")
    p_exp.add_argument("--seeds", type=_positive_int, help="seeds per row")
    p_exp.add_argument("--jobs", type=int, help="worker processes")
    p_exp.add_argument("--no-probe", dest="with_probe", action="store_false", help="skip probing")
    p_exp.add_argument("--desk-scale", action="store_true", help="table3 at n=200")
    p_exp.add_argument("--n", type=_positive_int, help="fig3 graph size")
    p_exp.add_argument("--threshold", type=_positive_int, help="fig3 leaf threshold")
    p_exp.set_defaults(fn=cmd_experiment)

    p_oracle = sub.add_parser("oracle", help="exact reference solvers")
    p_oracle.add_argument("what", choices=["min", "clique", "cut", "verify"])
    _add_graph_args(p_oracle)
    p_oracle.add_argument("--problem", choices=["clique4", "clique5", "cut"], default="clique4")
    p_oracle.add_argument("--all", action="store_true", help="enumerate all minimizers")
    p_oracle.add_argument("--probe", action="store_true", help="verify a probe outcome")
    p_oracle.set_defaults(fn=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a benchmark graph as DIMACS")
    _add_graph_args(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
