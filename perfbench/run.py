"""quboprep benchmark: one workload per call, closed loop, one thread.

    python3 perfbench/run.py --workload probe-cfat --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  Operations run back to back in one process for
``--seconds`` seconds, each on a freshly built input, and each output is
checked.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics from a traced run with ``--trace 1``.
See README.md for the workloads and the metrics.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("probe-cfat", "probe-gcut", "split-dense", "probe-rational")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
# Yardstick time that defines the reference speed of `setup_s`: about its
# time on the 2-core Xeon host the benchmark was tuned on.
REFERENCE_YARDSTICK_S = 0.07


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "quboprep" / "__init__.py").is_file():
        _fail(f"no quboprep sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup_child(workload: str, seed: int) -> None:
    """Time imports plus generation and encoding of one input, in this fresh
    interpreter, and print the seconds."""
    t0 = perf_counter()
    workloads = _import_package()
    workloads.WORKLOADS[workload].build(workloads.op_seed(seed, 0))
    print(perf_counter() - t0)


def measure_setup(workload: str, seed: int, yardstick) -> tuple[float, float]:
    """Medians of SETUP_REPEATS fresh-interpreter set-ups: in raw seconds,
    and in seconds at the reference speed, each set-up scaled by the mean of
    the yardstick passes just before and just after it."""
    raw, scaled = [], []
    before = yardstick()[0]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-child", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            _fail(f"set-up child failed:\n{done.stderr}")
        after = yardstick()[0]
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * 2 * REFERENCE_YARDSTICK_S / (before + after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def metadata(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    rev = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        rev = done.stdout.strip() or rev
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "quboprep").glob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": rev,
        "src_lines": src_lines,
    }


class Yardstick:
    """A fixed piece of interpreter-bound work, timed around every operation.

    On a shared host the speed of this process drifts by up to a third over
    seconds to minutes.  An operation's time divided by the yardstick's time
    measured next to it cancels most of that drift.  The work resembles the
    package's exact layers (tuple-keyed dict updates and sorts, ``Fraction``
    arithmetic) but uses no quboprep code, so it is the same on every commit.
    """

    def __init__(self):
        rng = random.Random(0)
        self.pairs = [(rng.randrange(400), rng.randrange(400)) for _ in range(6000)]
        self.fractions = [Fraction(rng.randint(1, 29), rng.randint(1, 29)) for _ in range(3000)]

    def __call__(self) -> tuple[float, float]:
        """(wall s, cpu s) of one pass."""
        gc.collect()
        c0, t0 = process_time(), perf_counter()
        for _ in range(3):
            terms: dict = {}
            for a, b in self.pairs:
                key = (a, b) if a < b else (b, a)
                terms[key] = terms.get(key, 0) + a - b
            sorted(item for item in terms.items() if item[1])
        sums: dict = {}
        prev = self.fractions[-1]
        for i, f in enumerate(self.fractions):
            sums[i % 500] = sums.get(i % 500, 0) + f * prev - f / 3
            prev = f
        return perf_counter() - t0, process_time() - c0


def _timed(wl, inst, tracer=None):
    """(result, wall s, cpu s) of one operation; garbage of earlier
    operations is collected first so each starts from the same state.
    With a tracer, its wrappers are installed for the operation only."""
    gc.collect()
    with tracer.installed() if tracer is not None else nullcontext():
        c0, t0 = process_time(), perf_counter()
        result = wl.run(inst, tracer)
        wall, cpu = perf_counter() - t0, process_time() - c0
    return result, wall, cpu


class Tally:
    """Attempted and failed operations; a failure is logged, not raised."""

    def __init__(self, workloads):
        self.checked = workloads.CheckFailed
        self.attempted = 0
        self.failed = 0

    def run(self, wl, inst, tracer=None):
        """Timed operation plus its check; None when it failed."""
        self.attempted += 1
        try:
            result, wall, cpu = _timed(wl, inst, tracer)
            wl.check(inst, result)
        except self.checked as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
        except Exception:
            traceback.print_exc()
        else:
            return result, wall, cpu
        self.failed += 1
        return None


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(wl, workloads, seed: int, seconds: float, yardstick, setup: tuple[float, float]) -> dict:
    """Each operation's wall and CPU time relative to the mean of the two
    yardstick passes made just before and just after it; medians over the
    run.  ``setup`` is the pair returned by :func:`measure_setup`."""
    tally = Tally(workloads)
    walls, cpus, rel_walls, rel_cpus = [], [], [], []
    before = yardstick()
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        done = tally.run(wl, wl.build(workloads.op_seed(seed, k)))
        k += 1
        after = yardstick()
        if done is not None:
            walls.append(done[1])
            cpus.append(done[2])
            rel_walls.append(2 * done[1] / (before[0] + after[0]))
            rel_cpus.append(2 * done[2] / (before[1] + after[1]))
        before = after
    metrics = {}
    if walls:
        raw = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus), "setup_s": setup[0]}
        print("raw " + json.dumps(raw))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_rel": _metric(statistics.median(rel_walls), "x"),
            "cpu_rel": _metric(statistics.median(rel_cpus), "x"),
            "setup_s": _metric(setup[1], "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


# Per-layer metrics reported by every traced run (zero where a layer is
# bypassed); spans named in spans._targets plus the two root spans.
SPAN_LAYERS = (
    "model.from_terms",
    "model.fix_variables",
    "model.substitute",
    "posiform.to_posiform",
    "network.build_network",
    "network.max_flow",
    "persistency.extract_labels",
    "persistency.analyze",
    "fast.from_qubo",
    "fast.analyze_branch",
    "problems.clique_qubo",
    "graphs.induced",
    "graphs.adjacency",
    "oracle.exact_max_clique",
    "probing.probe",
    "decompose.max_clique_split",
)
COUNTS = {
    "probing.passes": "count",
    "probing.fixed": "count",
    "probing.relations": "count",
    "probing.resolved_pct": "%",
    "decompose.leaf_calls": "count",
    "decompose.leaf_calls_plain": "count",
    "decompose.eliminated": "count",
}


def run_traced(wl, workloads, seed: int, seconds: float) -> dict:
    """Each input runs untraced, then traced on a fresh copy built from the
    same seed; per-layer values are means per traced operation."""
    from spans import Tracer

    tally = Tally(workloads)
    tracer = Tracer()
    yardstick = Yardstick()
    op_starts: list[int] = []
    traced_walls, overheads, yardstick_walls = [], [], []
    counts: defaultdict[str, float] = defaultdict(float)
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        inst_seed = workloads.op_seed(seed, k)
        k += 1
        yardstick_walls.append(yardstick()[0])
        plain = tally.run(wl, wl.build(inst_seed))
        inst = wl.build(inst_seed)
        op_starts.append(len(tracer.spans))
        traced = tally.run(wl, inst, tracer)
        if plain is None or traced is None:
            continue
        traced_walls.append(traced[1])
        overheads.append(traced[1] - plain[1])
        for name, value in wl.counts(traced[0]).items():
            counts[name] += value

    ops = max(len(traced_walls), 1)
    seconds_by, calls_by = tracer.self_times()
    metrics = {}
    for name in SPAN_LAYERS:
        metrics[f"{name}.s"] = _metric(seconds_by.get(name, 0.0) / ops, "s")
        if name not in ("probing.probe", "decompose.max_clique_split"):
            metrics[f"{name}.calls"] = _metric(calls_by.get(name, 0) / ops, "count")
    flows = max(calls_by.get("network.max_flow", 0), 1)
    metrics["network.max_flow.arcs"] = _metric(tracer.counts["network.max_flow.arcs"] / flows, "arcs/flow")
    metrics["network.max_flow.nodes"] = _metric(tracer.counts["network.max_flow.nodes"] / flows, "nodes/flow")
    for name, unit in COUNTS.items():
        metrics[name] = _metric(counts[name] / ops, unit)
    branches = 2 * tracer.counts["probing.probes"]
    metrics["probing.branches"] = _metric(branches / ops, "count")
    metrics["probing.resolved_per_branch"] = _metric(
        counts["probing.resolved"] / branches if branches else 0.0, "vars/branch"
    )
    analyses = calls_by.get("persistency.analyze", 0)
    metrics["decompose.eliminated_per_analyze"] = _metric(
        counts["decompose.eliminated"] / analyses if analyses else 0.0,
        "vertices/call",
    )
    traced_wall = sum(traced_walls) / ops
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.unattributed_s"] = _metric(traced_wall - sum(seconds_by.values()) / ops, "s")
    metrics["trace.overhead_s"] = _metric(statistics.median(overheads) if overheads else 0.0, "s")
    metrics["trace.yardstick_s"] = _metric(statistics.median(yardstick_walls), "s")

    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.csv", op_starts)
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def run_all(args) -> None:
    """Every workload in its own child process; a table, then one JSON line
    mapping workload to its result."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            _fail(f"workload {name} exited with {done.returncode}")
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return
    if args.workload == "all":
        run_all(args)
        return
    workloads = _import_package()
    wl = workloads.WORKLOADS[args.workload]
    print("meta " + json.dumps(metadata(args.workload, args.seed)))
    if args.trace:
        result = run_traced(wl, workloads, args.seed, args.seconds)
    else:
        yardstick = Yardstick()
        setup = measure_setup(args.workload, args.seed, yardstick)
        result = run_untraced(wl, workloads, args.seed, args.seconds, yardstick, setup)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
