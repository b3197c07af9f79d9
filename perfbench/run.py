"""Time-to-tolerance benchmark of the rankdescent solvers.

Run from the repository root:

    python3 perfbench/run.py --workload fig1-small --seed 1 --seconds 25 --trace 0

The benchmark imports the library from ./src and runs in one process with
BLAS pinned to one thread. A run repeats whole passes over the workload's
seeded instance set while the next pass should end within --seconds, at
least one pass, and reports medians over passes. With --trace 0 it prints
the end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and prints the per-layer metrics of the traced ones, plus the
tracing overhead as the difference in run_s. Metric names and units are
read from BENCHMARK.json. The last line of standard output is the JSON
result; an environment record and the spans of the last traced pass are
written under .bench_out/.
"""

import os

# pinned before numpy is first imported, for this process only
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from statistics import median  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# standalone set-ups before the first pass (each pass adds one more sample):
# up to SETUP_REPEATS of them while they take less than SETUP_SECONDS in all
SETUP_REPEATS = 4
SETUP_SECONDS = 3.0


def import_library():
    """Import rankdescent from this checkout's src/, never from elsewhere."""
    package = SRC / "rankdescent"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no rankdescent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rankdescent

    if Path(rankdescent.__file__).resolve().parent != package:
        sys.exit(f"error: rankdescent imported from {rankdescent.__file__}, not {package}")


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    rev = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        rev = done.stdout.strip() or rev
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpus": os.cpu_count(),
        "src_lines": src_lines,
    }


def end_to_end(passes, setup_samples) -> dict:
    """Per-pass figures, as medians over passes; times in nominal seconds."""
    out = {"setup_s": median(setup_samples + [p.setup_s for p in passes])}
    for v in ("sd", "rf"):
        out[f"{v}.time_to_tol_s"] = median(
            [sum(op.time_to_tol or 0.0 for op in p.ops if op.variant == v) for p in passes]
        )
        out[f"{v}.iters_to_tol"] = median(
            [sum(op.iters_to_tol or 0 for op in p.ops if op.variant == v) for p in passes]
        )
    out["run_s"] = median([p.run_s for p in passes])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def wall_times(passes) -> dict:
    """The same medians in wall seconds, for the record."""
    out = {f"{v}.time_to_tol_s": median(
        [sum(op.wall_to_tol or 0.0 for op in p.ops if op.variant == v) for p in passes]
    ) for v in ("sd", "rf")}
    out["run_s"] = median([p.wall_s for p in passes])
    return out


def per_layer(plain, traced, layer_metrics) -> dict:
    layers = [layer_metrics(p) for p in traced]
    out = {name: median([m[name] for m in layers]) for name in layers[0]}
    base = median([p.wall_s for p in plain])
    overhead = median([p.wall_s for p in traced]) - base
    out["trace.overhead_s"] = overhead
    out["trace.overhead_pct"] = 100.0 * overhead / base
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_library()
    import workloads
    from speed import NOMINAL_S, Speed
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    speed = Speed()
    speed.sample()
    setup_samples = []
    while not args.trace and len(setup_samples) < SETUP_REPEATS and sum(setup_samples) < SETUP_SECONDS:
        start = speed.mark()
        workload.setup(args.seed)
        speed.sample()
        setup_samples.append(speed.elapsed(start)[0])
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        plain.append(workload.run_pass(args.seed, None, speed, OUT))
        if args.trace:
            traced.append(workload.run_pass(args.seed, Tracer(), Speed(sampling=False), OUT))
        # another pass only when it should end by the deadline
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    speed.sample()

    ops = [op for p in plain + traced for op in p.ops]
    failures = [(op.variant, why) for op in ops if (why := op.breach()) is not None]
    if args.trace:
        values, declared = per_layer(plain, traced, workloads.layer_metrics), spec["per_layer"]
    else:
        values, declared = end_to_end(plain, setup_samples), spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain) + len(traced), "environment": environment(),
        "reference_s": [ref for _, _, ref in speed.samples],
        "wall": wall_times(plain),
        "failures": failures, "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        traced[-1].tracer.write_csv(stem.with_suffix(".spans.csv"))
        print(f"tracing overhead: {metrics['trace.overhead_s']['value']:.3f} s "
              f"({metrics['trace.overhead_pct']['value']:.1f}% of run_s)")
    for variant, why in failures:
        print(f"FAILED {variant}: {why}")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "passes", "environment")}))
    print(json.dumps({"nominal_s": NOMINAL_S, "reference_s": median(record["reference_s"]),
                      "wall": record["wall"]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
