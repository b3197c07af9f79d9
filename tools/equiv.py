"""Equivalence check between two revisions of rankdescent.

    python tools/equiv.py BASE [HEAD]

BASE and HEAD are git revisions of this repository. Each is exported with
`git archive` into a temporary directory, so the repository's checkout,
branches and worktrees are left as they are. Without HEAD the working tree
the tool lives in is compared, uncommitted changes included.

In each tree, fresh Python processes with one BLAS thread (outputs depend on
the thread count) import the package from that tree's src/ and write the
standard set of outputs. The two trees' sets are written side by side, each
on a thread of its own that runs the tree's steps in order; a failing step
raises out of main once both threads are done. The set:

- `rankbench run --alg both --no-timing` on fig1-small, on fig2-small with
  --max-iters 200, on fig1-full-k20 with --max-iters 130 and on an n = 300
  rank-1 problem at k = 1 (seed 7, --max-iters 200) whose mask of 2.0% of
  the entries takes mask_gather's row-wise path (24 files);
- `rankbench gen` of a 40x40 problem, `errors` of another problem's target
  on it, and `ratefit` of both fig1-small distance files, with every
  command's stdout kept;
- `solve` on 11 quadratic-distance instances with sd and rf (22
  traces): 500x400 targets of rank 12 from rank-6 starts at k = 12, four
  each from seeds 3 and 29, built as perfbench's quad-deficient-start
  builds them, and 60x50 targets of rank 4 from rank-2 starts at k = 8, one
  each from seeds 1-3;
- `solve` on one 60x60 completion problem (rank 5, k = 5, oversampling 3,
  seed 4) with sd and rf from two starts below the budget, the rank-2
  initial guess and the zero point (4 traces), so that the cone projection
  truncates the CSR gradient against the base spaces.

A trace holds every TraceRecord field but wall_ms, each as its repr. The
set is 73 files, stdout captures included.

Every file of one tree is compared with its namesake in the other and
reported as "bitwise equal", or by its first differing row and, per column,
the largest relative difference and the largest difference scaled by the
column's largest magnitude. The exit status is 0 only when every file is
byte-identical to its namesake. The report ends with the src/ line totals
of both trees: the lines of src/rankdescent/*.py as `wc -l` counts them.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
TOOLS = Path(__file__).resolve().parent

RUNS = {
    "fig1-small": ["--preset", "fig1-small"],
    "fig2-small": ["--preset", "fig2-small", "--max-iters", "200"],
    "fig1-full-k20": ["--preset", "fig1-full-k20", "--max-iters", "130"],
    # samples 2.0% of n^2, below GATHER_BLAS_DENSITY: mask_gather's row-wise path
    "sparse-n300": ["--n", "300", "--rank", "1", "--budget", "1", "--seed", "7", "--max-iters", "200"],
}
# (m, n, target rank r, start rank s, k, seed, instances)
QUADRATIC = [(500, 400, 12, 6, 12, 3, 4), (500, 400, 12, 6, 12, 29, 4)] + [
    (60, 50, 4, 2, 8, seed, 1) for seed in (1, 2, 3)
]
QUADRATIC_MAX_ITERS = 500
DEFICIENT_MAX_ITERS = 200
# the variants the solve writers run: fixed, so that a variant added at HEAD
# adds no files that BASE cannot have
SOLVE_VARIANTS = ("sd", "rf")


def export(rev: str, dest: Path) -> Path:
    """The tree of git revision rev, written under dest by git archive."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def src_lines(tree: Path) -> int:
    """The lines of tree/src/rankdescent/*.py as `wc -l` counts them: newlines."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "rankdescent").glob("*.py"))


def write_outputs(tree: Path, out: Path) -> None:
    """Run the standard set with the package of tree/src, writing under out."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(TOOLS)])}
    (out / "stdout").mkdir(parents=True)

    def step(name: str, *args: str) -> None:
        done = subprocess.run([sys.executable, *args], cwd=out, env=env, capture_output=True, text=True)
        if done.returncode:
            raise RuntimeError(f"{name} in {tree} exited with {done.returncode}:\n{done.stderr}")
        (out / "stdout" / f"{name}.txt").write_text(done.stdout)

    def rankbench(name: str, *args: str) -> None:
        step(name, "-m", "rankdescent.cli", *args)

    for name, args in RUNS.items():
        rankbench(f"run-{name}", "run", *args, "--alg", "both", "--no-timing", "--out", name)
    rankbench("gen", "gen", "--n", "40", "--rank", "3", "--budget", "3", "--seed", "1", "--out", "gen")
    rankbench("gen-point", "gen", "--n", "40", "--rank", "3", "--budget", "3", "--seed", "2", "--out", "point")
    rankbench("errors", "errors", "--problem", "gen", "--point", "point/target_factors")
    for alg in ("sd", "rf"):
        rankbench(f"ratefit-{alg}", "ratefit", "--distances", f"fig1-small/{alg}_distances.csv")
    step("quadratic", "-c", "import equiv; equiv.write_quadratic_traces('quadratic')")
    step("deficient-completion", "-c",
         "import equiv; equiv.write_deficient_completion_traces('deficient-completion')")


def _write_trace(path: Path, trace) -> None:
    """One row per TraceRecord: every field but wall_ms, each as its repr."""
    from rankdescent.solvers import TraceRecord

    names = [f.name for f in fields(TraceRecord) if f.name != "wall_ms"]
    rows = [",".join(names)] + [",".join(repr(getattr(rec, name)) for name in names) for rec in trace]
    path.write_text("\n".join(rows) + "\n")


def write_quadratic_traces(out: str) -> None:
    """Solve every QUADRATIC instance with sd and rf; one CSV per trace.

    Runs in the process of one tree: the package comes from its src/.
    """
    from rankdescent.core import FactoredMatrix, factored_diff_norm, truncate
    from rankdescent.geometry import VarietyPoint
    from rankdescent.objectives import QuadraticDistance
    from rankdescent.solvers import SolverConfig, solve

    Path(out).mkdir()
    for m, n, r, s, k, seed, count in QUADRATIC:
        rng = np.random.default_rng(seed)
        for i in range(count):
            A = truncate(rng.standard_normal((m, r)) @ rng.standard_normal((r, n)), r)
            U = np.linalg.qr(rng.standard_normal((m, s)))[0]
            V = np.linalg.qr(rng.standard_normal((n, s)))[0]
            sigma = np.sort(rng.uniform(0.5, 2.0, size=s))[::-1]
            X0 = VarietyPoint(FactoredMatrix(U, sigma, V), k)
            a_norm = float(np.linalg.norm(A.sigma))

            def metrics(X, f, A=A, a_norm=a_norm):
                return factored_diff_norm(X.point, A) / a_norm, None

            for variant in SOLVE_VARIANTS:
                cfg = SolverConfig(k=k, variant=variant, max_iters=QUADRATIC_MAX_ITERS)
                trace = solve(QuadraticDistance(A), X0, cfg, metrics).trace
                _write_trace(Path(out, f"{m}x{n}-seed{seed}-{i}-{variant}.csv"), trace)


def write_deficient_completion_traces(out: str) -> None:
    """Solve one 60x60 completion problem at k = 5 with sd and rf, from
    its rank-2 initial guess and from zero; one CSV per trace. Each run's
    first cone projection truncates the CSR gradient against bases of width
    2 and 0.

    Runs in the process of one tree: the package comes from its src/.
    """
    from rankdescent.bench import CompletionSpec, gen_problem, initial_guess, rel_errors
    from rankdescent.core import FactoredMatrix
    from rankdescent.geometry import VarietyPoint
    from rankdescent.solvers import SolverConfig, solve

    spec = CompletionSpec(n=60, r=5, k=5, os_rate=3, seed=4)
    problem, target = gen_problem(spec)
    metrics = rel_errors(target, problem)
    starts = {
        "rank2": VarietyPoint(initial_guess(problem, 2).point, spec.k),
        "zero": VarietyPoint(FactoredMatrix.zero(spec.n, spec.n), spec.k),
    }
    Path(out).mkdir()
    for start, X0 in starts.items():
        for variant in SOLVE_VARIANTS:
            cfg = SolverConfig(k=spec.k, variant=variant, max_iters=DEFICIENT_MAX_ITERS)
            _write_trace(Path(out, f"{start}-{variant}.csv"), solve(problem, X0, cfg, metrics).trace)


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _rows(text: str) -> list[list[tuple[str, str]]]:
    """Each line as its (column, field) pairs. A `key = value` line is one
    field, named by its key. Otherwise the fields are split at commas and
    named by the first line when none of its fields is a number (a header),
    else by their position."""
    lines = text.splitlines()
    first = lines[0].split(",") if lines else []
    header = first if len(first) > 1 and all(_number(x) is None for x in first) else None
    rows = []
    for line in lines:
        key, eq, value = line.partition(" = ")
        if eq:
            rows.append([(key, value)])
        else:
            parts = line.split(",")
            rows.append([(header[j] if header and j < len(header) else str(j), x) for j, x in enumerate(parts)])
    return rows


def _diff(a: str, b: str) -> tuple[float, float, float]:
    """(relative, absolute difference, magnitude) of two fields. Two finite
    numbers x, y give |x - y| / max(|x|, |y|), |x - y| and max(|x|, |y|);
    other equal fields (0, 0, 0); other differing fields (inf, inf, 0)."""
    x, y = _number(a), _number(b)
    if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
        return (0.0, 0.0, 0.0) if a == b else (math.inf, math.inf, 0.0)
    size = max(abs(x), abs(y))
    return (abs(x - y) / size if x != y else 0.0), abs(x - y), size


def compare_file(base: bytes, head: bytes) -> tuple[bool, str]:
    """(passes, report) for two versions of one file: bitwise equal, which
    alone passes, or the first differing row (0-based, the header row
    included), the largest relative difference per column and the largest
    column-scaled one: a column's largest absolute difference over its
    largest magnitude in either file, which shows a roundoff-level change to
    a column that converges to zero."""
    if base == head:
        return True, "bitwise equal"
    rows_a, rows_b = (_rows(x.decode(errors="replace")) for x in (base, head))
    first = next((i for i, (a, b) in enumerate(zip(rows_a, rows_b)) if a != b), min(len(rows_a), len(rows_b)))
    worst, gap, scale, shaped = {}, {}, {}, len(rows_a) == len(rows_b)
    for a, b in zip(rows_a, rows_b):
        shaped = shaped and len(a) == len(b) and [c for c, _ in a] == [c for c, _ in b]
        for (column, x), (_, y) in zip(a, b):
            rel, diff, size = _diff(x, y)
            worst[column] = max(worst.get(column, 0.0), rel)
            gap[column] = max(gap.get(column, 0.0), diff)
            scale[column] = max(scale.get(column, 0.0), size)
    parts = [f"first differing row {first}"]
    if len(rows_a) != len(rows_b):
        parts.append(f"{len(rows_a)} rows against {len(rows_b)}")
    if not shaped:
        parts.append("fields do not line up")
    diffs = ", ".join(f"{c} {d:.1e}" for c, d in worst.items() if d > 0)
    parts.append(f"largest relative difference: {diffs or 'none'}")
    # a finite gap is at most twice its column's scale, so only inf meets a zero scale
    scaled = ", ".join(f"{c} {d / scale[c] if scale[c] else d:.1e}" for c, d in gap.items() if d > 0)
    parts.append(f"column-scaled: {scaled or 'none'}")
    return False, "; ".join(parts)


def compare_trees(base: Path, head: Path) -> tuple[bool, list[str]]:
    """(every file passes, one report line per file) for two output trees."""
    names = sorted({p.relative_to(root).as_posix() for root in (base, head) for p in root.rglob("*") if p.is_file()})
    ok, lines = True, []
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            passes, report = False, f"only in {'BASE' if a.is_file() else 'HEAD'}"
        else:
            passes, report = compare_file(a.read_bytes(), b.read_bytes())
        ok = ok and passes
        lines.append(f"{'ok  ' if passes else 'FAIL'} {name}: {report}")
    return ok, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE", help="git revision to compare against")
    parser.add_argument("head", metavar="HEAD", nargs="?", help="git revision (default: the working tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="equiv-") as tmp:
        tmp = Path(tmp)
        trees = {"BASE": export(args.base, tmp / "base-tree")}
        trees["HEAD"] = export(args.head, tmp / "head-tree") if args.head else REPO
        print("BASE and HEAD: running the standard sets", flush=True)
        with ThreadPoolExecutor(len(trees)) as pool:
            runs = [pool.submit(write_outputs, tree, tmp / label) for label, tree in trees.items()]
        for run in runs:
            run.result()
        ok, lines = compare_trees(tmp / "BASE", tmp / "HEAD")
        base, head = (src_lines(tree) for tree in trees.values())
    print("\n".join(lines))
    print(f"{sum(x.startswith('ok') for x in lines)} of {len(lines)} files pass (bitwise)")
    print(f"src/ lines: BASE {base:,}, HEAD {head:,} ({head - base:+,})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
