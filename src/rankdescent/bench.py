"""Benchmark harness: completion problem generation, presets, metrics, runs,
and every file format of the package (the "Files" section below).

Problems are square rank-r matrices A = U V^T with standard-normal factors,
observed on a uniformly sampled index set of size
max(OS * (2kn - k^2), n log n) (natural log, rounded to nearest), i.e. an
oversampling rate of at least OS relative to the degrees of freedom of a
rank-k matrix. Randomness comes from numpy's PCG64 generator seeded with the
spec seed; draws happen in the fixed order U, V, mask, and normal variates
use the generator's ziggurat transform, so outputs are reproducible for a
fixed numpy version.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    FactoredMatrix,
    IndexSet,
    SparseOnMask,
    factored_diff_norm,
    mask_apply,
    orthonormal_polish,
    truncate,
)
from .geometry import VarietyPoint, make_point
from .linesearch import LineSearchError, descent_monitors
from .objectives import MatrixCompletion
from .solvers import (
    SolveResult,
    SolverConfig,
    VARIANTS,
    iterate_distances,
    rate_fit,
    solve,
)


class InfeasibleSpecError(ValueError):
    """The requested mask size exceeds the number of matrix entries."""


@dataclass(frozen=True)
class CompletionSpec:
    """Square completion experiment: size n, true rank r, budget k, oversampling OS."""

    n: int
    r: int
    k: int
    os_rate: float
    seed: int

    def __post_init__(self):
        if not (1 <= self.r <= self.n and 1 <= self.k <= self.n):
            raise ValueError("need 1 <= r, k <= n")
        if not 1 <= self.os_rate < math.inf:
            raise ValueError(f"oversampling rate must be finite and at least 1, got {self.os_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def omega_size(spec: CompletionSpec) -> int:
    """max(OS * (2kn - k^2), n log n), rounded to the nearest integer.

    Both reference parameter sets (n=2000 with k=20 and k=80 at OS=3) are
    integer-exact, so the rounding mode never shows up there.
    """
    dof = spec.os_rate * (2 * spec.k * spec.n - spec.k**2)
    if math.isinf(dof):  # a finite OS can still overflow the product
        raise InfeasibleSpecError(f"|mask| = OS * (2kn - k^2) overflows at OS = {spec.os_rate}")
    size = int(round(max(dof, spec.n * math.log(spec.n))))
    if size > spec.n**2:
        raise InfeasibleSpecError(
            f"|mask| = {size} exceeds n^2 = {spec.n ** 2}"
        )
    return size


def missing_percent(spec: CompletionSpec) -> float:
    """Percentage of unobserved entries, rounded to two decimals."""
    return round(100.0 * (1.0 - omega_size(spec) / spec.n**2), 2)


def gen_problem(spec: CompletionSpec):
    """Generate (MatrixCompletion, target factors) for a spec.

    A = U V^T with n-by-r standard-normal factors; the mask is drawn
    uniformly without replacement. The target comes back as an orthonormal
    factorization, core.truncate of the pair (U, V) with its factors
    polished, so full-error metrics stay in factored form.
    """
    size = omega_size(spec)
    rng = np.random.default_rng(spec.seed)
    Uf = rng.standard_normal((spec.n, spec.r))
    Vf = rng.standard_normal((spec.n, spec.r))
    lin = np.sort(rng.choice(spec.n * spec.n, size=size, replace=False))
    mask = IndexSet((spec.n, spec.n), lin // spec.n, lin % spec.n)

    T = truncate((Uf, Vf), spec.r)
    target = FactoredMatrix(orthonormal_polish(T.U), T.sigma, orthonormal_polish(T.V))
    return MatrixCompletion(mask_apply(target, mask)), target


def initial_guess(problem: MatrixCompletion, k: int) -> VarietyPoint:
    """Best rank-k approximation of the antigradient at zero, P(A).

    Differentiating the masked half-squared residual at zero gives the
    antigradient +P(A). core.truncate takes it on the mask (ARPACK via
    scipy.sparse.linalg.svds through the CSR view), so P(A) is densified
    only at k = n.
    """
    return make_point(truncate(problem.data, k), k)


def rel_errors(target: FactoredMatrix, problem: MatrixCompletion):
    """The relative errors of points against one problem, as a function
    errors(X, f=None) -> (relative error on all entries, relative error on
    the visible set), fit to be solve's metrics callback.

    The full error is core.factored_diff_norm(target, X): X's factors are
    projected against the target's fixed orthonormal factors, and the norms
    of the three orthogonal blocks of the difference are summed, with no
    QR. The masked error uses sqrt(2 f(X)) / ||P(A)||, with f(X) read as
    problem.value(X), which is the residual slot's value at the point solve
    has just valued; errors ignores solve's f. Both denominators, ||A|| and
    ||P(A)||, are taken and checked here, once: ValueError when either is
    zero, a zero target or an observation (empty or all zero) with
    ||P(A)|| = 0.
    """
    a_norm = float(np.linalg.norm(target.sigma))
    if a_norm == 0.0:
        raise ValueError("relative error undefined for a zero target")
    p_norm = float(np.linalg.norm(problem.data.values))
    if p_norm == 0.0:
        raise ValueError("relative masked error undefined for a zero observation")

    def errors(X: VarietyPoint, f=None):
        rel_full = factored_diff_norm(target, X.point) / a_norm
        rel_mask = math.sqrt(2.0 * problem.value(X)) / p_norm
        return rel_full, rel_mask

    return errors


# ---------------------------------------------------------------------------
# Presets: desk-scale versions of the reference runs keep OS and the r/k
# ratio while shrinking n to 300; the n=2000 originals are included but slow.
# ---------------------------------------------------------------------------

PRESETS = {
    "fig1-small": CompletionSpec(n=300, r=8, k=8, os_rate=3, seed=42),
    "fig2-small": CompletionSpec(n=300, r=4, k=8, os_rate=3, seed=42),
    "fig1-full-k20": CompletionSpec(n=2000, r=20, k=20, os_rate=3, seed=42),
    "fig1-full-k80": CompletionSpec(n=2000, r=80, k=80, os_rate=3, seed=42),
    "fig2-full-k20": CompletionSpec(n=2000, r=10, k=20, os_rate=3, seed=42),
    "fig2-full-k80": CompletionSpec(n=2000, r=40, k=80, os_rate=3, seed=42),
}

SUMMARY_KEYS = (
    "spec.n", "spec.r", "spec.k", "spec.os", "spec.seed",
    "alg", "status", "iters", "backtracks", "final_f", "final_g_minus", "final_rel_full",
    "final_rel_mask", "min_sigma_k", "a1_min_ratio", "rate_model", "rate_param",
)


@dataclass
class AlgorithmRun:
    alg: str
    result: SolveResult | None
    summary: dict
    error: str | None = None


@dataclass
class ExperimentReport:
    spec: CompletionSpec
    runs: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(r.error is not None for r in self.runs.values())


def run_experiment(
    spec: CompletionSpec,
    algorithms=tuple(VARIANTS),
    solver_cfg: SolverConfig | None = None,
    out_dir=None,
    timing: bool = True,
) -> ExperimentReport:
    """Run the requested algorithms on one generated problem.

    All algorithms share the problem and the starting guess. Per algorithm a
    trace CSV, an iterate-distance CSV (when iterates were recorded) and a
    key = value summary are written under out_dir. solve keeps a recorded
    history on disk (solvers.IterateHistory), and iterate_distances reads it
    one iterate at a time. The reported results hold no iterates: the history
    is dropped, and its file closed, once its distances are taken, so it is
    not kept while the next algorithm runs. Solver failures go into
    the report instead of aborting the remaining algorithms. With timing off
    the wall_ms column is zeroed, which makes every emitted file a pure
    function of the spec.
    """
    problem, target = gen_problem(spec)
    base_cfg = solver_cfg or SolverConfig(k=spec.k, record_iterates=True)
    X0 = initial_guess(problem, base_cfg.k)
    metrics = rel_errors(target, problem)
    report = ExperimentReport(spec=spec)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for alg in algorithms:
        try:
            result = solve(problem, X0, replace(base_cfg, variant=alg), metrics=metrics)
        except LineSearchError as err:
            report.runs[alg] = AlgorithmRun(
                alg=alg, result=None, summary=_summary(spec, alg, None, None), error=str(err)
            )
            continue
        dists = None if result.iterates is None else iterate_distances(result.iterates)
        fit = None if dists is None else rate_fit(dists)
        result = replace(result, iterates=None)
        summary = _summary(spec, alg, result, fit)
        report.runs[alg] = AlgorithmRun(alg=alg, result=result, summary=summary)
        if out_dir:
            write_trace_csv(os.path.join(out_dir, f"{alg}_trace.csv"), result.trace, timing=timing)
            if dists is not None:
                np.savetxt(
                    os.path.join(out_dir, f"{alg}_distances.csv"),
                    dists, delimiter=",", fmt=_FLOAT_FMT,
                )
            write_kv(os.path.join(out_dir, f"{alg}_summary.txt"), summary)
    return report


def _summary(spec: CompletionSpec, alg: str, result: SolveResult | None, fit) -> dict:
    out = {
        "spec.n": spec.n,
        "spec.r": spec.r,
        "spec.k": spec.k,
        "spec.os": spec.os_rate,
        "spec.seed": spec.seed,
        "alg": alg,
    }
    if result is None:
        out.update({key: "" for key in SUMMARY_KEYS[6:]})
        return out
    trace = result.trace
    final = trace[-1]
    monitors = descent_monitors(trace) if len(trace) >= 2 else None
    sigmak_values = [r.sigmak for r in trace]
    out.update(
        {
            "status": result.status.value,
            "iters": len(trace) - 1,
            "backtracks": sum(r.backtracks for r in trace),
            "final_f": final.f,
            "final_g_minus": final.g_minus,
            "final_rel_full": "" if final.rel_err_full is None else final.rel_err_full,
            "final_rel_mask": "" if final.rel_err_mask is None else final.rel_err_mask,
            "min_sigma_k": min(sigmak_values),
            "a1_min_ratio": "" if monitors is None or monitors.min_a1_ratio is None else monitors.min_a1_ratio,
            "rate_model": "unavailable" if fit is None else fit.model,
            "rate_param": "" if fit is None else fit.parameter,
        }
    )
    return out


# ---------------------------------------------------------------------------
# Files: every on-disk format of the package.
# - key = value files (write_kv, read_kv): one pair per line; reading skips
#   blank lines and lines starting with "#". A run's summaries, the configs
#   of rankbench run --config and a problem's dims.txt.
# - float CSVs: np.savetxt with _FLOAT_FMT, whose 17 significant digits
#   round-trip every float64: observed values, factors and distances.
# - a factored matrix (save_factored, load_factored): a directory of U.csv,
#   sigma.csv (one column) and V.csv.
# - a mask (save_index_set, load_index_set): one 0-based row,col line per pair.
# - a completion problem (save_completion, load_completion): a directory of
#   dims.txt (m and n), mask.csv, values.csv (one column, in mask order) and,
#   when known, the target's factors in target_factors/.
# - a trace (write_trace_csv): a TRACE_COLUMNS header, then one row per
#   iterate, floats as repr and None as an empty field.
# ---------------------------------------------------------------------------

_FLOAT_FMT = "%.17g"

TRACE_COLUMNS = (
    "n,f,g_minus,alpha,backtracks,rank,sigma1,sigmak,"
    "displacement,rel_err_full,rel_err_mask,wall_ms"
)


def write_kv(path, mapping: dict) -> None:
    with open(path, "w") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {value}\n")


def read_kv(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def load_csv(path, dtype=float) -> np.ndarray:
    """np.loadtxt of a comma-separated file as a 2-D array, one row per line.
    A file with no data, which is what np.savetxt writes for an empty array,
    reads as an empty array without numpy's warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=2)


def load_column(path) -> np.ndarray:
    """A one-column file (np.savetxt of a vector) as a vector; an empty file
    reads as an empty one. Raises ValueError on a file of more columns."""
    a = load_csv(path)
    if a.shape[1] > 1:
        raise ValueError(f"{path} needs one column, got {a.shape[1]}")
    return a.reshape(-1)


def save_factored(dirpath, F: FactoredMatrix) -> None:
    if F.rank == 0:
        raise ValueError("rank-0 factored matrices are not serialized")
    os.makedirs(dirpath, exist_ok=True)
    for name, a in (("U", F.U), ("sigma", F.sigma), ("V", F.V)):
        np.savetxt(os.path.join(dirpath, f"{name}.csv"), a, delimiter=",", fmt=_FLOAT_FMT)


def load_factored(dirpath) -> FactoredMatrix:
    U = load_csv(os.path.join(dirpath, "U.csv"))
    sigma = load_column(os.path.join(dirpath, "sigma.csv"))
    V = load_csv(os.path.join(dirpath, "V.csv"))
    return FactoredMatrix(U, sigma, V)


def save_index_set(path, mask: IndexSet) -> None:
    np.savetxt(
        path, np.column_stack([mask.rows, mask.cols]), delimiter=",", fmt="%d"
    )


def load_index_set(path, dims) -> IndexSet:
    """Read a mask that save_index_set wrote: one row,col line per pair,
    none for the empty mask. Raises ValueError on any other shape."""
    pairs = load_csv(path, np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.shape[1] != 2:
        raise ValueError(f"mask file needs two columns (row, col), got {pairs.shape[1]}")
    return IndexSet(dims, pairs[:, 0], pairs[:, 1])


def save_completion(dirpath, problem: MatrixCompletion, target: FactoredMatrix | None = None) -> None:
    os.makedirs(dirpath, exist_ok=True)
    m, n = problem.shape
    write_kv(os.path.join(dirpath, "dims.txt"), {"m": m, "n": n})
    save_index_set(os.path.join(dirpath, "mask.csv"), problem.mask)
    np.savetxt(os.path.join(dirpath, "values.csv"), problem.data.values, delimiter=",", fmt=_FLOAT_FMT)
    if target is not None:
        save_factored(os.path.join(dirpath, "target_factors"), target)


def load_completion(dirpath):
    """Returns (MatrixCompletion, target FactoredMatrix or None)."""
    dims = read_kv(os.path.join(dirpath, "dims.txt"))
    shape = (int(dims["m"]), int(dims["n"]))
    mask = load_index_set(os.path.join(dirpath, "mask.csv"), shape)
    values = load_column(os.path.join(dirpath, "values.csv"))
    problem = MatrixCompletion(SparseOnMask(mask, values))
    target_dir = os.path.join(dirpath, "target_factors")
    target = load_factored(target_dir) if os.path.isdir(target_dir) else None
    return problem, target


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_trace_csv(path, records, timing: bool = True) -> None:
    """Stream a trace in TRACE_COLUMNS order, one row per iteration."""
    columns = TRACE_COLUMNS.split(",")
    with open(path, "w") as fh:
        fh.write(TRACE_COLUMNS + "\n")
        for r in records:
            values = (0.0 if c == "wall_ms" and not timing else getattr(r, c) for c in columns)
            fh.write(",".join(map(_fmt, values)) + "\n")
