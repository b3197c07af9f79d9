"""Benchmark harness: completion problem generation, presets, metrics, runs.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    FactoredMatrix,
    IndexSet,
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
    write_trace_csv,
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
        if self.os_rate < 1:
            raise ValueError("oversampling rate must be at least 1")


def omega_size(spec: CompletionSpec) -> int:
    """max(OS * (2kn - k^2), n log n), rounded to the nearest integer.

    Both reference parameter sets (n=2000 with k=20 and k=80 at OS=3) are
    integer-exact, so the rounding mode never shows up there.
    """
    dof = spec.os_rate * (2 * spec.k * spec.n - spec.k**2)
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


def rel_errors(X: VarietyPoint, target: FactoredMatrix, problem: MatrixCompletion):
    """(relative error on all entries, relative error on the visible set).

    The full error is core.factored_diff_norm, from joint QRs of the two
    points' factors; the masked error uses sqrt(2 f(X)) / ||P(A)||.
    """
    a_norm = float(np.linalg.norm(target.sigma))
    if a_norm == 0.0:
        raise ValueError("relative error undefined for a zero target")
    rel_full = factored_diff_norm(target, X.point) / a_norm
    rel_mask = math.sqrt(2.0 * problem.value(X)) / float(
        np.linalg.norm(problem.data.values)
    )
    return rel_full, rel_mask


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
    "alg", "status", "iters", "final_f", "final_g_minus", "final_rel_full",
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
    key = value summary are written under out_dir. The reported results hold
    no iterates: the history is dropped once its distances are taken, so it
    is not held while the next algorithm runs. Solver failures go into
    the report instead of aborting the remaining algorithms. With timing off
    the wall_ms column is zeroed, which makes every emitted file a pure
    function of the spec.
    """
    problem, target = gen_problem(spec)
    base_cfg = solver_cfg or SolverConfig(k=spec.k, record_iterates=True)
    X0 = initial_guess(problem, base_cfg.k)

    def metrics(X, f):
        # problem.value(X) is the value solve has just taken at X
        return rel_errors(X, target, problem)

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
                    dists, delimiter=",", fmt="%.17g",
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
# Flat key = value files, used for summaries and experiment configs alike.
# ---------------------------------------------------------------------------


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
