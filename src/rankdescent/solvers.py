"""Iteration drivers: projected steepest descent and the retraction-free method.

Both follow the same loop: project the antigradient onto the tangent cone
(the negated projection of the gradient, since the cone is closed under sign),
pick a direction (the full projection, or the larger of the two flat partial
projections), take an Armijo step, and either retract by rank truncation or
stay on the variety through the exact affine update. Stopping rules and the
per-iteration trace are artifact plumbing; the iteration itself would happily
run forever. The trace's displacement ||X_{n+1} - X_n|| is alpha * ||xi|| for
rf, whose affine update is exactly X + alpha * xi, and a factored distance
for sd, whose retraction truncates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import FactoredMatrix, factored_diff_norm
from .geometry import (
    VarietyPoint,
    affine_update,
    choose_flat_direction,
    make_point,
    project_cone,
    retract,
)
from .linesearch import ArmijoConfig, LineSearchError, armijo, initial_step
from .objectives import Objective

VARIANT_SD = "sd"  # projected steepest descent with rank-truncation retraction
VARIANT_RF = "rf"  # retraction-free flat-direction descent


class SolveStatus(Enum):
    CONVERGED_G = "converged_g"
    STALLED_F = "stalled_f"
    MAX_ITERS = "max_iters"
    STATIONARY = "stationary"


@dataclass(frozen=True)
class SolverConfig:
    """Rank budget, variant, line-search parameters and stopping rules.

    tol_g stops once the projected-antigradient norm falls below tol_g times
    its value at the first iterate; tol_f declares a stall after three
    consecutive decreases below tol_f * max(1, f). armijo defaults to the
    variant's floor (1 for sd, sqrt(2) for rf) when left as None; the floor
    is the lower bound of each initial trial step, the exact-curvature step
    is its usual value when the objective supplies a curvature, and
    linesearch.STEP_CAP its upper bound (see linesearch.initial_step).
    """

    k: int
    variant: str = VARIANT_SD
    armijo: ArmijoConfig | None = None
    max_iters: int = 1000
    tol_g: float = 1e-12
    tol_f: float = 1e-14
    record_iterates: bool = False

    def __post_init__(self):
        if self.variant not in (VARIANT_SD, VARIANT_RF):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.tol_g <= 0 or self.tol_f <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    def armijo_config(self) -> ArmijoConfig:
        if self.armijo is not None:
            return self.armijo
        floor = 1.0 if self.variant == VARIANT_SD else math.sqrt(2.0)
        return ArmijoConfig(initial_floor=floor)


@dataclass
class TraceRecord:
    """One row per iterate; alpha/backtracks/displacement describe the step
    taken from it (zero on the terminal row). xi_norm is kept for post-hoc
    line-search checks and is not part of the CSV schema."""

    n: int
    f: float
    g_minus: float
    alpha: float
    backtracks: int
    rank: int
    sigma1: float
    sigmak: float
    displacement: float | None
    rel_err_full: float | None
    rel_err_mask: float | None
    wall_ms: float
    xi_norm: float = 0.0


TRACE_COLUMNS = (
    "n,f,g_minus,alpha,backtracks,rank,sigma1,sigmak,"
    "displacement,rel_err_full,rel_err_mask,wall_ms"
)


@dataclass
class SolveResult:
    X_star: VarietyPoint
    status: SolveStatus
    trace: list = field(default_factory=list)
    iterates: list | None = None


def solve(obj: Objective, X0, cfg: SolverConfig, metrics=None) -> SolveResult:
    """Run the configured descent variant from X0.

    X0 is a VarietyPoint (or a FactoredMatrix of rank at most k, which gets
    wrapped). metrics, when given, is called as metrics(X, f) and must return
    (rel_err_full, rel_err_mask) for the trace.

    Each Armijo search starts at initial_step: the variant's floor rule is
    the lower bound; when the objective defines curvature, the exact
    minimizer ||xi||^2 / obj.curvature(X, xi) of the quadratic model along
    the direction, capped above at STEP_CAP, is the usual start. Objectives
    that leave curvature None get the floor rule alone.

    The iteration stops on exact stationarity of the projected antigradient,
    on the relative g tolerance, on a persistent stall of f, or at max_iters;
    the trace always ends with a terminal row for the final iterate.
    Deterministic for deterministic objectives.
    """
    if isinstance(X0, FactoredMatrix):
        X0 = make_point(X0, cfg.k)
    if X0.k != cfg.k:
        X0 = VarietyPoint(X0.point, cfg.k)
    armijo_cfg = cfg.armijo_config()
    curvature = getattr(obj, "curvature", None)
    # sd: the full projection, retracted by rank truncation; rf: the larger
    # flat partial projection, updated exactly
    direction, update = {
        VARIANT_SD: (lambda X, G: G, retract),
        VARIANT_RF: (lambda X, G: choose_flat_direction(X, None, G), affine_update),
    }[cfg.variant]

    X = X0
    f_x = obj.value(X)
    g_ref = None
    stall = 0
    steps = 0
    records: list[TraceRecord] = []
    iterates = [X] if cfg.record_iterates else None

    def base_record(g_minus):
        rel_full, rel_mask = metrics(X, f_x) if metrics is not None else (None, None)
        sig = X.point.sigma
        return TraceRecord(
            n=steps,
            f=f_x,
            g_minus=g_minus,
            alpha=0.0,
            backtracks=0,
            rank=X.s,
            sigma1=float(sig[0]) if X.s else 0.0,
            sigmak=float(sig[cfg.k - 1]) if X.s >= cfg.k else 0.0,
            displacement=0.0,
            rel_err_full=rel_full,
            rel_err_mask=rel_mask,
            wall_ms=0.0,
        )

    while True:
        t0 = time.perf_counter()
        G, g_minus = project_cone(X, obj.gradient(X))
        rec = base_record(g_minus)

        if g_minus == 0.0:
            # stationary: the projected antigradient vanishes, do not move
            records.append(rec)
            status = SolveStatus.STATIONARY
            break
        if g_ref is None:
            g_ref = g_minus
        if g_minus <= cfg.tol_g * g_ref:
            records.append(rec)
            status = SolveStatus.CONVERGED_G
            break
        if stall >= 3:
            records.append(rec)
            status = SolveStatus.STALLED_F
            break
        if steps >= cfg.max_iters:
            records.append(rec)
            status = SolveStatus.MAX_ITERS
            break

        xi = direction(X, -G)
        xi_norm = xi.norm()
        # for projection-derived directions <grad, xi> = -||xi||^2 exactly
        slope = -(xi_norm**2)
        curv = curvature(X, xi) if curvature is not None else None
        bar_beta = initial_step(g_minus, xi_norm, armijo_cfg.initial_floor, curv)
        try:
            out = armijo(X, xi, obj, f_x, slope, bar_beta, armijo_cfg, update)
        except LineSearchError as err:
            err.records = records
            raise

        rec.alpha = out.alpha
        rec.backtracks = out.backtracks
        rec.xi_norm = xi_norm
        if cfg.variant == VARIANT_RF:
            rec.displacement = out.alpha * xi_norm
        else:
            rec.displacement = factored_diff_norm(out.X_new.point, X.point)
        rec.wall_ms = (time.perf_counter() - t0) * 1e3
        records.append(rec)

        stall = stall + 1 if -out.decrease <= cfg.tol_f * max(1.0, f_x) else 0
        X = out.X_new
        f_x = out.f_new
        steps += 1
        if iterates is not None:
            iterates.append(X)

    return SolveResult(X_star=X, status=status, trace=records, iterates=iterates)


# ---------------------------------------------------------------------------
# Trace CSV and rate diagnostics
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def write_trace_csv(path, records, timing: bool = True) -> None:
    """Stream a trace in the fixed column order, one row per iteration."""
    with open(path, "w") as fh:
        fh.write(TRACE_COLUMNS + "\n")
        for r in records:
            wall = r.wall_ms if timing else 0.0
            fields = [
                str(r.n),
                _fmt(r.f),
                _fmt(r.g_minus),
                _fmt(r.alpha),
                str(r.backtracks),
                str(r.rank),
                _fmt(r.sigma1),
                _fmt(r.sigmak),
                _fmt(r.displacement),
                _fmt(r.rel_err_full),
                _fmt(r.rel_err_mask),
                _fmt(wall),
            ]
            fh.write(",".join(fields) + "\n")


def read_trace_csv(path) -> list[TraceRecord]:
    def opt(x):
        return None if x == "" else float(x)

    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_COLUMNS:
            raise ValueError("unexpected trace header")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            records.append(
                TraceRecord(
                    n=int(parts[0]),
                    f=float(parts[1]),
                    g_minus=float(parts[2]),
                    alpha=float(parts[3]),
                    backtracks=int(parts[4]),
                    rank=int(parts[5]),
                    sigma1=float(parts[6]),
                    sigmak=float(parts[7]),
                    displacement=opt(parts[8]),
                    rel_err_full=opt(parts[9]),
                    rel_err_mask=opt(parts[10]),
                    wall_ms=float(parts[11]),
                )
            )
    return records


def iterate_distances(iterates, X_star: VarietyPoint | None = None) -> np.ndarray:
    """||X_n - X*|| for a list of factored iterates (X* defaults to the last)."""
    if X_star is None:
        X_star = iterates[-1]
    return np.array([factored_diff_norm(X.point, X_star.point) for X in iterates])


@dataclass(frozen=True)
class RateFit:
    """Tail fit of the distance-to-limit sequence.

    model 'exp' means distance ~ C * exp(-parameter * n); model 'power' means
    distance ~ C * n**(-parameter). Diagnostic only: which regime applies is
    unknowable in advance, so the better least-squares residual wins.
    """

    model: str
    parameter: float
    residual: float


def rate_fit(distances, tail_fraction: float = 0.5, drop_last: int = 3) -> RateFit | None:
    """Fit exponential and power-law decay to the tail of a distance sequence.

    The last drop_last entries are discarded (the limit proxy is the final
    iterate, whose self-distance biases the tail). Returns None when fewer
    than 10 usable tail records remain.
    """
    d = np.asarray(distances, dtype=float).ravel()
    n = np.arange(d.size)
    if drop_last:
        d, n = d[:-drop_last], n[:-drop_last]
    keep = d > 0
    # restrict to the tail; index 0 is always dropped so log n stays finite
    keep[: max(1, int((1.0 - tail_fraction) * d.size))] = False
    d, n = d[keep], n[keep]
    if d.size < 10:
        return None
    logd = np.log(d)
    fits = []
    for model, x in (("exp", n.astype(float)), ("power", np.log(n))):
        A = np.column_stack([x, np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(A, logd, rcond=None)
        resid = float(np.sum((A @ coef - logd) ** 2))
        fits.append(RateFit(model=model, parameter=-float(coef[0]), residual=resid))
    return min(fits, key=lambda r: r.residual)
