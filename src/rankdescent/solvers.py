"""Iteration driver: projected steepest descent and the retraction-free method.

Every variant follows the same loop: project the antigradient onto the
tangent cone (the negated projection of the gradient, since the cone is
closed under sign), apply the variant's direction rule, and take an Armijo
step along the objective's line (objectives.Line), the curve
alpha -> retract(xi, alpha) from the direction's base point X, starting at
the initial step of a curvature that alternates between the line's exact
one and the secant of the step before.
The line gives the step's point, its f and its distance from X, which the
trace records as the displacement ||X_{n+1} - X_n||. A variant is one entry
of VARIANTS: its direction rule, which takes the cone projection alone.
Stopping rules and the per-iteration trace are artifact plumbing; the
iteration itself would happily run forever. No file format lives here:
bench writes the trace as CSV, and IterateHistory's unnamed temporary file
is in-process storage that no other program reads.
"""

from __future__ import annotations

import io
import math
import tempfile
import time
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import FactoredMatrix, factored_diff_norm
from .geometry import VarietyPoint, choose_flat_direction, project_cone
from .linesearch import ArmijoConfig, LineSearchError, armijo, initial_step, secant_curvature

# name -> direction rule applied to the projected antigradient
VARIANTS = {
    # projected steepest descent: the full projection, retracted by truncation
    "sd": lambda G: G,
    # retraction-free: the larger flat partial projection, whose update stays
    # on the variety without truncation. The name is looked up at call time,
    # so a wrapper installed on this module sees every call.
    "rf": lambda G: choose_flat_direction(G),
}


class SolveStatus(Enum):
    CONVERGED_G = "converged_g"
    STALLED_F = "stalled_f"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class SolverConfig:
    """Rank budget, variant, stopping rules and the line search they imply.

    tol_g stops once the projected-antigradient norm is at or below tol_g times
    its value at the first iterate, which a critical point meets at once; tol_f
    declares a stall after three consecutive decreases below tol_f * max(1, f),
    or at once when a line search fails with no trial moving f by more than
    that; both tolerances must be positive and finite. record_iterates keeps
    every iterate, the start included, in the result's IterateHistory, which
    holds them on disk. The line search uses ArmijoConfig's defaults, and its
    initial trial step is linesearch.initial_step, from the curvature solve
    chooses: exact on even iterations, secant on odd ones.
    """

    k: int
    variant: str = "sd"
    max_iters: int = 1000
    tol_g: float = 1e-12
    tol_f: float = 1e-14
    record_iterates: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not (0 < self.tol_g < math.inf and 0 < self.tol_f < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    def armijo_config(self) -> ArmijoConfig:
        return ArmijoConfig()


@dataclass
class TraceRecord:
    """One row per iterate; alpha/backtracks/displacement/wall_ms describe
    the step taken from it (zero on the terminal row). xi_norm is kept for
    post-hoc line-search checks and is not a column of bench.TRACE_COLUMNS."""

    n: int
    f: float
    g_minus: float
    rank: int
    sigma1: float
    sigmak: float
    rel_err_full: float | None
    rel_err_mask: float | None
    alpha: float = 0.0
    backtracks: int = 0
    displacement: float = 0.0
    wall_ms: float = 0.0
    xi_norm: float = 0.0


class IterateHistory(Sequence):
    """Read-only sequence of a solve's iterates, kept in an unnamed temporary file.

    append writes an iterate's factors U, sigma and V as raw float64 bytes;
    only an index of (offset, m, n, s) stays in memory, since the rank s can
    change between iterates. An item is read back into fresh arrays, bitwise
    equal to those appended, as a validated FactoredMatrix wrapped with the
    solve's budget k; iteration reads one iterate at a time. A slice raises
    TypeError. The file is not memory-mapped, so iterates read and dropped are
    not held by the process, and it is closed when the history is
    garbage-collected.
    """

    def __init__(self, k: int):
        self.k = k
        self._index: list[tuple[int, int, int, int]] = []
        self._file = tempfile.TemporaryFile()
        weakref.finalize(self, self._file.close)

    def append(self, X: VarietyPoint) -> None:
        F = X.point
        self._index.append((self._file.seek(0, io.SEEK_END), *F.shape, F.rank))
        for a in (F.U, F.sigma, F.V):
            self._file.write(np.ascontiguousarray(a).data)

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, i):
        if isinstance(i, slice):
            raise TypeError("IterateHistory takes no slices")
        offset, m, n, s = self._index[i]
        buf = np.empty((m + 1 + n) * s)
        self._file.seek(offset)
        self._file.readinto(buf)
        U, sigma, V = np.split(buf, [m * s, (m + 1) * s])
        return VarietyPoint(FactoredMatrix(U.reshape(m, s), sigma, V.reshape(n, s)), self.k)


@dataclass
class SolveResult:
    """The final iterate, why the run stopped, one TraceRecord per iterate,
    and, with SolverConfig.record_iterates, every iterate in an
    IterateHistory (None otherwise)."""

    X_star: VarietyPoint
    status: SolveStatus
    trace: list
    iterates: IterateHistory | None


def solve(obj, X0: VarietyPoint, cfg: SolverConfig, metrics=None) -> SolveResult:
    """Run the configured descent variant from X0.

    X0 is a VarietyPoint; the run uses cfg.k whatever X0's budget.
    obj is the cost, used through three methods: value(X) is f at a
    VarietyPoint, gradient(X) its ambient gradient as a matrix operand
    (shape, T and @) for the cone projection, and line(xi) the
    objectives.Line along retract(xi, alpha) for a cone tangent vector xi.
    metrics, when given, is called as metrics(X, f) and must return
    (rel_err_full, rel_err_mask) for the trace.

    Each Armijo search runs along obj.line(xi) and starts at
    initial_step: the minimizer ||xi||^2 / curvature of the quadratic model
    along the direction, capped above at STEP_CAP and bounded below by
    g_minus / ||xi||. On even iterations (0, 2, ...) the curvature is the
    line's exact <xi, Hess f xi>. On odd ones it is kappa * ||xi||^2, kappa
    the secant curvature per unit squared norm of the step just accepted
    (linesearch.secant_curvature), which costs no evaluation; a kappa that
    is not positive and finite gives way to the exact curvature. This
    alternates Cauchy and Barzilai-Borwein steps (Raydan and Svaiter,
    Comput. Optim. Appl. 2002); the search stays monotone Armijo, so the
    descent contracts are untouched. Along a flat direction both objectives
    are exactly quadratic, so there the secant equals the exact curvature to
    roundoff. The line sets how trials are valued: a MaskedLine's f can
    differ from a fresh evaluation at its point at roundoff level.

    The iteration stops once g_minus is at or below tol_g times its first
    value, which a critical point meets at once, on a persistent stall of f, or
    at max_iters; the trace has one row per iterate, the terminal one included.
    A line search that fails while every trial stays within tol_f * max(1, f)
    of f also ends the run as stalled (f is flat to roundoff there, as at an
    exact fit of a fully observed problem); any other LineSearchError
    propagates. With cfg.record_iterates each iterate, X0 included, is written
    to the result's IterateHistory before its iteration starts, outside
    wall_ms. Deterministic for deterministic objectives at a fixed BLAS thread
    count. The BLAS sums in an order set by its threads and the iteration
    amplifies that roundoff, so traces taken at two thread counts differ.
    """
    X = X0 if X0.k == cfg.k else VarietyPoint(X0.point, cfg.k)
    armijo_cfg = cfg.armijo_config()
    direction = VARIANTS[cfg.variant]

    f_x = obj.value(X)
    kappa = math.nan  # secant curvature per unit squared norm of the last step
    stall = 0
    records: list[TraceRecord] = []
    iterates = IterateHistory(cfg.k) if cfg.record_iterates else None
    status = None

    while status is None:
        if iterates is not None:
            iterates.append(X)
        t0 = time.perf_counter()
        G, g_minus = project_cone(X, obj.gradient(X))
        rel_full, rel_mask = metrics(X, f_x) if metrics is not None else (None, None)
        sig = X.point.sigma
        rec = TraceRecord(
            n=len(records),
            f=f_x,
            g_minus=g_minus,
            rank=X.s,
            sigma1=float(sig[0]) if X.s else 0.0,
            sigmak=float(sig[cfg.k - 1]) if X.s >= cfg.k else 0.0,
            rel_err_full=rel_full,
            rel_err_mask=rel_mask,
        )
        records.append(rec)

        if g_minus <= cfg.tol_g * records[0].g_minus:
            status = SolveStatus.CONVERGED_G
        elif stall >= 3:
            status = SolveStatus.STALLED_F
        elif rec.n >= cfg.max_iters:
            status = SolveStatus.MAX_ITERS
        else:
            xi = direction(-G)
            xi_norm = xi.norm
            line = obj.line(xi)
            # odd iterations start from the last step's secant curvature, even
            # ones (and an unusable secant) from the line's exact curvature
            curvature = kappa * xi_norm**2 if rec.n % 2 else math.nan
            if not 0.0 < curvature < math.inf:
                curvature = line.curvature
            bar_beta = initial_step(g_minus, xi_norm, curvature)
            # for projection-derived directions <grad, xi> = -||xi||^2 exactly
            slope = -(xi_norm**2)
            try:
                out = armijo(line, f_x, slope, bar_beta, armijo_cfg)
            except LineSearchError as err:
                # no trial moved f beyond the stall tolerance: f is flat to
                # roundoff here, as at an exact fit, so the run has stalled
                tol = cfg.tol_f * max(1.0, f_x)
                if not all(abs(f - f_x) <= tol for _, f in err.trials):
                    raise
                status = SolveStatus.STALLED_F
            else:
                rec.alpha = out.alpha
                rec.backtracks = out.backtracks
                rec.xi_norm = xi_norm
                rec.displacement = out.distance
                rec.wall_ms = (time.perf_counter() - t0) * 1e3
                stall = stall + 1 if f_x - out.f_new <= cfg.tol_f * max(1.0, f_x) else 0
                kappa = secant_curvature(f_x, out.f_new, out.alpha, slope, xi_norm)
                X, f_x = out.X_new, out.f_new

    return SolveResult(X_star=X, status=status, trace=records, iterates=iterates)


# ---------------------------------------------------------------------------
# Rate diagnostics
# ---------------------------------------------------------------------------


def iterate_distances(iterates) -> np.ndarray:
    """||X_n - X*|| for a sequence of iterates (an IterateHistory or a list),
    X* the last of them; the sequence is read one iterate at a time."""
    last = iterates[-1].point
    return np.array([factored_diff_norm(X.point, last) for X in iterates])


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


# entries rate_fit drops from the end of a distance sequence
RATE_DROP_LAST = 3


def rate_fit(distances, tail_fraction: float = 0.5) -> RateFit | None:
    """Fit exponential and power-law decay to the tail of a distance sequence.

    The last RATE_DROP_LAST entries are discarded (the limit proxy is the
    final iterate, whose self-distance biases the tail), and the fit uses the
    last tail_fraction of the sequence. Returns None when fewer than 10
    usable tail records remain. Raises ValueError on a non-finite distance,
    which no fit could use, and on a tail_fraction outside (0, 1].
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail fraction must lie in (0, 1], got {tail_fraction}")
    d = np.asarray(distances, dtype=float).ravel()
    if not np.isfinite(d).all():
        raise ValueError("distances must be finite")
    n = np.arange(d.size)
    d, n = d[:-RATE_DROP_LAST], n[:-RATE_DROP_LAST]
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
