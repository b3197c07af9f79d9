"""Armijo backtracking on the variety, with descent-condition monitors.

The step size is the largest beta^m * bar_beta satisfying the sufficient
decrease test f(R(x, alpha*xi)) - f(x) <= c * alpha * <grad f, xi>. The
initial trial bar_beta (see initial_step) has three parts: a closed-form
floor rule is its lower bound, so that it never falls below the ratio
g/||xi|| of projected-antigradient norm to direction norm; the exact
minimizer ||xi||^2 / <xi, Hess f xi> of the quadratic model along xi, from
the curvature every objective supplies, is the usual start; STEP_CAP bounds
that start above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# the retraction constant of the rank-truncation projection: a retracted
# step is at most (1 + 1/sqrt(2)) times the tangent step
RETRACTION_UPPER = 1.0 + 2.0 ** -0.5
# upper bound of the exact-curvature initial step. For matrix completion the
# exact step is of order 1/p at sampling fraction p (3 to 14 on fig1-small at
# 16%, 7 to 35 on fig1-full-k20 at 6%); a direction with almost no mass on
# the mask would make it unbounded, and the cap keeps the first trial finite
STEP_CAP = 1e3


@dataclass(frozen=True)
class ArmijoConfig:
    """Backtracking parameters.

    beta: backtracking factor in (0, 1).
    c: sufficient-decrease constant in (0, 1).
    max_backtracks: hard cap on rejected trials (0.5**60 ~ 1e-18 underflow guard).
    initial_floor: per-algorithm lower bound of the initial trial step.
    """

    beta: float = 0.5
    c: float = 1e-4
    max_backtracks: int = 60
    initial_floor: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0.0 < self.c < 1.0:
            raise ValueError("c must lie in (0, 1)")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be positive")
        if self.initial_floor <= 0.0:
            raise ValueError("initial_floor must be positive")


@dataclass(frozen=True)
class StepOutcome:
    """Accepted Armijo step: alpha = beta**backtracks * bar_beta."""

    alpha: float
    backtracks: int
    f_new: float
    X_new: object
    decrease: float


class LineSearchError(RuntimeError):
    """Backtracking exhausted max_backtracks without sufficient decrease.

    Carries the (alpha, f) pairs tried; usually signals a wrong slope sign or
    tolerance trouble near stationarity.
    """

    def __init__(self, message, trials):
        super().__init__(message)
        self.trials = trials


def initial_step(
    g_minus: float, xi_norm: float, floor: float, curvature: float | None = None
) -> float:
    """Initial trial step max(floor, g_minus / xi_norm, min(STEP_CAP, exact)).

    The floor rule max(floor, g_minus / xi_norm) is the lower bound: with
    floor 1 for the full cone projection (where the ratio is exactly 1) and
    floor sqrt(2) for the flat directions (where the ratio is at most
    sqrt(2)), the trial step never falls below g_minus / xi_norm. When the
    curvature <xi, Hess f xi> along the direction is given, positive and
    finite, the exact minimizer exact = xi_norm**2 / curvature of the
    quadratic model along xi is the usual start, capped above at STEP_CAP;
    otherwise the floor rule alone applies.
    """
    if xi_norm <= 0.0:
        raise ValueError("direction norm must be positive (handle stationarity first)")
    step = max(floor, g_minus / xi_norm)
    if curvature is not None and 0.0 < curvature < math.inf:
        step = max(step, min(STEP_CAP, xi_norm**2 / curvature))
    return step


def armijo(X, xi, obj, f_x, slope, bar_beta, cfg: ArmijoConfig, retractor) -> StepOutcome:
    """Backtrack from bar_beta until sufficient decrease holds.

    slope is the directional derivative <grad f(X), xi> and must be negative.
    Candidate points are produced by retractor(X, xi, alpha); their cost is
    evaluated through obj.value. A trial whose retraction or value overflows
    (or produces an invalid floating-point result) counts as f = inf, and a
    trial with a non-finite value is rejected like any other. Raises
    LineSearchError after cfg.max_backtracks rejected trials.
    """
    if not slope < 0.0:
        raise ValueError(f"need a descent direction (slope={slope!r})")
    trials = []
    for m in range(cfg.max_backtracks + 1):
        alpha = bar_beta * cfg.beta**m
        try:
            with np.errstate(over="raise", invalid="raise"):
                X_new = retractor(X, xi, alpha)
                f_new = obj.value(X_new)
        except FloatingPointError:
            f_new = math.inf
        trials.append((alpha, f_new))
        if math.isfinite(f_new) and f_new - f_x <= cfg.c * alpha * slope:
            return StepOutcome(alpha, m, f_new, X_new, f_new - f_x)
    raise LineSearchError(
        f"no sufficient decrease within {cfg.max_backtracks} backtracks", trials
    )


def angle_check(slope: float, g_minus: float, xi_norm: float, omega: float) -> bool:
    """slope <= -omega * g_minus * xi_norm, with roundoff slack.

    Holds with omega = 1 for the full cone projection and omega = 1/sqrt(2)
    for the flat partial projections.
    """
    tol = 1e-12 * max(1.0, g_minus * xi_norm)
    return slope <= -omega * g_minus * xi_norm + tol


@dataclass(frozen=True)
class MonitorEntry:
    n: int
    stationary: bool
    a1_ratio: float | None = None
    a3_ratio: float | None = None


@dataclass(frozen=True)
class MonitorReport:
    """Per-iteration descent diagnostics.

    a1_ratio(n) = (f_n - f_{n+1}) / (g_n * ||X_{n+1} - X_n||) is the primary
    descent ratio; the theory guarantees it at least omega * c / M with
    M = 1 + 1/sqrt(2) for metric-projection steps. a3_ratio(n) =
    ||X_{n+1} - X_n|| / g_n is the small-step-size safeguard ratio; it is
    reported but carries no universal constant.
    """

    a1_threshold: float
    entries: list = field(default_factory=list)

    @property
    def a1_violations(self):
        return [e.n for e in self.entries if e.a1_ratio is not None and e.a1_ratio < self.a1_threshold]

    @property
    def min_a1_ratio(self):
        ratios = [e.a1_ratio for e in self.entries if e.a1_ratio is not None]
        return min(ratios) if ratios else None


def descent_monitors(trace, omega: float = 1.0, c: float = 1e-4) -> MonitorReport:
    """Compute the descent ratios along a recorded trace.

    trace is a sequence of records with attributes f, g_minus and
    displacement (displacement at index n being ||X_{n+1} - X_n||). Steps
    with g_minus = 0 or zero displacement are reported as exact-stationary
    and produce no ratios.
    """
    if len(trace) < 2:
        raise ValueError("need at least two recorded iterates")
    threshold = omega * c / RETRACTION_UPPER - 1e-10
    entries = []
    for n in range(len(trace) - 1):
        rec, nxt = trace[n], trace[n + 1]
        g = rec.g_minus
        d = rec.displacement
        if g == 0.0 or d is None or d == 0.0:
            entries.append(MonitorEntry(n, stationary=True))
            continue
        entries.append(
            MonitorEntry(
                n,
                stationary=False,
                a1_ratio=(rec.f - nxt.f) / (g * d),
                a3_ratio=d / g,
            )
        )
    return MonitorReport(a1_threshold=threshold, entries=entries)
