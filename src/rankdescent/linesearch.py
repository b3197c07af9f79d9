"""Armijo backtracking along one line, with descent-condition monitors.

The search sees the objective only through its line (objectives.Line):
value(alpha) is f at the trial point R(X, alpha * xi), and step() returns
that point and its distance from X. The step size is the largest
beta^m * bar_beta satisfying the sufficient decrease test
f(R(x, alpha*xi)) - f(x) <= c * alpha * <grad f, xi>. The initial trial
bar_beta (see initial_step) is the minimizer ||xi||^2 / curvature of the
quadratic model along xi, capped above by STEP_CAP and bounded below by the
ratio g/||xi|| of projected-antigradient norm to direction norm. The
curvature is either the exact <xi, Hess f xi> of the objective's line or
kappa * ||xi||^2, kappa the secant curvature of the step before
(secant_curvature); the solver alternates the two. Either way every start
lies in [g/||xi||, STEP_CAP], and the search stays monotone. The module
imports nothing else of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """

    beta: float = 0.5
    c: float = 1e-4
    max_backtracks: int = 60

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0.0 < self.c < 1.0:
            raise ValueError("c must lie in (0, 1)")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be positive")


@dataclass(frozen=True)
class StepOutcome:
    """Accepted Armijo step: alpha = beta**backtracks * bar_beta, and the
    point X_new with its distance from X, as the line's step() gave them."""

    alpha: float
    backtracks: int
    f_new: float
    X_new: object
    distance: float


class LineSearchError(RuntimeError):
    """Backtracking exhausted max_backtracks without sufficient decrease.

    Carries the (alpha, f) pairs tried; usually signals a wrong slope sign or
    tolerance trouble near stationarity.
    """

    def __init__(self, message, trials):
        super().__init__(message)
        self.trials = trials


def initial_step(g_minus: float, xi_norm: float, curvature: float) -> float:
    """Initial trial step max(g_minus / xi_norm, min(STEP_CAP, model)).

    The ratio g_minus / xi_norm is the lower bound (exactly 1 for the full
    cone projection, between 1 and sqrt(2) for the flat directions). The
    curvature along the direction is required: the exact <xi, Hess f xi>,
    or a secant estimate of it such as kappa * xi_norm**2 (see
    secant_curvature). When it is positive and finite, the minimizer
    model = xi_norm**2 / curvature of the quadratic model along xi is the
    usual start, capped above at STEP_CAP; when it is zero, negative,
    infinite or NaN the ratio alone applies.
    """
    if xi_norm <= 0.0:
        raise ValueError("direction norm must be positive (handle stationarity first)")
    step = g_minus / xi_norm
    if 0.0 < curvature < math.inf:
        step = max(step, min(STEP_CAP, xi_norm**2 / curvature))
    return step


def secant_curvature(f_x: float, f_new: float, alpha: float, slope: float, xi_norm: float) -> float:
    """Curvature per unit squared norm of the step from f_x to f_new at alpha.

    kappa = 2 * (f_new - f_x - alpha * slope) / (alpha * xi_norm)**2 is the
    second derivative, over ||xi||^2, of the parabola with value f_x and
    slope `slope` at 0 and value f_new at alpha: <xi, Hess f xi> / ||xi||^2
    where f is quadratic along the step. NaN when alpha * xi_norm squares to
    zero.
    """
    dx2 = (alpha * xi_norm) * (alpha * xi_norm)
    return 2.0 * (f_new - f_x - alpha * slope) / dx2 if dx2 > 0.0 else math.nan


def armijo(line, f_x, slope, bar_beta, cfg: ArmijoConfig) -> StepOutcome:
    """Backtrack from bar_beta until sufficient decrease holds.

    slope is the directional derivative <grad f(X), xi> and must be negative;
    f_x is f(X). Each trial's cost is line.value(alpha), and the accepted
    trial's point and distance from X are line.step(). A trial whose value
    or step overflows (or produces an invalid floating-point result) counts
    as f = inf, and a trial with a non-finite value is rejected like any
    other. Raises LineSearchError after cfg.max_backtracks rejected trials.
    """
    if not slope < 0.0:
        raise ValueError(f"need a descent direction (slope={slope!r})")
    trials = []
    for m in range(cfg.max_backtracks + 1):
        alpha = bar_beta * cfg.beta**m
        try:
            with np.errstate(over="raise", invalid="raise"):
                f_new = line.value(alpha)
                accept = math.isfinite(f_new) and f_new - f_x <= cfg.c * alpha * slope
                if accept:
                    X_new, distance = line.step()
        except FloatingPointError:
            f_new, accept = math.inf, False
        trials.append((alpha, f_new))
        if accept:
            return StepOutcome(alpha, m, f_new, X_new, distance)
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
class MonitorReport:
    """Per-iteration descent diagnostics, one list entry per step n.

    a1[n] = (f_n - f_{n+1}) / (g_n * ||X_{n+1} - X_n||) is the primary
    descent ratio; the theory guarantees it at least omega * c / M with
    M = 1 + 1/sqrt(2) for metric-projection steps. a3[n] =
    ||X_{n+1} - X_n|| / g_n is the small-step-size safeguard ratio; it is
    reported but carries no universal constant. Both are None at an
    exact-stationary step.
    """

    a1_threshold: float
    a1: list
    a3: list

    @property
    def a1_violations(self):
        return [n for n, a in enumerate(self.a1) if a is not None and a < self.a1_threshold]

    @property
    def min_a1_ratio(self):
        return min((a for a in self.a1 if a is not None), default=None)


def descent_monitors(trace, omega: float = 1.0, c: float = ArmijoConfig.c) -> MonitorReport:
    """Compute the descent ratios along a recorded trace.

    trace is a sequence of records with attributes f, g_minus and
    displacement (displacement at index n being ||X_{n+1} - X_n||). Steps
    with g_minus = 0 or zero displacement are exact-stationary and get None
    for both ratios.
    """
    if len(trace) < 2:
        raise ValueError("need at least two recorded iterates")
    threshold = omega * c / RETRACTION_UPPER - 1e-10
    a1, a3 = [], []
    for rec, nxt in zip(trace, trace[1:]):
        g, d = rec.g_minus, rec.displacement
        stationary = g == 0.0 or d == 0.0
        a1.append(None if stationary else (rec.f - nxt.f) / (g * d))
        a3.append(None if stationary else d / g)
    return MonitorReport(threshold, a1, a3)
