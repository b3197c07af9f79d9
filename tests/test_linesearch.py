import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import CurveLine
from rankdescent.linesearch import (
    ArmijoConfig,
    LineSearchError,
    RETRACTION_UPPER,
    STEP_CAP,
    angle_check,
    armijo,
    descent_monitors,
    initial_step,
)


class TestInitialStep:
    # the ratio g / ||xi|| is the step's floor: the lower bound it never
    # falls below, whatever the curvature
    def test_floor_when_ratio_is_one(self):
        assert initial_step(2.0, 2.0, 0.0) == 1.0

    def test_ratio_dominates(self):
        assert initial_step(2.0, 1.0, 0.0) == 2.0

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            initial_step(1.0, 0.0, 0.0)

    def test_flat_direction_step_meets_ratio(self):
        # a flat direction has g/sqrt(2) <= ||xi|| <= g, so its ratio lies in
        # [1, sqrt(2)]; the step meets it whether or not the curvature is
        # usable and however short the exact step is
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = rng.uniform(0.1, 10.0)
            xi = rng.uniform(g / math.sqrt(2.0), g)
            for curvature in (0.0, 10.0 * xi**2):
                step = initial_step(g, xi, curvature)
                assert step >= g / xi - 1e-15

    def test_exact_curvature_step(self):
        # ||xi||^2 / curvature = 4 / 0.5 = 8 beats the ratio's 1
        assert initial_step(2.0, 2.0, curvature=0.5) == 8.0

    def test_floor_bounds_exact_step_below(self):
        # exact step 4 / 8 = 0.5 falls under the ratio 1, which wins
        assert initial_step(2.0, 2.0, curvature=8.0) == 1.0
        assert initial_step(3.0, 1.0, curvature=2.0) == 3.0

    def test_cap_bounds_exact_step_above(self):
        assert initial_step(2.0, 2.0, curvature=1e-300) == STEP_CAP

    def test_unusable_curvature_falls_back_to_ratio(self):
        for curvature in (0.0, -1.0, math.inf, math.nan):
            assert initial_step(2.0, 2.0, curvature) == 1.0
            assert initial_step(3.0, 2.5, curvature) == 1.2


def affine(x, xi):
    """The curve alpha -> (x + alpha * xi, alpha * ||xi||)."""
    return lambda alpha: (x + alpha * xi, alpha * float(np.linalg.norm(xi)))


class TestArmijo:
    def test_flat_quadratic_full_step(self):
        # f(x) = 0.5||x - a||^2, xi = a - x: alpha = 1 accepted immediately
        rng = np.random.default_rng(1)
        a = rng.standard_normal(5)
        x = rng.standard_normal(5)
        xi = a - x

        def f(y):
            return 0.5 * float(np.sum((y - a) ** 2))

        slope = -float(np.sum(xi**2))
        out = armijo(CurveLine(f, affine(x, xi)), f(x), slope, 1.0, ArmijoConfig(c=1e-4))
        assert out.alpha == 1.0
        assert out.backtracks == 0
        assert out.f_new - f(x) == pytest.approx(0.5 * slope, rel=1e-12)

    def test_scalar_three_backtracks(self):
        # f(x) = x^2/2 at x0 = 1 with xi = -1, c = 0.9: condition is a <= 0.2,
        # so the grid 1, 1/2, 1/4, 1/8 accepts exactly at 0.125
        line = CurveLine(lambda y: 0.5 * float(y**2), affine(1.0, -1.0))
        out = armijo(line, 0.5, -1.0, 1.0, ArmijoConfig(beta=0.5, c=0.9))
        assert out.alpha == 0.125
        assert out.backtracks == 3
        # the distance is the curve's for the accepted trial
        assert out.distance == 0.125

    def test_first_trial_accepted_keeps_bar_beta(self):
        out = armijo(CurveLine(float, affine(10.0, -1.0)), 10.0, -1.0, 2.5, ArmijoConfig())
        assert out.alpha == 2.5
        assert out.backtracks == 0

    def test_overflowing_trial_rejected(self):
        # f(y) = y^2/2 from x0 = 1 along xi = -1: the square overflows at the
        # first trial 1e300, is finite but too large at 1e150, and the third
        # trial 1e300 * 1e-300 lands on the minimizer 0
        line = CurveLine(lambda y: 0.5 * float(np.square(y)), affine(np.float64(1.0), -1.0))
        out = armijo(line, 0.5, -1.0, 1e300, ArmijoConfig(beta=1e-150))
        assert out.backtracks == 2
        assert out.alpha == pytest.approx(1.0, rel=1e-12)
        assert out.f_new == pytest.approx(0.0, abs=1e-24)

    def test_exact_line_retracts_only_accepted_step(self):
        # the scalar example with f(x0 + alpha * xi) = (1 - alpha)^2 / 2 from
        # an exact model, as a MaskedLine has: trials never run the curve,
        # and the accepted trial's point is formed once, by the line's step
        line = CurveLine(None, affine(1.0, -1.0), model=lambda a: 0.5 * (1.0 - a) ** 2)
        out = armijo(line, 0.5, -1.0, 1.0, ArmijoConfig(beta=0.5, c=0.9))
        assert (out.alpha, out.backtracks, out.f_new) == (0.125, 3, 0.5 * 0.875**2)
        assert line.stepped == [0.125]
        assert line.points == [out.X_new] == [0.875]
        assert out.distance == 0.125

    def test_exact_line_step_whose_retraction_overflows_is_rejected(self):
        # the exact model accepts every trial, but the step's retraction
        # overflows at alpha = 1 and 1/2: those trials count as f = inf and
        # the search backtracks to 1/4 instead of raising
        def curve(alpha):
            return 1.0 + np.exp(np.float64(2000.0 * alpha)), alpha

        line = CurveLine(None, curve, model=lambda a: 0.5 * (1.0 - a) ** 2)
        out = armijo(line, 0.5, -1.0, 1.0, ArmijoConfig())
        assert (out.alpha, out.backtracks, out.f_new) == (0.25, 2, 0.5 * 0.75**2)
        assert line.points == [out.X_new]
        assert out.distance == 0.25

    def test_non_finite_values_exhaust_to_error(self):
        cfg = ArmijoConfig(max_backtracks=3)
        with pytest.raises(LineSearchError) as err:
            armijo(CurveLine(lambda y: -math.inf, affine(0.0, 1.0)), 0.0, -1.0, 1.0, cfg)
        assert [f for _, f in err.value.trials] == [-math.inf] * 4

    def test_nonnegative_slope_rejected(self):
        with pytest.raises(ValueError):
            armijo(CurveLine(float, affine(0.0, 1.0)), 0.0, 0.0, 1.0, ArmijoConfig())

    def test_exhaustion_raises_with_trials(self):
        # claimed slope is negative but f increases: every trial fails
        cfg = ArmijoConfig(max_backtracks=5)
        with pytest.raises(LineSearchError) as err:
            armijo(CurveLine(lambda y: float(abs(y)), affine(0.0, 1.0)), 0.0, -1.0, 1.0, cfg)
        assert len(err.value.trials) == 6

    def test_accepted_step_satisfies_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.standard_normal(4)
            x = rng.standard_normal(4)
            xi = a - x + 0.1 * rng.standard_normal(4)

            def f(y):
                return 0.5 * float(np.sum((y - a) ** 2))

            slope = float(xi @ (x - a))
            if slope >= 0:
                continue
            f_x = f(x)
            cfg = ArmijoConfig()
            out = armijo(CurveLine(f, affine(x, xi)), f_x, slope, 1.5, cfg)
            assert out.f_new - f_x <= cfg.c * out.alpha * slope + 1e-12
            assert out.alpha == 1.5 * cfg.beta**out.backtracks


class TestAngleCheck:
    def test_full_projection_equality(self):
        # slope = -g * ||xi|| is the equality case at omega = 1
        assert angle_check(-6.0, 2.0, 3.0, 1.0)

    def test_scaling_invariance(self):
        assert angle_check(-3.0, 2.0, 1.5, 1.0)

    def test_fails_beyond_omega(self):
        assert not angle_check(-3.0, 2.0, 3.0, 1.0)
        assert angle_check(-3.0, 2.0, 3.0, 0.5)


class TestConfigs:
    def test_armijo_validation(self):
        with pytest.raises(ValueError):
            ArmijoConfig(beta=1.0)
        with pytest.raises(ValueError):
            ArmijoConfig(c=0.0)
        with pytest.raises(ValueError):
            ArmijoConfig(max_backtracks=0)


def rec(f, g, d):
    return SimpleNamespace(f=f, g_minus=g, displacement=d)


class TestMonitors:
    def test_requires_two_records(self):
        with pytest.raises(ValueError):
            descent_monitors([rec(1.0, 1.0, 1.0)])

    def test_stationary_flagged(self):
        trace = [rec(1.0, 0.0, 0.0), rec(1.0, 0.0, 0.0)]
        report = descent_monitors(trace)
        assert report.a1[0] is None
        assert report.min_a1_ratio is None

    def test_ratios(self):
        trace = [rec(1.0, 2.0, 0.5), rec(0.5, 1.0, 0.25), rec(0.4, 0.0, 0.0)]
        report = descent_monitors(trace, omega=1.0, c=1e-4)
        assert report.a1[0] == pytest.approx((1.0 - 0.5) / (2.0 * 0.5))
        assert report.a3[0] == pytest.approx(0.25)
        assert report.a1[1] == pytest.approx(0.1 / 0.25)
        assert report.a1_violations == []
        assert report.a1_threshold == pytest.approx(1e-4 / RETRACTION_UPPER, abs=1e-9)

    def test_violation_flagged(self):
        # a decrease far below the guaranteed share triggers the flag
        trace = [rec(1.0, 1.0, 1.0), rec(1.0 - 1e-12, 1.0, 1.0)]
        report = descent_monitors(trace, omega=1.0, c=1e-4)
        assert report.a1_violations == [0]
