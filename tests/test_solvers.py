import math

import numpy as np
import pytest

from rankdescent.core import FactoredMatrix, factored_diff_norm, frob_norm, truncate
from rankdescent.geometry import (
    VarietyPoint,
    choose_flat_direction,
    project_cone,
    random_point,
    retract,
    zero_point,
)
from rankdescent.linesearch import angle_check, descent_monitors, initial_step
from rankdescent.objectives import MatrixCompletion, QuadraticDistance
from rankdescent.solvers import (
    SolveStatus,
    SolverConfig,
    iterate_distances,
    rate_fit,
    solve,
    write_trace_csv,
)
from helpers import random_instance, read_trace_csv


def quadratic_setup(seed, m=12, n=10, r=5, k=3):
    rng = np.random.default_rng(seed)
    A = truncate(rng.standard_normal((m, n)), r)
    obj = QuadraticDistance(A)
    X0 = random_point(rng, m, n, k, k)
    return obj, A, X0


class TestSolveBasics:
    def test_stationary_at_critical_point(self):
        # starting exactly at the best rank-k approximation of the target the
        # projected antigradient cancels to exact zeros
        rng = np.random.default_rng(0)
        A = truncate(rng.standard_normal((8, 7)), 3)  # rank 3 = k
        obj = QuadraticDistance(A)
        X0 = VarietyPoint(truncate(A, 3), 3)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=50))
        assert res.status is SolveStatus.STATIONARY
        assert len(res.trace) == 1
        assert res.trace[0].g_minus == 0.0

    def test_quadratic_oracle_convergence(self):
        # with k = rank(A) the unique global minimizer is A itself
        obj, A, X0 = quadratic_setup(1, r=3, k=3)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=300))
        err = np.linalg.norm(res.X_star.dense() - A.dense()) / np.linalg.norm(A.dense())
        assert err <= 1e-8
        assert res.status in (SolveStatus.CONVERGED_G, SolveStatus.STALLED_F)

    def test_monotone_strict_decrease(self):
        obj, _, X0 = quadratic_setup(2)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=200))
        fs = [r.f for r in res.trace]
        assert all(b < a for a, b in zip(fs, fs[1:]))

    def test_iterates_rank_bounded(self):
        rng = np.random.default_rng(3)
        obj, _, X0 = quadratic_setup(3, k=4)
        for variant in ("sd", "rf"):
            res = solve(obj, X0, SolverConfig(k=4, variant=variant, max_iters=40, record_iterates=True))
            for X in res.iterates:
                sv = np.linalg.svd(X.dense(), compute_uv=False)
                assert (sv > 1e-10 * max(sv[0], 1e-300)).sum() <= 4

    def test_critical_point_rank_dichotomy(self):
        # converged with a nonzero ambient gradient forces full numerical rank
        obj, A, X0 = quadratic_setup(4, r=5, k=3)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=300))
        grad_norm = frob_norm(
            res.X_star.dense() - A.dense()
        )
        g0 = res.trace[0].g_minus
        if res.status is SolveStatus.CONVERGED_G and grad_norm > 10 * 1e-12 * g0:
            assert res.X_star.s == 3

    def test_wraps_factored_start(self):
        obj, A, _ = quadratic_setup(5)
        res = solve(obj, truncate(A.dense(), 2), SolverConfig(k=3, max_iters=50))
        assert res.X_star.shape == A.shape

    def test_rank_grows_from_deficient_start(self):
        # starting below the budget exercises the perp part of the cone and
        # the rank-(k+s) retraction; the iterate rank climbs to k
        obj, A, _ = quadratic_setup(18, r=4, k=4)
        X0 = truncate(A.dense(), 1)
        res = solve(obj, X0, SolverConfig(k=4, max_iters=200, record_iterates=True))
        assert res.trace[0].rank == 1
        assert res.X_star.s == 4
        err = np.linalg.norm(res.X_star.dense() - A.dense()) / np.linalg.norm(A.dense())
        assert err <= 1e-8

    def test_rank_deficient_target_from_deficient_start(self):
        # rank-4 targets with budget 8 from rank-2 starts: the perp block of
        # each cone projection is truncated to rank 8 - s while the remainder
        # has lower rank, and rf keeps going until it stalls near f = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            A = truncate(rng.standard_normal((60, 4)) @ rng.standard_normal((4, 50)), 4)
            X0 = random_point(rng, 60, 50, 2, 8)
            for variant in ("sd", "rf"):
                res = solve(QuadraticDistance(A), X0, SolverConfig(k=8, variant=variant, max_iters=500))
                assert all(r.rank <= 8 for r in res.trace)
                assert res.trace[-1].f <= 1e-12 * res.trace[0].f


class TestStepFunctions:
    def test_sd_from_zero_matches_truncated_antigradient(self):
        rng = np.random.default_rng(6)
        mask_rows, mask_cols = np.nonzero(rng.random((9, 8)) < 0.5)
        from rankdescent.core import IndexSet, SparseOnMask

        mask = IndexSet((9, 8), mask_rows, mask_cols)
        A = truncate(rng.standard_normal((9, 8)), 3)
        data = SparseOnMask(mask, A.dense()[mask.rows, mask.cols])
        obj = MatrixCompletion(data)
        X0 = zero_point(9, 8, 3)
        # the sd direction is the negated cone projection of the gradient
        direction = -project_cone(X0, obj.gradient(X0))[0]
        oracle = truncate(data.dense(), 3)
        # same subspaces: projectors onto the spans agree
        D = direction.perp
        assert np.allclose(D.U @ D.U.T, oracle.U @ oracle.U.T, atol=1e-10)
        assert np.allclose(D.V @ D.V.T, oracle.V @ oracle.V.T, atol=1e-10)

    def test_masked_gradients_are_never_densified(self, monkeypatch):
        # the starting guess and the rank-deficient cone projections of the
        # first iterations take the masked gradient as it is
        from rankdescent import geometry
        from rankdescent.bench import CompletionSpec, gen_problem, initial_guess
        from rankdescent.core import SparseOnMask

        problem, _ = gen_problem(CompletionSpec(60, 3, 5, 3, 9))

        def refuse(self):
            raise AssertionError("a masked matrix was densified")

        seen = []
        perp_truncation = geometry._perp_truncation

        def spy(X, F, budget):
            seen.append((X.s, type(F)))
            return perp_truncation(X, F, budget)

        monkeypatch.setattr(SparseOnMask, "dense", refuse)
        monkeypatch.setattr(geometry, "_perp_truncation", spy)
        assert initial_guess(problem, 5).s == 5
        starts = (zero_point(60, 60, 5), random_point(np.random.default_rng(4), 60, 60, 2, 5))
        for X0 in starts:
            for variant in ("sd", "rf"):
                res = solve(problem, X0, SolverConfig(k=5, variant=variant, max_iters=5))
                assert len(res.trace) == 6
                assert res.trace[-1].f < res.trace[0].f
        assert {s for s, _ in seen} >= {0, 2}
        assert all(kind is SparseOnMask for _, kind in seen)

    def test_rf_direction_half_norm_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            X, F = random_instance(rng)
            G, g = project_cone(X, F)
            if g == 0.0:
                continue
            direction = choose_flat_direction(X, None, G)
            # |<grad, xi_rf>| = ||xi||^2 >= 0.5 ||G||^2 = 0.5 |<grad, G>|
            assert direction.norm() ** 2 >= 0.5 * g**2 - 1e-12

    def test_rf_stays_in_invariant_subspace(self):
        # s = k and a gradient inside span(U) x span(V): the step cannot
        # leave the current subspaces
        rng = np.random.default_rng(8)
        X = random_point(rng, 7, 6, 3, 3)
        U, V = X.point.U, X.point.V
        grad = U @ rng.standard_normal((3, 3)) @ V.T
        direction = choose_flat_direction(X, None, -project_cone(X, grad)[0])
        Y = retract(X, direction, 0.7)
        assert np.allclose(Y.point.U @ Y.point.U.T, U @ U.T, atol=1e-10)
        assert np.allclose(Y.point.V @ Y.point.V.T, V @ V.T, atol=1e-10)

    def test_displacement_matches_dense(self):
        obj, _, X0 = quadratic_setup(9)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=10, record_iterates=True))
        for i, rec in enumerate(res.trace[:-1]):
            dense = np.linalg.norm(res.iterates[i + 1].dense() - res.iterates[i].dense())
            assert rec.displacement == pytest.approx(dense, abs=1e-10, rel=1e-8)

    def test_rf_displacement_is_step_times_direction_norm(self):
        from rankdescent.bench import CompletionSpec, gen_problem, initial_guess

        problem, _ = gen_problem(CompletionSpec(40, 3, 3, 3, 22))
        X0 = initial_guess(problem, 3)
        res = solve(problem, X0, SolverConfig(k=3, variant="rf", max_iters=20, record_iterates=True))
        for i, rec in enumerate(res.trace[:-1]):
            assert rec.displacement == rec.alpha * rec.xi_norm
            exact = factored_diff_norm(res.iterates[i + 1].point, res.iterates[i].point)
            assert rec.displacement == pytest.approx(exact, rel=1e-12)


class TestContracts:
    def test_sd_a1_ratio_bound(self):
        obj, _, X0 = quadratic_setup(10)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=200))
        report = descent_monitors(res.trace, omega=1.0, c=1e-4)
        assert report.min_a1_ratio is not None
        assert report.a1_violations == []

    def test_rf_angle_condition(self):
        obj, _, X0 = quadratic_setup(11)
        res = solve(obj, X0, SolverConfig(k=3, variant="rf", max_iters=200))
        for rec in res.trace[:-1]:
            assert angle_check(
                -rec.xi_norm**2, rec.g_minus, rec.xi_norm, 1 / math.sqrt(2.0)
            )

    def test_sufficient_decrease_post_hoc(self):
        obj, _, X0 = quadratic_setup(12)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=200))
        c = SolverConfig(k=3).armijo_config().c
        for rec, nxt in zip(res.trace, res.trace[1:]):
            slope = -rec.xi_norm**2
            assert nxt.f - rec.f <= c * rec.alpha * slope + 1e-12


class TestFailurePropagation:
    def test_line_search_error_carries_trials(self):
        # an objective with an inconsistent (sign-flipped) gradient makes the
        # claimed slope wrong, so backtracking must exhaust and report its
        # trials
        from rankdescent.linesearch import LineSearchError

        rng = np.random.default_rng(21)
        A = truncate(rng.standard_normal((6, 5)), 2)

        class LyingGradient(QuadraticDistance):
            def gradient(self, X):
                g = super().gradient(X)
                return FactoredMatrix(-g.U, g.sigma, g.V)  # A - X: wrong sign

        X0 = random_point(rng, 6, 5, 2, 2)
        with pytest.raises(LineSearchError) as err:
            solve(LyingGradient(A), X0, SolverConfig(k=2, max_iters=10))
        assert err.value.trials


class TestCompletionRun:
    def test_a3_ratio_tail_bounded_away_from_zero(self):
        # the small-step safeguard ratio ||X_{n+1}-X_n|| / g_n settles near 1
        # on converging completion runs (no universal constant asserted)
        from rankdescent.bench import CompletionSpec, gen_problem, initial_guess

        spec = CompletionSpec(60, 3, 3, 3, 7)
        problem, _ = gen_problem(spec)
        X0 = initial_guess(problem, 3)
        for variant in ("sd", "rf"):
            res = solve(problem, X0, SolverConfig(k=3, variant=variant, max_iters=400))
            report = descent_monitors(res.trace)
            a3 = [e.a3_ratio for e in report.entries if e.a3_ratio is not None]
            tail = a3[len(a3) // 2:]
            assert tail and min(tail) > 0.1

    def test_small_completion_monotone_and_terminates(self):
        from rankdescent.bench import CompletionSpec, gen_problem, initial_guess

        spec = CompletionSpec(40, 3, 3, 3, 22)
        problem, _ = gen_problem(spec)
        X0 = initial_guess(problem, 3)
        res = solve(problem, X0, SolverConfig(k=3, max_iters=400))
        fs = [r.f for r in res.trace]
        assert all(b < a for a, b in zip(fs, fs[1:]))
        assert res.status in (
            SolveStatus.CONVERGED_G, SolveStatus.STALLED_F, SolveStatus.MAX_ITERS
        )
        # the masked residual is driven down until the absolute stall
        # threshold (1e-14) dwarfs the per-iteration decrease
        assert res.trace[-1].f <= 1e-13 * res.trace[0].f

    def test_line_search_starts_at_exact_curvature_step(self):
        from rankdescent.bench import CompletionSpec, gen_problem, initial_guess

        spec = CompletionSpec(40, 3, 3, 3, 22)
        problem, _ = gen_problem(spec)
        X0 = initial_guess(problem, 3)
        for variant, floor in (("sd", 1.0), ("rf", math.sqrt(2.0))):
            res = solve(problem, X0, SolverConfig(k=3, variant=variant, max_iters=1))
            G, g = project_cone(X0, problem.gradient(X0))
            xi = -G if variant == "sd" else choose_flat_direction(X0, None, -G)
            curvature = problem.curvature(X0, xi)
            # under full sampling the exact step would be 1; on the mask it is longer
            assert xi.norm() ** 2 / curvature > floor
            rec = res.trace[0]
            bar_beta = initial_step(g, xi.norm(), floor, curvature)
            assert rec.alpha == bar_beta * 0.5**rec.backtracks

    def test_one_gather_per_trial_point(self, monkeypatch):
        # value(X0) and each line-search trial gather P(X); the gradient at
        # an accepted point reuses the residual of its trial
        from rankdescent import objectives
        from rankdescent.bench import PRESETS, gen_problem, initial_guess

        gathers = []
        real = objectives.mask_apply
        monkeypatch.setattr(
            objectives, "mask_apply", lambda X, mask: gathers.append(X) or real(X, mask)
        )
        real_gradient = MatrixCompletion.gradient

        def gradient(self, X):
            before = len(gathers)
            out = real_gradient(self, X)
            assert len(gathers) == before
            return out

        monkeypatch.setattr(MatrixCompletion, "gradient", gradient)
        spec = PRESETS["fig1-small"]
        problem, _ = gen_problem(spec)
        X0 = initial_guess(problem, spec.k)
        for variant in ("sd", "rf"):
            gathers.clear()
            res = solve(problem, X0, SolverConfig(k=spec.k, variant=variant, max_iters=30))
            trials = sum(r.backtracks + 1 for r in res.trace[:-1])
            assert len(gathers) == trials + 1


class TestTraceCsv:
    def test_roundtrip(self, tmp_path):
        obj, _, X0 = quadratic_setup(13)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=20))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, res.trace)
        back = read_trace_csv(path)
        assert len(back) == len(res.trace)
        assert back[0].f == res.trace[0].f
        assert back[-1].g_minus == res.trace[-1].g_minus

    def test_header_pinned(self, tmp_path):
        obj, _, X0 = quadratic_setup(14)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=5))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, res.trace)
        header = path.read_text().splitlines()[0]
        assert header == (
            "n,f,g_minus,alpha,backtracks,rank,sigma1,sigmak,"
            "displacement,rel_err_full,rel_err_mask,wall_ms"
        )


class TestRateFit:
    def test_exponential_recovery(self):
        n = np.arange(60)
        fit = rate_fit(2.0**-n)
        assert fit.model == "exp"
        assert fit.parameter == pytest.approx(math.log(2.0), abs=1e-6)

    def test_power_recovery(self):
        n = np.arange(1, 80)
        d = np.concatenate([[1.0], (1.0 / n**2)])
        fit = rate_fit(d)
        assert fit.model == "power"
        assert fit.parameter == pytest.approx(2.0, abs=1e-3)

    def test_insufficient_tail(self):
        assert rate_fit(np.ones(8)) is None

    def test_rejects_tail_fraction_outside_unit_interval(self):
        d = 2.0 ** -np.arange(60.0)
        for tail in (-1.0, 0.0, 1.5, np.nan):
            with pytest.raises(ValueError, match="tail fraction"):
                rate_fit(d, tail_fraction=tail)
        assert rate_fit(d, tail_fraction=1.0).model == "exp"

    def test_rejects_non_finite_distances(self):
        # an inf row would otherwise survive the d > 0 filter and give a nan fit
        d = 2.0 ** -np.arange(60.0)
        for bad in (np.inf, np.nan):
            d_bad = d.copy()
            d_bad[40] = bad
            with pytest.raises(ValueError, match="finite"):
                rate_fit(d_bad)

    def test_quadratic_run_selects_exponential(self):
        obj, _, X0 = quadratic_setup(15)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=300, record_iterates=True))
        fit = rate_fit(iterate_distances(res.iterates))
        assert fit is not None and fit.model == "exp"
