import gc
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse

from rankdescent.core import ThinPair, factored_diff_norm, frob_norm, truncate
from rankdescent.geometry import (
    VarietyPoint,
    choose_flat_direction,
    project_cone,
    random_point,
    retract,
)
from rankdescent.linesearch import angle_check, descent_monitors, initial_step, secant_curvature
from rankdescent.objectives import Line, MatrixCompletion, QuadraticDistance
from rankdescent.solvers import (
    SolveStatus,
    SolverConfig,
    iterate_distances,
    rate_fit,
    solve,
)
from rankdescent.bench import write_trace_csv
from helpers import ambient_dense, count_residual_gathers, random_instance, read_trace_csv, zero_point


def quadratic_setup(seed, m=12, n=10, r=5, k=3):
    rng = np.random.default_rng(seed)
    A = truncate(rng.standard_normal((m, n)), r)
    obj = QuadraticDistance(A)
    X0 = random_point(rng, m, n, k, k)
    return obj, A, X0


def completion_run(run):
    """(spec, problem, X0) of a preset run, or of "rank-deficient": a rank-2
    target under budget 6, from a rank-1 start (s < k)."""
    from rankdescent.bench import PRESETS, CompletionSpec, gen_problem, initial_guess

    if run == "rank-deficient":
        spec, start_rank = CompletionSpec(200, 2, 6, 3, 5), 1
    else:
        spec = PRESETS[run]
        start_rank = spec.k
    problem, _ = gen_problem(spec)
    return spec, problem, VarietyPoint(initial_guess(problem, start_rank).point, spec.k)


class TestSolveBasics:
    def test_stationary_at_critical_point(self):
        # a completion problem's observations are gathered from its target's
        # factors, so started there the residual is exactly zero: g_minus = 0
        # meets the relative g test at once, and the run ends converged_g at
        # k = r and at k > r (where the perp block truncates the zero CSR
        # gradient)
        from rankdescent.bench import CompletionSpec, gen_problem

        for k in (3, 5):
            problem, target = gen_problem(CompletionSpec(n=40, r=3, k=k, os_rate=3, seed=1))
            for variant in ("sd", "rf"):
                res = solve(problem, VarietyPoint(target, k), SolverConfig(k=k, variant=variant, max_iters=50))
                assert res.status is SolveStatus.CONVERGED_G
                assert len(res.trace) == 1
                assert res.trace[0].f == res.trace[0].g_minus == 0.0

    def test_quadratic_distance_at_its_target_stalls_at_once(self):
        # the value and gradient at the target's own factors are roundoff,
        # not exact zeros (f ~ 1.7e-31, g_minus ~ 3.8e-16 here): no trial
        # moves f beyond the stall tolerance, so the run ends stalled
        rng = np.random.default_rng(0)
        A = truncate(rng.standard_normal((8, 7)), 3)
        scale = float(np.linalg.norm(A.sigma))
        for variant in ("sd", "rf"):
            res = solve(QuadraticDistance(A), VarietyPoint(A, 3), SolverConfig(k=3, variant=variant, max_iters=50))
            assert res.status is SolveStatus.STALLED_F
            assert len(res.trace) == 1
            assert 0.0 < res.trace[0].g_minus <= 1e-14 * scale
            assert res.trace[0].f <= 1e-28 * scale**2

    def test_start_with_another_budget_runs_with_cfg_k(self):
        # X0's own budget 3 gives way to cfg.k = 5: the run matches one from
        # the same matrix with budget 5, and its rank grows past 3
        obj, _, X0 = quadratic_setup(6, r=5, k=3)
        cfg = SolverConfig(k=5, max_iters=20, record_iterates=True)
        res = solve(obj, X0, cfg)
        ref = solve(obj, VarietyPoint(X0.point, 5), cfg)
        assert [r.f for r in res.trace] == [r.f for r in ref.trace]
        assert res.X_star.k == res.iterates.k == res.iterates[0].k == 5
        assert max(r.rank for r in res.trace) > 3

    def test_quadratic_oracle_convergence(self):
        # with k = rank(A) the unique global minimizer is A itself
        obj, A, X0 = quadratic_setup(1, r=3, k=3)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=300))
        err = np.linalg.norm(ambient_dense(res.X_star) - ambient_dense(A)) / np.linalg.norm(ambient_dense(A))
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
                sv = np.linalg.svd(ambient_dense(X), compute_uv=False)
                assert (sv > 1e-10 * max(sv[0], 1e-300)).sum() <= 4

    def test_critical_point_rank_dichotomy(self):
        # converged with a nonzero ambient gradient forces full numerical rank
        obj, A, X0 = quadratic_setup(4, r=5, k=3)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=300))
        grad_norm = frob_norm(
            ambient_dense(res.X_star) - ambient_dense(A)
        )
        g0 = res.trace[0].g_minus
        if res.status is SolveStatus.CONVERGED_G and grad_norm > 10 * 1e-12 * g0:
            assert res.X_star.s == 3

    def test_rank_grows_from_deficient_start(self):
        # starting below the budget exercises the perp part of the cone and
        # the rank-(k+s) retraction; the iterate rank climbs to k
        obj, A, _ = quadratic_setup(18, r=4, k=4)
        X0 = VarietyPoint(truncate(ambient_dense(A), 1), 4)
        res = solve(obj, X0, SolverConfig(k=4, max_iters=200, record_iterates=True))
        assert res.trace[0].rank == 1
        assert res.X_star.s == 4
        err = np.linalg.norm(ambient_dense(res.X_star) - ambient_dense(A)) / np.linalg.norm(ambient_dense(A))
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

    def test_rf_takes_the_exact_step_on_the_quadratic(self):
        # along a flat direction the quadratic's exact step is 1, which the
        # initial step takes: rf from rank-2 starts reaches 1e-8 within a few
        # iterations instead of overshooting by a fixed factor every time
        rng = np.random.default_rng(5)
        for _ in range(6):
            A = truncate(rng.standard_normal((80, 4)) @ rng.standard_normal((4, 60)), 4)
            X0 = random_point(rng, 80, 60, 2, 4)
            a_norm = float(np.linalg.norm(A.sigma))

            def metrics(X, f, A=A, a_norm=a_norm):
                return factored_diff_norm(X.point, A) / a_norm, None

            cfg = SolverConfig(k=4, variant="rf", max_iters=10)
            res = solve(QuadraticDistance(A), X0, cfg, metrics=metrics)
            assert min(r.rel_err_full for r in res.trace) <= 1e-8


class TestSolverConfig:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerances_must_be_positive_and_finite(self, tol):
        # a NaN tolerance never converges or stalls, an infinite one stops at once
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(k=3, tol_g=tol)
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(k=3, tol_f=tol)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            SolverConfig(k=2, variant="cg")


class TestStepFunctions:
    def test_sd_from_zero_matches_truncated_antigradient(self):
        rng = np.random.default_rng(6)
        mask_rows, mask_cols = np.nonzero(rng.random((9, 8)) < 0.5)
        from rankdescent.core import IndexSet, SparseOnMask

        mask = IndexSet((9, 8), mask_rows, mask_cols)
        A = truncate(rng.standard_normal((9, 8)), 3)
        data = SparseOnMask(mask, ambient_dense(A)[mask.rows, mask.cols])
        obj = MatrixCompletion(data)
        X0 = zero_point(9, 8, 3)
        # the sd direction is the negated cone projection of the gradient
        direction = -project_cone(X0, obj.gradient(X0))[0]
        oracle = truncate(ambient_dense(data), 3)
        # same subspaces: projectors onto the spans agree
        D = direction.perp
        assert np.allclose(D.U @ D.U.T, oracle.U @ oracle.U.T, atol=1e-10)
        assert np.allclose(D.V @ D.V.T, oracle.V @ oracle.V.T, atol=1e-10)

    def test_masked_gradients_are_never_densified(self, monkeypatch):
        # the starting guess and the rank-deficient cone projections of the
        # first iterations take the masked gradient as it is
        from rankdescent import geometry
        from rankdescent.bench import CompletionSpec, gen_problem, initial_guess

        problem, _ = gen_problem(CompletionSpec(60, 3, 5, 3, 9))

        def refuse(self):
            raise AssertionError("a masked matrix was densified")

        seen = []
        perp_truncation = geometry._perp_truncation

        def spy(X, F, budget):
            seen.append((X.s, F))
            return perp_truncation(X, F, budget)

        monkeypatch.setattr(scipy.sparse.csr_matrix, "toarray", refuse)
        monkeypatch.setattr(geometry, "_perp_truncation", spy)
        assert initial_guess(problem, 5).s == 5
        starts = (zero_point(60, 60, 5), random_point(np.random.default_rng(4), 60, 60, 2, 5))
        for X0 in starts:
            for variant in ("sd", "rf"):
                res = solve(problem, X0, SolverConfig(k=5, variant=variant, max_iters=5))
                assert len(res.trace) == 6
                assert res.trace[-1].f < res.trace[0].f
        assert {s for s, _ in seen} >= {0, 2}
        assert all(scipy.sparse.issparse(F) for _, F in seen)

    def test_rf_direction_half_norm_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            X, F = random_instance(rng)
            G, g = project_cone(X, F)
            if g == 0.0:
                continue
            direction = choose_flat_direction(G)
            # |<grad, xi_rf>| = ||xi||^2 >= 0.5 ||G||^2 = 0.5 |<grad, G>|
            assert direction.norm ** 2 >= 0.5 * g**2 - 1e-12

    def test_rf_stays_in_invariant_subspace(self):
        # s = k and a gradient inside span(U) x span(V): the step cannot
        # leave the current subspaces
        rng = np.random.default_rng(8)
        X = random_point(rng, 7, 6, 3, 3)
        U, V = X.point.U, X.point.V
        grad = U @ rng.standard_normal((3, 3)) @ V.T
        direction = choose_flat_direction(-project_cone(X, grad)[0])
        Y, _ = retract(direction, 0.7)
        assert np.allclose(Y.point.U @ Y.point.U.T, U @ U.T, atol=1e-10)
        assert np.allclose(Y.point.V @ Y.point.V.T, V @ V.T, atol=1e-10)

    def test_displacement_matches_dense(self):
        obj, _, X0 = quadratic_setup(9)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=10, record_iterates=True))
        for i, rec in enumerate(res.trace[:-1]):
            dense = np.linalg.norm(ambient_dense(res.iterates[i + 1]) - ambient_dense(res.iterates[i]))
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

    @pytest.mark.parametrize("run", ["fig2-small", "rank-deficient"])
    def test_sd_displacement_matches_factored_distance(self, monkeypatch, run):
        # sd's displacement is read off the retraction's middle matrix, with
        # no factored distance taken in solve; it agrees with the factored
        # distance between consecutive iterates. fig2-small (r < k) does not
        # stall within 200 steps
        from rankdescent import solvers

        spec, problem, X0 = completion_run(run)
        monkeypatch.setattr(solvers, "factored_diff_norm", None)  # a call would fail
        res = solve(problem, X0, SolverConfig(k=spec.k, max_iters=200, record_iterates=True))
        monkeypatch.undo()
        assert len(res.trace) > 100
        prev = res.iterates[0]
        for rec, nxt in zip(res.trace[:-1], itertools.islice(res.iterates, 1, None)):
            exact = factored_diff_norm(nxt.point, prev.point)
            assert abs(rec.displacement - exact) <= 1e-12 * np.linalg.norm(prev.point.sigma)
            prev = nxt


def assert_same_point(X, Y):
    assert X.k == Y.k
    for a, b in ((X.point.U, Y.point.U), (X.point.sigma, Y.point.sigma), (X.point.V, Y.point.V)):
        assert a.shape == b.shape and np.array_equal(a, b)


class TestIterateHistory:
    def recorded_run(self, variant="sd", max_iters=60):
        # a rank-4 target from a rank-2 start with budget 8: the iterate rank
        # changes, so the history holds factors of several widths
        rng = np.random.default_rng(3)
        A = truncate(rng.standard_normal((60, 4)) @ rng.standard_normal((4, 50)), 4)
        X0 = random_point(rng, 60, 50, 2, 8)
        seen = []

        def metrics(X, f):
            seen.append(X)
            return 0.0, 0.0

        cfg = SolverConfig(k=8, variant=variant, max_iters=max_iters, record_iterates=True)
        return solve(QuadraticDistance(A), X0, cfg, metrics=metrics), seen

    @pytest.mark.parametrize("variant", ["sd", "rf"])
    def test_read_back_bitwise_equal_to_metrics_points(self, variant):
        res, seen = self.recorded_run(variant)
        assert len({X.s for X in seen}) > 1
        assert len(res.iterates) == len(seen) == len(res.trace)
        for i, X in enumerate(seen):
            assert_same_point(res.iterates[i], X)
        assert_same_point(res.iterates[-1], res.X_star)

    def test_sequence_protocol(self):
        res, seen = self.recorded_run()
        h = res.iterates
        n = len(h)
        for i in (-1, -2, -n):
            assert_same_point(h[i], seen[n + i])
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                h[i]
        read = list(h)
        assert len(read) == n
        for X, Y in zip(read, seen):
            assert_same_point(X, Y)

    @pytest.mark.parametrize("key", [slice(1, 3), slice(0, 4), slice(None)])
    def test_slice_raises_type_error(self, key):
        # a 4-item slice of the index would otherwise unpack as one entry
        res, _ = self.recorded_run(max_iters=5)
        with pytest.raises(TypeError, match="IterateHistory takes no slices"):
            res.iterates[key]

    def test_distances_equal_over_history_and_list(self):
        res, seen = self.recorded_run()
        assert np.array_equal(iterate_distances(res.iterates), iterate_distances(seen))

    def test_peak_memory_flat_in_iteration_count(self):
        from rankdescent.bench import CompletionSpec, gen_problem, initial_guess

        # r < k: neither run stalls before max_iters
        problem, _ = gen_problem(CompletionSpec(200, 2, 6, 3, 5))
        X0 = initial_guess(problem, 6)
        peaks = {}
        for max_iters in (40, 160):
            tracemalloc.start()
            try:
                res = solve(problem, X0, SolverConfig(k=6, max_iters=max_iters, record_iterates=True))
                peaks[max_iters] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.status is SolveStatus.MAX_ITERS
            assert len(res.iterates) == max_iters + 1
        held = 120 * (2 * 200 * 6 + 6) * 8  # 120 more iterates in memory
        assert peaks[160] - peaks[40] < held / 10

    def test_dropping_the_result_closes_the_file_quietly(self):
        res, _ = self.recorded_run(max_iters=5)
        fh = res.iterates._file
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del res
            gc.collect()
        assert fh.closed
        assert not caught


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

    @pytest.mark.parametrize("run", ["fig1-small", "rank-deficient"])
    def test_completion_runs_keep_the_descent_contracts(self, run):
        # the secant start changes only the first trial of odd steps: every
        # step keeps the primary descent ratio and the angle condition of its
        # variant, omega = 1 for sd and 1/sqrt(2) for rf
        spec, problem, X0 = completion_run(run)
        for variant, omega in (("sd", 1.0), ("rf", 1 / math.sqrt(2.0))):
            res = solve(problem, X0, SolverConfig(k=spec.k, variant=variant, max_iters=300))
            assert sum(r.backtracks for r in res.trace) > 0  # the secant overshot
            report = descent_monitors(res.trace, omega=omega)
            assert report.min_a1_ratio is not None
            assert report.a1_violations == []
            for rec in res.trace[:-1]:
                assert angle_check(-rec.xi_norm**2, rec.g_minus, rec.xi_norm, omega)

    def test_sufficient_decrease_post_hoc(self):
        obj, _, X0 = quadratic_setup(12)
        res = solve(obj, X0, SolverConfig(k=3, max_iters=200))
        c = SolverConfig(k=3).armijo_config().c
        for rec, nxt in zip(res.trace, res.trace[1:]):
            slope = -rec.xi_norm**2
            assert nxt.f - rec.f <= c * rec.alpha * slope + 1e-12


class ScriptedLine(Line):
    """Stays at X; values a trial as value(f, alpha, slope), f the objective's
    current value and slope = -||xi||^2."""

    def __init__(self, obj, xi, curvature, value):
        super().__init__(obj, xi, curvature)
        self._slope, self._value = -(xi.norm ** 2), value

    def value(self, alpha):
        self._alpha, self._f = alpha, self._value(self._obj.f, alpha, self._slope)
        return self._f

    def step(self):
        self._obj.f = self._f
        return self._xi.base, self._alpha * self._xi.norm


class ScriptedObjective:
    """f = 1 at the start and a fixed gradient G. The first line values its
    trials by first(f, alpha, slope), every later one accepts its first trial
    at f - 1. A line's curvature is 0.25 * ||xi||^2, an exact start of 4, and
    reads records the index of each line whose curvature was read."""

    def __init__(self, G, first):
        self.G, self.first = G, first
        self.f, self.lines, self.reads = 1.0, 0, []

    def value(self, X):
        return self.f

    def gradient(self, X):
        return self.G

    def line(self, xi):
        n, self.lines = self.lines, self.lines + 1

        def curvature():
            self.reads.append(n)
            return 0.25 * xi.norm ** 2

        return ScriptedLine(self, xi, curvature, self.first if n == 0 else lambda f, a, s: f - 1.0)


class TestSecantStart:
    @pytest.mark.parametrize(
        "case, scale, first",
        [
            # decrease 0.9 of the linear model's: kappa = 0.2 / alpha > 0
            ("positive", 1.0, lambda f, a, s: f + 0.9 * a * s),
            # decrease twice the linear model's: kappa < 0
            ("negative", 1.0, lambda f, a, s: f + 2.0 * a * s),
            # accepted after 49 backtracks at alpha * ||xi|| ~ 1e-164, whose
            # square underflows: kappa is NaN
            ("nan", 1e-150, lambda f, a, s: math.inf if a > 1e-14 else f - 1.0),
        ],
        ids=["positive", "negative", "nan"],
    )
    def test_unusable_secant_falls_back_to_the_exact_curvature(self, case, scale, first):
        rng = np.random.default_rng(4)
        X0 = random_point(rng, 8, 6, 2, 2)
        G = truncate(rng.standard_normal((8, 6)), 6)
        obj = ScriptedObjective(ThinPair(G.U * (scale * G.sigma), G.V), first)
        res = solve(obj, X0, SolverConfig(k=2, max_iters=2))
        rec, nxt = res.trace[0], res.trace[1]
        assert rec.alpha == 4.0 * 0.5**rec.backtracks
        kappa = secant_curvature(rec.f, nxt.f, rec.alpha, -rec.xi_norm**2, rec.xi_norm)
        assert nxt.backtracks == 0
        if case == "positive":
            assert obj.reads == [0]
            assert nxt.alpha == initial_step(nxt.g_minus, nxt.xi_norm, kappa * nxt.xi_norm**2)
            assert nxt.alpha == pytest.approx(20.0, rel=1e-12)
        else:
            assert kappa <= 0.0 if case == "negative" else math.isnan(kappa)
            assert obj.reads == [0, 1]
            assert nxt.alpha == initial_step(nxt.g_minus, nxt.xi_norm, 0.25 * nxt.xi_norm**2) == 4.0


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
                G = super().gradient(X)
                return ThinPair(-G.L, G.R)  # A - X: wrong sign

        X0 = random_point(rng, 6, 5, 2, 2)
        with pytest.raises(LineSearchError) as err:
            solve(LyingGradient(A), X0, SolverConfig(k=2, max_iters=10))
        assert err.value.trials

    @pytest.mark.parametrize(
        "moves, stalls",
        [
            # trial f - f(X0) in units of tol_f * max(1, f(X0))
            ([0.0, 0.5], True),
            ([-0.9, 0.9], True),
            ([0.0, 2.0], False),
            ([math.inf, 0.0], False),
            ([math.nan], False),
        ],
    )
    def test_failed_line_search_stalls_only_when_f_is_flat(self, monkeypatch, moves, stalls):
        from rankdescent import solvers
        from rankdescent.linesearch import LineSearchError

        obj, _, X0 = quadratic_setup(3)
        cfg = SolverConfig(k=3, max_iters=10)
        f0 = obj.value(X0)
        unit = cfg.tol_f * max(1.0, f0)
        trials = [(0.5**i, f0 + d * unit) for i, d in enumerate(moves)]

        def failing_armijo(*args):
            raise LineSearchError("injected", trials)

        monkeypatch.setattr(solvers, "armijo", failing_armijo)
        if not stalls:
            with pytest.raises(LineSearchError):
                solve(obj, X0, cfg)
            return
        res = solve(obj, X0, cfg)
        assert res.status is SolveStatus.STALLED_F
        assert len(res.trace) == 1 and res.trace[0].alpha == 0.0

    @pytest.mark.parametrize("n, r", [(4, 1), (5, 1), (6, 2)])
    def test_fully_observed_problem_stalls(self, n, r):
        # k = n with oversampling 1 observes every entry; the starting SVD is
        # exact to roundoff and no trial moves f, so Armijo fails on a flat f
        from rankdescent.bench import CompletionSpec, gen_problem, initial_guess

        spec = CompletionSpec(n, r, n, 1, 42)
        problem, _ = gen_problem(spec)
        assert len(problem.mask) == n * n
        X0 = initial_guess(problem, n)
        for variant in ("sd", "rf"):
            res = solve(problem, X0, SolverConfig(k=n, variant=variant))
            assert res.status is SolveStatus.STALLED_F
            assert res.trace[-1].alpha == 0.0
            assert res.trace[-1].f <= 1e-28


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
            a3 = [a for a in report.a3 if a is not None]
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
        # iteration 0 starts at the exact-curvature step, iteration 1 at the
        # step of the secant curvature kappa * ||xi||^2 of step 0
        from rankdescent.bench import CompletionSpec, gen_problem, initial_guess

        spec = CompletionSpec(40, 3, 3, 3, 22)
        problem, _ = gen_problem(spec)
        X0 = initial_guess(problem, 3)

        def direction(X):
            G, g = project_cone(X, problem.gradient(X))
            return (-G if variant == "sd" else choose_flat_direction(-G)), g

        for variant in ("sd", "rf"):
            res = solve(problem, X0, SolverConfig(k=3, variant=variant, max_iters=2))
            xi, g = direction(X0)
            curvature = problem.line(xi).curvature
            # under full sampling the exact step would be 1; on the mask it
            # is longer, and longer than the lower bound g / ||xi||
            exact = xi.norm ** 2 / curvature
            assert exact > g / xi.norm
            rec = res.trace[0]
            bar_beta = initial_step(g, xi.norm, curvature)
            assert bar_beta == exact
            assert rec.alpha == bar_beta * 0.5**rec.backtracks

            # X1 as the two-step run reached it, its residual in the slot
            X1 = solve(problem, X0, SolverConfig(k=3, variant=variant, max_iters=1)).X_star
            xi, g = direction(X1)
            nxt = res.trace[1]
            assert nxt.xi_norm == xi.norm
            kappa = secant_curvature(rec.f, nxt.f, rec.alpha, -rec.xi_norm**2, rec.xi_norm)
            bar_beta = initial_step(g, xi.norm, kappa * xi.norm ** 2)
            assert nxt.alpha == bar_beta * 0.5**nxt.backtracks

    def test_one_gather_per_trial_point(self, monkeypatch):
        # sd gathers P(X) at X0 and at each line-search trial; rf gathers it
        # at X0 alone, since its trials are values of the MaskedLine and the
        # accepted point keeps the line's residual. sd gathers P(xi) only for
        # the exact curvature of its even steps, its odd ones starting from
        # the secant; rf gathers it on every step, for its MaskedLine. The
        # gradient never gathers.
        from rankdescent import objectives
        from rankdescent.bench import PRESETS, gen_problem, initial_guess

        gathers, lines, iterates = [], [], []
        real_gather = objectives.mask_gather
        monkeypatch.setattr(
            objectives,
            "mask_gather",
            lambda L, R, mask: lines.append(len(iterates) - 1) or real_gather(L, R, mask),
        )
        real_residual = MatrixCompletion._compute_residual

        def residual(self, point):
            gathers.append(point)
            out = real_residual(self, point)
            lines.pop()  # the residual's own gather, not a direction's
            return out

        monkeypatch.setattr(MatrixCompletion, "_compute_residual", residual)

        def metrics(X, f):
            iterates.append(X)
            return 0.0, 0.0
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
            lines.clear()
            iterates.clear()
            cfg = SolverConfig(k=spec.k, variant=variant, max_iters=30)
            res = solve(problem, X0, cfg, metrics=metrics)
            steps = res.trace[:-1]
            assert len(steps) == 30
            trials = sum(r.backtracks + 1 for r in steps)
            assert len(gathers) == (trials + 1 if variant == "sd" else 1)
            assert lines == list(range(0, 30, 2) if variant == "sd" else range(30))

    def test_sd_flat_step_from_zero_takes_the_exact_line(self, monkeypatch):
        # at a rank-0 point up and vp are empty, so sd's first step is flat:
        # its trials gather nothing and its f is the line's, equal to a
        # fresh evaluation at the new point up to roundoff
        from rankdescent.bench import PRESETS, gen_problem

        spec = PRESETS["fig1-small"]
        problem, _ = gen_problem(spec)
        X0 = zero_point(*problem.shape, spec.k)
        gathers = count_residual_gathers(monkeypatch)
        res = solve(problem, X0, SolverConfig(k=spec.k, max_iters=1, record_iterates=True))
        monkeypatch.undo()
        assert len(gathers) == 1  # value(X0)
        rec, X1 = res.trace[1], res.iterates[1]
        fresh = MatrixCompletion(problem.data).value(X1)
        assert rec.f == pytest.approx(fresh, rel=1e-12)
        assert res.trace[0].displacement == res.trace[0].alpha * res.trace[0].xi_norm

    @pytest.mark.parametrize(
        "preset, seed", [("fig1-small", 42), ("fig1-small", 1000), ("fig1-small", 1001),
                         ("fig1-small", 1002), ("fig2-small", 42)],
    )
    def test_rf_kept_residual_matches_fresh_gather(self, monkeypatch, preset, seed):
        # rf's residual is gathered at X0 and then kept from the line of each
        # step; after a full solve (1000 iterations on fig2-small, which does
        # not converge) it agrees with a fresh gather at the final iterate
        from dataclasses import replace

        from rankdescent.bench import PRESETS, gen_problem, initial_guess
        from rankdescent.core import mask_gather

        spec = replace(PRESETS[preset], seed=seed)
        problem, _ = gen_problem(spec)
        X0 = initial_guess(problem, spec.k)
        res = solve(problem, X0, SolverConfig(k=spec.k, variant="rf", max_iters=1000))
        assert len(res.trace) > 200
        monkeypatch.setattr(MatrixCompletion, "_compute_residual", None)  # a gather would fail
        kept = problem.gradient(res.X_star).data
        F = res.X_star.point
        fresh = mask_gather(F.U * F.sigma, F.V, problem.mask) - problem.data.values
        assert np.linalg.norm(kept - fresh) <= 1e-12 * np.linalg.norm(problem.data.values)


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
