"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The heavyweight solver runs are shared through module-scoped fixtures; their
wall time is charged against the owning criterion's budget.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from rankdescent.bench import (
    CompletionSpec,
    PRESETS,
    missing_percent,
    omega_size,
    run_experiment,
)
from rankdescent.core import factored_diff_norm, truncate
from rankdescent.geometry import (
    project_cone,
    random_point,
    retract,
)
from rankdescent.linesearch import (
    ArmijoConfig,
    RETRACTION_UPPER,
    angle_check,
    armijo,
    descent_monitors,
)
from rankdescent.objectives import QuadraticDistance
from rankdescent.solvers import (
    SolverConfig,
    iterate_distances,
    rate_fit,
    solve,
)
from helpers import CurveLine, ambient_dense, partial_directions, random_cone_vector, random_instance


def verdict(num, clauses):
    """Print one pass/fail line for a criterion and assert its clauses."""
    failed = [msg for ok, msg in clauses if not ok]
    if failed:
        print(f"[FAIL] criterion {num}: " + "; ".join(failed))
    else:
        print(f"[PASS] criterion {num}: " + "; ".join(msg for _, msg in clauses))
    assert not failed, f"criterion {num}: " + "; ".join(failed)


@pytest.fixture(scope="module")
def quad_run():
    # criterion 2 configuration: random 50x40 target of rank 12, budget 12
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    A = truncate(rng.standard_normal((50, 12)) @ rng.standard_normal((12, 40)), 12)
    obj = QuadraticDistance(A)
    X0 = random_point(rng, 50, 40, 12, 12)
    res = solve(obj, X0, SolverConfig(k=12, max_iters=500, record_iterates=True))
    return SimpleNamespace(result=res, target=A, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def fig1_runs(tmp_path_factory):
    t0 = time.perf_counter()
    spec = PRESETS["fig1-small"]
    cfg = SolverConfig(k=spec.k, max_iters=1000)
    runs = run_experiment(spec, ("sd", "rf"), cfg, tmp_path_factory.mktemp("fig1-small"))
    return SimpleNamespace(runs=runs, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def fig2_runs(tmp_path_factory):
    t0 = time.perf_counter()
    spec = PRESETS["fig2-small"]
    cfg = SolverConfig(k=spec.k, max_iters=1000)
    runs = run_experiment(spec, ("sd", "rf"), cfg, tmp_path_factory.mktemp("fig2-small"))
    return SimpleNamespace(runs=runs, elapsed=time.perf_counter() - t0)


def first_reaching(trace, attr, threshold):
    for rec in trace:
        value = getattr(rec, attr)
        if value is not None and value < threshold:
            return rec.n
    return None


def test_criterion_1_omega_sizing():
    t0 = time.perf_counter()
    s20 = CompletionSpec(n=2000, r=20, k=20, os_rate=3, seed=0)
    s80 = CompletionSpec(n=2000, r=80, k=80, os_rate=3, seed=0)
    size20, miss20 = omega_size(s20), missing_percent(s20)
    size80, miss80 = omega_size(s80), missing_percent(s80)
    elapsed = time.perf_counter() - t0
    verdict(1, [
        (size20 == 238800, f"|mask|(k=20) = {size20}"),
        (miss20 == 94.03, f"missing(k=20) = {miss20:.2f}%"),
        (size80 == 940800, f"|mask|(k=80) = {size80}"),
        (miss80 == 76.48, f"missing(k=80) = {miss80:.2f}%"),
        (elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s"),
    ])


def test_criterion_2_quadratic_oracle(quad_run):
    res = quad_run.result
    A = quad_run.target
    err = factored_diff_norm(res.X_star.point, A) / float(np.linalg.norm(A.sigma))
    iters = len(res.trace) - 1
    verdict(2, [
        (err <= 1e-8, f"relative error {err:.2e} <= 1e-8"),
        (iters <= 500, f"{iters} iterations <= 500"),
        (quad_run.elapsed < 10.0, f"runtime {quad_run.elapsed:.2f}s < 10s"),
    ])


def test_criterion_3_desk_scale_completion(fig1_runs):
    runs = fig1_runs.runs
    clauses = []
    reach_mask6 = {}
    for alg in ("sd", "rf"):
        trace = runs[alg].result.trace
        fs = [r.f for r in trace]
        clauses.append(
            (all(b < a for a, b in zip(fs, fs[1:])), f"{alg} f-trace strictly monotone")
        )
        reach_mask6[alg] = first_reaching(trace, "rel_err_mask", 1e-6)
        n_full = first_reaching(trace, "rel_err_full", 1e-6)
        clauses.append(
            (n_full is not None and n_full <= 1000,
             f"{alg} rel_full < 1e-6 at iteration {n_full}")
        )
    clauses.append(
        (reach_mask6["sd"] is not None and reach_mask6["rf"] is not None
         and reach_mask6["sd"] <= reach_mask6["rf"],
         f"sd reaches rel_mask 1e-6 at {reach_mask6['sd']} <= rf at {reach_mask6['rf']}")
    )
    clauses.append((fig1_runs.elapsed < 120.0, f"runtime {fig1_runs.elapsed:.1f}s < 120s"))
    for alg in ("sd", "rf"):
        trace = runs[alg].result.trace
        n_mask = first_reaching(trace, "rel_err_mask", 1e-8)
        final_mask = trace[-1].rel_err_mask
        if n_mask is not None and n_mask <= 1000:
            clauses.append((True, f"{alg} rel_mask < 1e-8 at iteration {n_mask}"))
        else:
            clauses.append(
                (False,
                 f"{alg} rel_mask never < 1e-8 within 1000 iterations (final {final_mask:.2e})")
            )
    verdict(3, clauses)


def test_criterion_4_rank_deficient_stall(fig2_runs):
    runs = fig2_runs.runs
    clauses = []
    for alg in ("sd", "rf"):
        trace = runs[alg].result.trace
        min_sigma_k = min(r.sigmak for r in trace)
        best_full = min(r.rel_err_full for r in trace if r.rel_err_full is not None)
        clauses.append(
            (min_sigma_k > 1e-4, f"{alg} min sigma_k {min_sigma_k:.3e} > 1e-4")
        )
        clauses.append(
            (best_full > 1e-3, f"{alg} best rel_full {best_full:.3e} > 1e-3")
        )
    clauses.append((fig2_runs.elapsed < 120.0, f"runtime {fig2_runs.elapsed:.1f}s < 120s"))
    verdict(4, clauses)


def test_criterion_5_geometry_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2468)
    n_instances = 1000
    pythagoras_ok = lower_ok = retract_ok = membership_ok = True
    # deterministic sweep over every (k, s) pair at the largest dims first,
    # then random instances for the rest
    sweep = [(k, s) for k in range(1, 7) for s in range(k + 1)]
    seen_s = set()
    for i in range(n_instances):
        if i < len(sweep):
            k, s = sweep[i]
            X = random_point(rng, 8, 6, s, k)
            F = rng.standard_normal((8, 6))
        else:
            X, F = random_instance(rng, max_m=8, max_n=6)
        seen_s.add((X.k, X.s))
        G, g = project_cone(X, F)
        # (a) Pythagoras on the cone
        lhs = g**2
        rhs = np.linalg.norm(F) ** 2 - np.linalg.norm(F - ambient_dense(G)) ** 2
        if abs(lhs - rhs) > 1e-11 * max(1.0, np.linalg.norm(F) ** 2):
            pythagoras_ok = False
        # (b) the projected-antigradient lower bound below the rank budget
        if X.s < X.k:
            m, n = X.shape
            bound = math.sqrt((X.k - X.s) / min(m - X.s, n - X.s)) * np.linalg.norm(F)
            if g < bound - 1e-12:
                lower_ok = False
        # (c) retraction stability
        xi = random_cone_vector(rng, X)
        R, _ = retract(xi, 1.0)
        err = np.linalg.norm(ambient_dense(R) - (ambient_dense(X) + ambient_dense(xi)))
        if err > xi.norm() / math.sqrt(2.0) + 1e-12:
            retract_ok = False
        # (e) flat directions never leave the variety
        g1, g2 = partial_directions(X, F, G)
        for gi in (g1, g2):
            gd = ambient_dense(gi)
            for alpha in (0.1, 1.0, 10.0):
                sv = np.linalg.svd(ambient_dense(X) + alpha * gd, compute_uv=False)
                if (sv > 1e-10 * max(sv[0], 1e-300)).sum() > X.k:
                    membership_ok = False
    full_coverage = set(sweep) <= seen_s

    # (d) sampling oracle: the cone projection beats 1e5 random cone elements
    beats_ok = True
    for s in (0, 1, 2):
        X = random_point(rng, 3, 4, s, 2)
        F = rng.standard_normal((3, 4))
        G, _ = project_cone(X, F)
        best = np.linalg.norm(F - ambient_dense(G))
        N = 10**5
        U, V = X.point.U, X.point.V
        batch = np.zeros((N, 3, 4))
        if s:
            C = rng.standard_normal((N, s, s))
            Up = rng.standard_normal((N, 3, s))
            Vp = rng.standard_normal((N, 4, s))
            Up -= np.einsum("ij,njk->nik", U @ U.T, Up)
            Vp -= np.einsum("ij,njk->nik", V @ V.T, Vp)
            batch = (
                np.einsum("ia,nab,jb->nij", U, C, V)
                + np.einsum("nia,ja->nij", Up, V)
                + np.einsum("ia,nja->nij", U, Vp)
            )
        p = 2 - s
        if p:
            L = rng.standard_normal((N, 3, p))
            Rr = rng.standard_normal((N, 4, p))
            if s:
                L -= np.einsum("ij,njk->nik", U @ U.T, L)
                Rr -= np.einsum("ij,njk->nik", V @ V.T, Rr)
            batch = batch + L @ np.transpose(Rr, (0, 2, 1))
        if not np.all(np.linalg.norm(F - batch, axis=(1, 2)) >= best - 1e-12):
            beats_ok = False
    elapsed = time.perf_counter() - t0
    verdict(5, [
        (pythagoras_ok, "cone Pythagoras identity to 1e-11"),
        (lower_ok, "projected-antigradient lower bound holds"),
        (retract_ok, "retraction error within ||xi||/sqrt(2) + 1e-12"),
        (beats_ok, "cone projection beats 1e5 random cone elements"),
        (membership_ok, "rank(X + alpha*Gi) <= k densely"),
        (full_coverage, "all ranks s in {0..k} exercised"),
        (elapsed < 60.0, f"runtime {elapsed:.1f}s < 60s"),
    ])


def test_criterion_6_line_search_contracts(quad_run, fig1_runs, fig2_runs):
    c = ArmijoConfig().c
    sd_traces = [quad_run.result.trace]
    rf_traces = []
    for bundle in (fig1_runs, fig2_runs):
        sd_traces.append(bundle.runs["sd"].result.trace)
        rf_traces.append(bundle.runs["rf"].result.trace)

    sufficient_ok = True
    for trace in sd_traces + rf_traces:
        for rec, nxt in zip(trace, trace[1:]):
            slope = -rec.xi_norm**2
            rhs = c * rec.alpha * slope
            if nxt.f - rec.f > rhs + 1e-12 * max(1.0, abs(rhs)):
                sufficient_ok = False

    a1_ok = True
    threshold = c / RETRACTION_UPPER - 1e-10
    for trace in sd_traces:
        report = descent_monitors(trace, omega=1.0, c=c)
        ratios = [a for a in report.a1 if a is not None]
        if ratios and min(ratios) < threshold:
            a1_ok = False

    angle_ok = True
    for trace in rf_traces:
        for rec in trace[:-1]:
            if not angle_check(-rec.xi_norm**2, rec.g_minus, rec.xi_norm, 1 / math.sqrt(2.0)):
                angle_ok = False

    # closed-form backtracking examples reproduce exactly
    def affine(p, d):
        return lambda al: (p + al * d, al * float(np.linalg.norm(d)))

    rng = np.random.default_rng(99)
    a = rng.standard_normal(6)
    x = rng.standard_normal(6)
    xi = a - x
    obj = SimpleNamespace(value=lambda y: 0.5 * float(np.sum((y - a) ** 2)))
    out1 = armijo(
        CurveLine(obj.value, affine(x, xi)), obj.value(x), -float(np.sum(xi**2)), 1.0,
        ArmijoConfig(c=1e-4),
    )
    scalar_obj = SimpleNamespace(value=lambda y: 0.5 * float(y**2))
    out2 = armijo(
        CurveLine(scalar_obj.value, affine(1.0, -1.0)), 0.5, -1.0, 1.0,
        ArmijoConfig(beta=0.5, c=0.9),
    )
    verdict(6, [
        (sufficient_ok, "sufficient decrease holds post hoc on criteria 2-4"),
        (a1_ok, f"sd primary descent ratio >= {threshold:.3e}"),
        (angle_ok, "rf angle condition holds at omega = 1/sqrt(2)"),
        (out1.alpha == 1.0 and out1.backtracks == 0, "quadratic example: alpha = 1"),
        (out2.alpha == 0.125 and out2.backtracks == 3, "scalar example: alpha = 0.125"),
    ])


def test_criterion_7_gradient_correctness():
    from rankdescent.core import IndexSet, SparseOnMask
    from rankdescent.objectives import MatrixCompletion

    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    h = 1e-6
    ok = True
    worst = 0.0
    for _ in range(100):
        mask = IndexSet((10, 8), *np.nonzero(rng.random((10, 8)) < 0.5))
        vals = rng.standard_normal(len(mask))
        mc = MatrixCompletion(SparseOnMask(mask, vals))
        A = truncate(rng.standard_normal((10, 8)), 5)
        quad = QuadraticDistance(A)
        Ad = ambient_dense(A)
        X = random_point(rng, 10, 8, 3, 4)
        Xd = ambient_dense(X)
        D = rng.standard_normal((10, 8))
        checks = (
            (mc, lambda Y: 0.5 * np.sum((vals - Y[mask.rows, mask.cols]) ** 2)),
            (quad, lambda Y: 0.5 * np.sum((Y - Ad) ** 2)),
        )
        for obj, f_dense in checks:
            fd = (f_dense(Xd + h * D) - f_dense(Xd - h * D)) / (2 * h)
            exact = np.vdot(ambient_dense(obj.gradient(X)), D)
            rel = abs(fd - exact) / max(abs(exact), 1e-12)
            worst = max(worst, rel)
            if rel > 1e-6:
                ok = False
    elapsed = time.perf_counter() - t0
    verdict(7, [
        (ok, f"central differences match gradients (worst rel {worst:.2e})"),
        (elapsed < 10.0, f"runtime {elapsed:.2f}s < 10s"),
    ])


def test_criterion_8_rate_fit(quad_run):
    n = np.arange(60)
    fit_exp = rate_fit(2.0**-n)
    exp_ok = fit_exp is not None and fit_exp.model == "exp" and abs(
        fit_exp.parameter - math.log(2.0)
    ) <= 1e-6
    m = np.arange(1, 80)
    fit_pow = rate_fit(np.concatenate([[1.0], 1.0 / m**2]))
    pow_ok = fit_pow is not None and fit_pow.model == "power" and abs(
        fit_pow.parameter - 2.0
    ) <= 1e-3
    fit_quad = rate_fit(iterate_distances(quad_run.result.iterates))
    quad_ok = fit_quad is not None and fit_quad.model == "exp"
    detail = "unavailable (trace too short)" if fit_quad is None else fit_quad.model
    verdict(8, [
        (exp_ok, f"exponential parameter recovered to 1e-6"),
        (pow_ok, f"power exponent recovered to 1e-3"),
        (quad_ok, f"quadratic-oracle trace selects: {detail}"),
    ])
