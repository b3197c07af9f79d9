"""Dense reference of the two descent methods, written as the source paper
states them, for the tests to compare solvers.solve against.

Every matrix here is a dense array, every projection a dense projector or a
dense SVD; of the package it takes only the line search's scalar start
(linesearch.initial_step) and the Armijo constants. The objective is
f(X) = 0.5 * ||W * (X - A)||^2 for a 0/1 weight W: matrix completion on the
mask W, or the quadratic distance to A when W is all ones. Its gradient is
W * (X - A), and its curvature along xi is ||W * xi||^2.

One iteration at a point X of rank s <= k:
1. G, the projection of F = -grad f(X) onto the tangent cone: with P_U and
   P_V the projectors onto X's column and row spaces, the tangent part
   P_U F + F P_V - P_U F P_V plus the best rank-(k - s) approximation of the
   doubly projected remainder (I - P_U) F (I - P_V), by a dense SVD. g is
   ||G||.
2. The direction xi: sd takes G. rf takes the larger of G's two flat
   partial projections, G less its block (I - P_U) F P_V (up) or G less its
   block P_U F (I - P_V) (vp), and keeps vp on a tie.
3. Armijo backtracking: alpha = initial_step(g, ||xi||, curvature) *
   beta^m for the least m with f(Y) - f(X) <= c * alpha * <grad f(X), xi>,
   Y the metric projection of X + alpha * xi. The curvature is the exact
   ||W * xi||^2 on even iterations. On odd ones it is kappa * ||xi||^2,
   kappa the secant curvature of the step before, and the exact one again
   when that is not positive and finite.
4. The metric projection onto the variety: a dense SVD, cut at k and at
   the numerical rank (singular values above RANK_TOL times the largest).
"""

import math

import numpy as np

from rankdescent.linesearch import ArmijoConfig, initial_step

RANK_TOL = 1e-14


def metric_projection(Z: np.ndarray, k: int):
    """(Y, U, V): the best approximation of rank at most k of Z, with
    orthonormal bases of its column and row spaces."""
    U, sigma, Vt = np.linalg.svd(Z, full_matrices=False)
    r = min(k, int(np.count_nonzero(sigma > RANK_TOL * sigma[0]))) if sigma[0] > 0 else 0
    U, sigma, V = U[:, :r], sigma[:r], Vt[:r].T
    return (U * sigma) @ V.T, U, V


def cone_blocks(F: np.ndarray, U: np.ndarray, V: np.ndarray, k: int):
    """The four blocks of F's projection onto the tangent cone at a point of
    column space span(U) and row space span(V): (core, up, vp, perp)."""
    PU, PV = U @ U.T, V @ V.T
    QU, QV = np.eye(len(U)) - PU, np.eye(len(V)) - PV
    remainder = QU @ F @ QV
    perp, _, _ = metric_projection(remainder, k - U.shape[1])
    return PU @ F @ PV, QU @ F @ PV, PU @ F @ QV, perp


def direction(variant: str, blocks):
    """(xi, g): the variant's direction from the cone blocks, and the norm
    of the whole cone projection."""
    core, up, vp, perp = blocks
    G = core + up + vp + perp
    g = np.linalg.norm(G)
    if variant == "sd":
        return G, g
    if variant == "rf":
        if np.sum(vp**2) >= np.sum(up**2):
            return core + vp + perp, g
        return core + up + perp, g
    raise ValueError(f"unknown variant {variant!r}")


def solve_dense(A, W, X0, k: int, variant: str, iters: int) -> list[dict]:
    """Run the method for iters steps from X0; one record per iterate, the
    last one included: its f, g_minus (the norm g of the cone projection),
    iterate X, and the step taken from it (alpha, backtracks, displacement
    ||X_{n+1} - X_n||; zero on the last)."""
    cfg = ArmijoConfig()

    def f(X):
        return 0.5 * np.sum((W * (X - A)) ** 2)

    X, U, V = metric_projection(np.asarray(X0, dtype=float), k)
    f_x = f(X)
    kappa = math.nan
    records = []
    for n in range(iters + 1):
        grad = W * (X - A)
        xi, g = direction(variant, cone_blocks(-grad, U, V, k))
        records.append(dict(f=f_x, g_minus=g, X=X, alpha=0.0, backtracks=0, displacement=0.0))
        if n == iters:
            return records
        xi_norm = np.linalg.norm(xi)
        curvature = kappa * xi_norm**2 if n % 2 else math.nan
        if not 0.0 < curvature < math.inf:
            curvature = np.sum((W * xi) ** 2)
        bar_beta = initial_step(g, xi_norm, curvature)
        slope = np.vdot(grad, xi)
        for m in range(cfg.max_backtracks + 1):
            alpha = bar_beta * cfg.beta**m
            Y, U_new, V_new = metric_projection(X + alpha * xi, k)
            f_new = f(Y)
            if f_new - f_x <= cfg.c * alpha * slope:
                break
        else:
            raise RuntimeError(f"no sufficient decrease at iteration {n}")
        records[-1].update(alpha=alpha, backtracks=m, displacement=np.linalg.norm(Y - X))
        kappa = 2.0 * (f_new - f_x - alpha * slope) / (alpha * xi_norm) ** 2
        X, U, V, f_x = Y, U_new, V_new, f_new
