"""Geometry of the variety of m-by-n matrices with rank at most k.

At a point X of rank s <= k with column space spanned by U and row space
spanned by V, a feasible search direction decomposes into four mutually
Frobenius-orthogonal blocks:

    U @ C @ V.T  +  Up @ V.T  +  U @ vp.T  +  perp,

where C is s-by-s, U.T @ Up = 0, V.T @ vp = 0, and perp is a matrix of rank
at most k - s whose column/row spaces are orthogonal to U and V. The first
three blocks span the tangent space of the rank-s manifold; adding the perp
budget gives the tangent cone of the rank-at-most-k variety. This module
computes orthogonal projections onto tangent space and tangent cone, the
projected-antigradient norm, the metric-projection (truncated SVD)
retraction, and the two partial directions along which X + alpha * xi never
leaves the variety.

The tangent cone is closed under sign, so the projection of the
antigradient is the negated projection of the gradient: callers project the
gradient in whichever form the objective returns it (masked, factored or
dense) and negate the result blockwise.

Large structured matrices are only touched through products with thin
factors, the best rank-(k-s) approximation of the remainder included:
core.truncate projects the base spaces out of the gradient's own form and
never densifies a masked or factored matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    FactoredMatrix,
    ambient_matmul,
    ambient_rmatmul,
    frob_norm,
    numerical_rank,
    orthonormal_polish,
    truncate,
    ORTHO_TOL,
    RANK_TOL,
)


@dataclass(frozen=True, eq=False)
class VarietyPoint:
    """Point of the rank-at-most-k variety: a factored matrix plus the budget k.

    The stored triple must not carry numerically zero singular values; use
    make_point to trim a freshly truncated factorization.
    """

    point: FactoredMatrix
    k: int

    def __post_init__(self):
        m, n = self.point.shape
        if not 0 <= self.point.rank <= self.k <= min(m, n):
            raise ValueError(f"need rank <= k <= min(m, n), got rank={self.point.rank}, k={self.k}")
        if self.point.rank and numerical_rank(self.point.sigma) != self.point.rank:
            raise ValueError("point carries numerically zero singular values; trim first")

    @property
    def shape(self):
        return self.point.shape

    @property
    def s(self) -> int:
        return self.point.rank

    def dense(self) -> np.ndarray:
        return self.point.dense()


def make_point(F: FactoredMatrix, k: int) -> VarietyPoint:
    """Wrap F as a VarietyPoint, trimming modes at or below RANK_TOL * sigma_1."""
    r = numerical_rank(F.sigma)
    if r < F.rank:
        F = FactoredMatrix(F.U[:, :r], F.sigma[:r], F.V[:, :r])
    return VarietyPoint(F, k)


def zero_point(m: int, n: int, k: int) -> VarietyPoint:
    return VarietyPoint(FactoredMatrix.zero(m, n), k)


@dataclass(frozen=True, eq=False)
class ConeTangentVector:
    """Element of the tangent cone at a VarietyPoint, stored blockwise.

    core is s-by-s, up is m-by-s with U.T @ up = 0, vp is n-by-s with
    V.T @ vp = 0, and perp is a FactoredMatrix of rank at most k - s whose
    factors are orthogonal to U and V (rank 0 when omitted). The ambient
    embedding is U @ core @ V.T + up @ V.T + U @ vp.T + perp.
    """

    base: VarietyPoint
    core: np.ndarray
    up: np.ndarray
    vp: np.ndarray
    perp: FactoredMatrix | None = None

    def __post_init__(self):
        s = self.base.s
        m, n = self.base.shape
        U, V = self.base.point.U, self.base.point.V
        core = np.asarray(self.core, dtype=float).reshape(s, s)
        up = np.asarray(self.up, dtype=float).reshape(m, s)
        vp = np.asarray(self.vp, dtype=float).reshape(n, s)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "vp", vp)
        if self.perp is None:
            object.__setattr__(self, "perp", FactoredMatrix.zero(m, n))
        _check_perp(U, up, "up")
        _check_perp(V, vp, "vp")
        if self.perp.rank > self.base.k - s:
            raise ValueError("perp exceeds the rank budget k - s")
        if self.perp.shape != (m, n):
            raise ValueError("perp shape mismatch")
        _check_perp(U, self.perp.U, "perp.U")
        _check_perp(V, self.perp.V, "perp.V")

    @property
    def perp_rank(self) -> int:
        return self.perp.rank

    def norm(self) -> float:
        sq = (
            np.sum(self.core**2)
            + np.sum(self.up**2)
            + np.sum(self.vp**2)
            + np.sum(self.perp.sigma**2)
        )
        return float(np.sqrt(sq))

    def __neg__(self) -> "ConeTangentVector":
        """-xi blockwise; the perp block flips the sign of its left factor."""
        perp = FactoredMatrix(-self.perp.U, self.perp.sigma, self.perp.V)
        return ConeTangentVector(self.base, -self.core, -self.up, -self.vp, perp)

    def is_zero(self) -> bool:
        return self.norm() == 0.0

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Thin (L, R) with L @ R.T equal to the ambient embedding.

        L = [U | up | perp.U * perp.sigma] and R = [V @ core.T + vp | V | perp.V],
        of width 2s + perp_rank <= 2k. A flat direction folds its zero block
        away and has width s + perp_rank: L = [U] and R = [V @ core.T + vp]
        when up is zero, L = [U @ core + up] and R = [V] when vp is zero.
        """
        U, V = self.base.point.U, self.base.point.V
        if not self.up.any():
            L, R = [U], [V @ self.core.T + self.vp]
        elif not self.vp.any():
            L, R = [U @ self.core + self.up], [V]
        else:
            L = [U, self.up]
            R = [V @ self.core.T + self.vp, V]
        L.append(self.perp.U * self.perp.sigma)
        R.append(self.perp.V)
        return np.hstack(L), np.hstack(R)

    def dense(self) -> np.ndarray:
        U, V = self.base.point.U, self.base.point.V
        return U @ self.core @ V.T + self.up @ V.T + U @ self.vp.T + self.perp.dense()


def _check_perp(basis: np.ndarray, W: np.ndarray, name: str) -> None:
    if basis.shape[1] == 0 or W.shape[1] == 0:
        return
    drift = np.abs(basis.T @ W).max(initial=0.0)
    if drift > ORTHO_TOL * (1.0 + np.linalg.norm(W)):
        raise ValueError(f"{name} is not orthogonal to the base factor ({drift:.2e})")


def project_tangent_space(X: VarietyPoint, F) -> ConeTangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space at X.

    Blockwise: core = U.T F V, up = (I - U U.T) F V, vp = (I - V V.T) F.T U.
    The input may be dense, factored or masked; only products with the thin
    factors U and V are taken.
    """
    if F.shape != X.shape:
        raise ValueError("dimension mismatch in project_tangent_space")
    U, V = X.point.U, X.point.V
    FV = ambient_matmul(F, V)
    FtU = ambient_rmatmul(F, U)
    core = U.T @ FV
    up = FV - U @ core
    vp = FtU - V @ core.T
    # one cleanup pass keeps the orthogonality invariants at roundoff level
    up -= U @ (U.T @ up)
    vp -= V @ (V.T @ vp)
    return ConeTangentVector(X, core, up, vp)


def project_cone(X: VarietyPoint, F) -> tuple[ConeTangentVector, float]:
    """Best approximation of an ambient matrix in the tangent cone at X.

    Returns (G, g) where G adds to the tangent-space projection a best
    rank-(k-s) approximation of the remainder supported on the orthogonal
    complements of the base spaces, and g = ||G||_F. When s = k the cone
    equals the tangent space and no remainder work is done.
    """
    xi = project_tangent_space(X, F)
    budget = X.k - X.s
    if budget > 0:
        xi = replace(xi, perp=_perp_truncation(X, F, budget))
    return xi, xi.norm()


def _perp_truncation(X: VarietyPoint, F, budget: int) -> FactoredMatrix:
    """Best rank-(budget) approximation of (I - UU.T) F (I - VV.T).

    core.truncate takes F in the form the objective returns it, with U and V
    projected out: a masked F goes through ARPACK via
    scipy.sparse.linalg.svds on its CSR view, a factored one through QRs of
    its projected thin factors, so neither is densified unless the result is
    as large as F. The factors of the truncation are re-orthogonalized
    against the base spaces afterwards so the block-orthogonality invariants
    hold despite roundoff. That projection leaves the columns of each side
    slightly non-orthonormal, so truncate takes the pair (W_l * sigma, W_r)
    back to an SVD triple. Remainder modes at roundoff level relative to
    ||F|| count as zero: they are projection noise, not signal.
    """
    U, V = X.point.U, X.point.V
    P = truncate(F, budget, U, V)
    scale = frob_norm(F)
    r = int(np.count_nonzero(P.sigma > RANK_TOL * scale)) if scale > 0 else 0
    WL = _reorthogonalize(P.U[:, :r], U)
    WR = _reorthogonalize(P.V[:, :r], V)
    return truncate((WL * P.sigma[:r], WR), r)


def _reorthogonalize(W: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """W's columns after two Gram-Schmidt passes against an orthonormal basis."""
    if basis.shape[1] and W.shape[1]:
        for _ in range(2):
            W = W - basis @ (basis.T @ W)
        if np.linalg.norm(W, axis=0).min(initial=1.0) <= 0.5:
            raise ValueError("degenerate perp factor after re-orthogonalization")
    return W


def g_lower_bound(X: VarietyPoint, F) -> float:
    """sqrt((k-s)/min(m-s, n-s)) times ||F||; zero when s = k.

    Lower bound on the projected-antigradient norm at rank-deficient points:
    the cone is large enough that the projection keeps at least this share of
    any ambient matrix.
    """
    m, n = X.shape
    s = X.s
    if X.k == s:
        return 0.0
    return float(np.sqrt((X.k - s) / min(m - s, n - s)) * frob_norm(F))


def retract(X: VarietyPoint, xi: ConeTangentVector, alpha: float) -> VarietyPoint:
    """Best rank-at-most-k approximation of X + alpha * xi.

    Works on the rank-(k+s) structured representation through a compact QR
    plus a small SVD in O((m+n)(k+s)^2); the full matrix is never formed. The
    result satisfies ||retract(X, xi, 1) - (X + xi)|| <= ||xi|| / sqrt(2).
    On a flat direction (up or vp block zero) X + alpha * xi has rank at most
    s + rank(perp) <= k, so nothing is truncated and the result is X + alpha
    * xi exactly.
    """
    if alpha < 0:
        raise ValueError("step size must be nonnegative")
    # the blocks are coefficients relative to the base factors, so anything
    # short of the same factors would silently produce a wrong update
    if xi.base.point is not X.point:
        raise ValueError("tangent vector is not based at the given point")
    if alpha == 0.0 or xi.is_zero():
        return X
    U_new, sig, V_new = _combined_svd(X, xi, alpha)
    return make_point(FactoredMatrix(U_new, sig, V_new), X.k)


def _combined_svd(X: VarietyPoint, xi: ConeTangentVector, alpha: float):
    """SVD factors of X + alpha * xi, truncated to rank at most X.k.

    X + alpha * xi is expressed over the orthonormal bases [U | QL] and
    [V | QR] obtained from compact QRs of the up/perp and vp/perp blocks, so
    only a (2s+p)-sized middle matrix is ever decomposed. Numerically zero
    modes are trimmed from the result. Raises ValueError when the middle
    matrix overflows (its Frobenius norm is not finite), before the SVD,
    which on such input may not return.
    """
    U, V = X.point.U, X.point.V
    s = X.s
    QL, RL = _qr_against(np.hstack([xi.up, xi.perp.U]), U)
    QR_, RR = _qr_against(np.hstack([xi.vp, xi.perp.V]), V)

    # middle matrix over the bases [U | QL] x [V | QR_]
    top = np.hstack([
        np.diag(X.point.sigma) + alpha * xi.core,
        alpha * RR[:, :s].T,
    ])
    bottom = np.hstack([
        alpha * RL[:, :s],
        alpha * (RL[:, s:] * xi.perp.sigma) @ RR[:, s:].T,
    ])
    B = np.vstack([top, bottom])
    if not np.isfinite(np.linalg.norm(B)):
        raise ValueError("non-finite middle matrix in the rank update")

    Ub, sb, Vbt = np.linalg.svd(B, full_matrices=False)
    r = min(X.k, numerical_rank(sb))
    U_new = orthonormal_polish(np.hstack([U, QL]) @ Ub[:, :r])
    V_new = orthonormal_polish(np.hstack([V, QR_]) @ Vbt[:r].T)
    return U_new, sb[:r], V_new


def _qr_against(W: np.ndarray, basis: np.ndarray):
    """Compact QR of W after projecting out an orthonormal basis."""
    if basis.shape[1] and W.shape[1]:
        W = W - basis @ (basis.T @ W)
    return np.linalg.qr(W)


def partial_directions(X: VarietyPoint, F, projection: ConeTangentVector | None = None):
    """The two single-sided cone directions for an ambient matrix F.

    G1 keeps the vp block and drops up (column space of X + alpha*G1 stays in
    span(U) plus the perp factor); G2 keeps up and drops vp. Both contain the
    shared core and perp parts and keep X + alpha * Gi inside the variety for
    every alpha >= 0.
    """
    if projection is None:
        projection, _ = project_cone(X, F)
    g1 = replace(projection, up=np.zeros_like(projection.up))
    g2 = replace(projection, vp=np.zeros_like(projection.vp))
    return g1, g2


def choose_flat_direction(
    X: VarietyPoint, F, projection: ConeTangentVector | None = None
) -> ConeTangentVector:
    """Larger-norm direction among the two partial projections (ties pick G1).

    When F is the antigradient the choice satisfies the angle condition with
    omega = 1/sqrt(2) and carries at least half of the squared cone norm.
    """
    g1, g2 = partial_directions(X, F, projection)
    if np.sum(g1.vp**2) >= np.sum(g2.up**2):
        return g1
    return g2


def random_point(rng: np.random.Generator, m: int, n: int, s: int, k: int) -> VarietyPoint:
    """Random rank-s point with singular values in [0.5, 2]."""
    if s == 0:
        return zero_point(m, n, k)
    qu, _ = np.linalg.qr(rng.standard_normal((m, s)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, s)))
    sig = np.sort(rng.uniform(0.5, 2.0, size=s))[::-1]
    return VarietyPoint(FactoredMatrix(qu, sig, qv), k)
