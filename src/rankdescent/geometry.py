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
retraction, and the flat direction: the larger of the two partial
projections, along which X + alpha * xi never leaves the variety. A cone
tangent vector carries its base point, so the retraction retract(xi, alpha)
is a map on the tangent bundle: it reads X from xi.base. A flat step
changes one side of X only, so its retraction takes one QR, of that side's
new factor; any other step takes two, one per side. Both then take one SVD
of a small middle matrix.

The tangent cone is closed under sign, so the projection of the
antigradient is the negated projection of the gradient: callers project the
gradient as the objective returns it and negate the result blockwise. A
gradient is a matrix operand with shape, T and @: the CSR matrix on the
mask, a core.ThinPair (L, R) standing for L @ R.T, or a dense array.

Large structured matrices are only touched through products with thin
factors, the best rank-(k-s) approximation of the remainder included:
core.truncate projects the base spaces out of the gradient's own form and
never densifies a sparse matrix or a pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse

from .core import (
    FactoredMatrix,
    ThinPair,
    frob_norm,
    numerical_rank,
    orthonormal_polish,
    truncate,
    project_out,
    run_lanes,
    ORTHO_TOL,
    RANK_TOL,
)


@dataclass(frozen=True, eq=False)
class VarietyPoint:
    """Point of the rank-at-most-k variety: a factored matrix plus the budget k.

    Modes at or below RANK_TOL * sigma_1 are trimmed on construction, so the
    stored triple carries no numerically zero singular values. A trimmed
    point holds copies of the r columns it keeps, not views that would pin
    the given triple's wider arrays.
    """

    point: FactoredMatrix
    k: int

    def __post_init__(self):
        F = self.point
        r = numerical_rank(F.sigma)
        if r < F.rank:
            F = FactoredMatrix(np.copy(F.U[:, :r]), np.copy(F.sigma[:r]), np.copy(F.V[:, :r]))
            object.__setattr__(self, "point", F)
        m, n = F.shape
        if not 0 <= r <= self.k <= min(m, n):
            raise ValueError(f"need rank <= k <= min(m, n), got rank={r}, k={self.k}")

    @property
    def shape(self):
        return self.point.shape

    @property
    def s(self) -> int:
        return self.point.rank


@dataclass(frozen=True, eq=False)
class ConeTangentVector:
    """Element of the tangent cone at the VarietyPoint base, stored blockwise.

    core is s-by-s, up is m-by-s with U.T @ up = 0, vp is n-by-s with
    V.T @ vp = 0, and perp is a FactoredMatrix of rank at most k - s whose
    factors are orthogonal to U and V (rank 0 when omitted). core, up and vp
    are stored as given: an array of another shape raises ValueError. The
    ambient embedding is U @ core @ V.T + up @ V.T + U @ vp.T + perp. The
    blocks are coefficients over base's factors, so retract and an
    objective's line take the point from base and from nowhere else.
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
        for name, shape in (("core", (s, s)), ("up", (m, s)), ("vp", (n, s))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape {getattr(self, name).shape}, need {shape}")
        if self.perp is None:
            object.__setattr__(self, "perp", FactoredMatrix.zero(m, n))
        _check_perp(U, self.up, "up")
        _check_perp(V, self.vp, "vp")
        if self.perp.rank > self.base.k - s:
            raise ValueError("perp exceeds the rank budget k - s")
        if self.perp.shape != (m, n):
            raise ValueError("perp shape mismatch")
        _check_perp(U, self.perp.U, "perp.U")
        _check_perp(V, self.perp.V, "perp.V")

    def norm(self) -> float:
        """||xi||_F from the four blocks, summed on the first call only."""
        return self._norm

    @cached_property
    def _norm(self) -> float:
        sq = (
            np.sum(self.core**2)
            + np.sum(self.up**2)
            + np.sum(self.vp**2)
            + np.sum(self.perp.sigma**2)
        )
        return float(np.sqrt(sq))

    def __neg__(self) -> "ConeTangentVector":
        """-xi blockwise; a nonzero perp flips the sign of its left factor, a zero one is kept."""
        perp = self.perp
        if perp.rank:
            perp = FactoredMatrix(-perp.U, perp.sigma, perp.V)
        return ConeTangentVector(self.base, -self.core, -self.up, -self.vp, perp)

    @property
    def flat(self) -> bool:
        """Whether the up or the vp block is zero: X + alpha * xi then has rank
        at most s + perp.rank <= k, and stays on the variety for every alpha."""
        return not (self.up.any() and self.vp.any())

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Thin (L, R) with L @ R.T equal to the ambient embedding.

        L = [U | up | perp.U * perp.sigma] and R = [V @ core.T + vp | V | perp.V],
        of width 2s + perp.rank <= 2k. A flat direction folds its zero block
        away and has width s + perp.rank: L = [U] and R = [V @ core.T + vp]
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


def _check_perp(B: np.ndarray, W: np.ndarray, name: str) -> None:
    if B.shape[1] == 0 or W.shape[1] == 0:
        return
    drift = np.abs(B.T @ W).max(initial=0.0)
    if drift > ORTHO_TOL * (1.0 + np.linalg.norm(W)):
        raise ValueError(f"{name} is not orthogonal to the base factor ({drift:.2e})")


def project_tangent_space(X: VarietyPoint, F) -> ConeTangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space at X.

    Blockwise: core = U.T F V, up = (I - U U.T) F V, vp = (I - V V.T) F.T U.
    F is any operand with shape, T and @ (dense, sparse or a ThinPair); only
    its products F @ V and F.T @ U with the thin factors are taken. For a
    sparse F they are two tasks of core.run_lanes, whose work is their
    2 nnz s multiply-adds. Other kinds run them in turn here: a ThinPair's
    @ is package code, and package functions run on the calling thread.
    """
    if F.shape != X.shape:
        raise ValueError("dimension mismatch in project_tangent_space")
    U, V = X.point.U, X.point.V
    work = 2 * F.nnz * X.s if scipy.sparse.issparse(F) else 0
    FV, FtU = run_lanes([lambda: F @ V, lambda: F.T @ U], work)
    core = U.T @ FV
    up = FV - U @ core
    vp = FtU - V @ core.T
    # one cleanup pass keeps the orthogonality invariants at roundoff level
    return ConeTangentVector(X, core, project_out(up, U), project_out(vp, V))


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

    core.truncate takes F as the objective returns it, with U and V
    projected out: the completion gradient's CSR matrix goes through ARPACK
    via scipy.sparse.linalg.svds, a ThinPair (the quadratic gradient)
    through QRs of its projected factors, so neither is densified unless the
    result is as large as F. Remainder modes at roundoff level relative to
    ||F|| count as zero: they are projection noise, not signal; a pair's
    ||F|| (core.frob_norm) takes one more QR. The kept modes go through
    truncate once more, again against U and V: its projection is the second
    Gram-Schmidt pass that holds the block-orthogonality invariants despite
    roundoff, and its QRs give orthonormal factors back.
    """
    U, V = X.point.U, X.point.V
    P = truncate(F, budget, U, V)
    scale = frob_norm(F)
    r = int(np.count_nonzero(P.sigma > RANK_TOL * scale)) if scale > 0 else 0
    return truncate(ThinPair(P.U[:, :r] * P.sigma[:r], P.V[:, :r]), r, U, V)


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


def retract(xi: ConeTangentVector, alpha: float) -> tuple[VarietyPoint, float]:
    """Best rank-at-most-k approximation of X + alpha * xi, X = xi.base.

    Returns the pair (Y, ||Y - X||_F); the full matrix is never formed. Both
    kinds of step write X + alpha * xi as left @ M @ right.T over
    orthonormal bases and share one tail: the SVD of the small M, a cut at
    min(k, numerical rank), and orthonormal_polish of both new factors.

    - Along a flat xi (see ConeTangentVector.flat) nothing is truncated.
      With vp = 0, right = [V | perp.V] does not change, and one compact QR
      of N = [U * sigma + alpha * (U @ core + up) | alpha * perp.U *
      perp.sigma] gives left @ M. An up = 0 step is the vp = 0 step of the
      transposed problem (U and V, up and vp, perp.U and perp.V swapped,
      core transposed), whose factors come back swapped. alpha multiplies
      only finite terms, so an overflowing step leaves inf, never NaN, in
      N. Y is X + alpha * xi, and the distance is alpha * ||xi||.
    - Any other step takes left = [U | QL] and right = [V | QR] from compact
      QRs of the up/perp and vp/perp blocks, so M is a (2s+p)-sized middle
      matrix B, in O((m+n)(k+s)^2). Over the same bases X is
      diag(sigma, 0), so the distance is ||B_r - diag(sigma, 0)||_F, B_r
      the SVD of B cut to the kept modes: a small-matrix norm with no QR.

    Numerically zero modes are trimmed from the result, which satisfies
    ||retract(xi, 1) - (X + xi)|| <= ||xi|| / sqrt(2).
    Raises ValueError when N or B overflows (its Frobenius norm is not
    finite), before the QR or SVD that on such input may not return.
    """
    if alpha < 0:
        raise ValueError("step size must be nonnegative")
    X = xi.base
    xi_norm = xi.norm()
    if alpha == 0.0 or xi_norm == 0.0:
        return X, 0.0
    U, sigma, V, perp = X.point.U, X.point.sigma, X.point.V, xi.perp
    s = X.s
    flat = xi.flat
    swap = flat and not xi.up.any()
    if flat:
        up, core, pU, pV = xi.up, xi.core, perp.U, perp.V
        if swap:
            U, V, up, core, pU, pV = V, U, xi.vp, core.T, pV, pU
        N = np.hstack([U * sigma + alpha * (U @ core + up), alpha * (pU * perp.sigma)])
        _check_finite(N)
        left, M = np.linalg.qr(N)
        right = np.hstack([V, pV])
    else:
        QL, RL = np.linalg.qr(project_out(np.hstack([xi.up, perp.U]), U))
        QR_, RR = np.linalg.qr(project_out(np.hstack([xi.vp, perp.V]), V))
        M = np.block([
            [np.diag(sigma) + alpha * xi.core, alpha * RR[:, :s].T],
            [alpha * RL[:, :s], alpha * (RL[:, s:] * perp.sigma) @ RR[:, s:].T],
        ])
        _check_finite(M)
        left, right = np.hstack([U, QL]), np.hstack([V, QR_])

    Ub, sb, Vbt = np.linalg.svd(M, full_matrices=False)
    r = min(X.k, numerical_rank(sb))
    U_new = orthonormal_polish(left @ Ub[:, :r])
    V_new = orthonormal_polish(right @ Vbt[:r].T)
    if flat:
        distance = alpha * xi_norm
    else:
        step = (Ub[:, :r] * sb[:r]) @ Vbt[:r]
        step[:s, :s] -= np.diag(sigma)
        distance = float(np.linalg.norm(step))
    if swap:
        U_new, V_new = V_new, U_new
    return VarietyPoint(FactoredMatrix(U_new, sb[:r], V_new), X.k), distance


def _check_finite(M: np.ndarray) -> None:
    """Raise ValueError unless the Frobenius norm of M is finite."""
    if not np.isfinite(np.linalg.norm(M)):
        raise ValueError("non-finite matrix in the rank update")


def choose_flat_direction(G: ConeTangentVector) -> ConeTangentVector:
    """The larger of the two partial projections of a cone projection G.

    Zeroing G's up block keeps the column space of X + alpha * xi in span(U)
    plus the perp factor, zeroing vp keeps the row space; either way
    X + alpha * xi stays in the variety for every alpha >= 0. The one whose
    kept block has the larger squared norm is returned, vp on a tie. When G
    projects the antigradient, the choice meets the angle condition with
    omega = 1/sqrt(2) and carries at least half of the squared cone norm.
    """
    if np.sum(G.vp**2) >= np.sum(G.up**2):
        return replace(G, up=np.zeros_like(G.up))
    return replace(G, vp=np.zeros_like(G.vp))


def random_point(rng: np.random.Generator, m: int, n: int, s: int, k: int) -> VarietyPoint:
    """Random rank-s point with singular values in [0.5, 2]."""
    qu, _ = np.linalg.qr(rng.standard_normal((m, s)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, s)))
    sig = np.sort(rng.uniform(0.5, 2.0, size=s))[::-1]
    return VarietyPoint(FactoredMatrix(qu, sig, qv), k)
