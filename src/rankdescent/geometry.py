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
gradient as the objective returns it, and a direction rule negates it. A
gradient is a matrix operand with shape, T and @: the CSR matrix on the
mask, a core.ThinPair (L, R) standing for L @ R.T, or a dense array.

Large structured matrices are only touched through products with thin
factors, the best rank-(k-s) approximation of the remainder included:
core.truncate projects the base spaces out of the gradient's own form and
never densifies a sparse matrix or a pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse

from .core import (
    FactoredMatrix,
    ThinPair,
    _norm,
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

    norm, factors() and retract share two values cached on first use: the
    squared block sums (_sums), which -G and choose_flat_direction take over
    from G, and a flat vector's kept side (_kept), scanned for and formed once.
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

    @cached_property
    def _sums(self) -> tuple:
        """np.sum(b**2) of core, up, vp and perp.sigma, in that order."""
        return tuple(np.sum(b**2) for b in (self.core, self.up, self.vp, self.perp.sigma))

    @cached_property
    def norm(self) -> float:
        """||xi||_F: the root of the four squared block sums, added in order."""
        return math.sqrt(sum(self._sums))

    def __neg__(self) -> "ConeTangentVector":
        """-xi blockwise; a nonzero perp flips the sign of its left factor, a zero one is kept."""
        return _negated(self, -self.up, -self.vp, self._sums)

    @cached_property
    def _bases(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(RL, RR, [U | QL], [V | QR]): a non-flat retract's alpha-free QRs, built once."""
        U, V, perp = self.base.point.U, self.base.point.V, self.perp
        QL, RL = np.linalg.qr(project_out(np.concatenate([self.up, perp.U], axis=1), U))
        QR_, RR = np.linalg.qr(project_out(np.concatenate([self.vp, perp.V], axis=1), V))
        return RL, RR, np.concatenate([U, QL], axis=1), np.concatenate([V, QR_], axis=1)

    @cached_property
    def _kept(self) -> tuple[bool, np.ndarray] | None:
        """(swap, K) for a flat vector, else None: swap when up is the zero
        block, and K the kept side, V @ core.T + vp when swap, else U @ core + up."""
        U, V = self.base.point.U, self.base.point.V
        if not self.up.any():
            return True, V @ self.core.T + self.vp
        if not self.vp.any():
            return False, U @ self.core + self.up
        return None

    @property
    def flat(self) -> bool:
        """Whether the up or the vp block is zero: X + alpha * xi then has rank
        at most s + perp.rank <= k, and stays on the variety for every alpha."""
        return self._kept is not None

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Thin (L, R) with L @ R.T equal to the ambient embedding.

        L = [U | up | perp.U * perp.sigma] and R = [V @ core.T + vp | V | perp.V],
        of width 2s + perp.rank <= 2k. A flat direction folds its zero block
        away and has width s + perp.rank: L = [U] and R = [K] when up is
        zero, L = [K] and R = [V] when vp is zero, K its kept side (_kept).
        With no perp block these are U or V and K themselves, not copies.
        """
        U, V, perp = self.base.point.U, self.base.point.V, self.perp
        pU = perp.U * perp.sigma
        if self._kept is None:
            L = np.concatenate([U, self.up, pU], axis=1)
            return L, np.concatenate([V @ self.core.T + self.vp, V, perp.V], axis=1)
        swap, K = self._kept
        return (_beside(U, pU), _beside(K, perp.V)) if swap else (_beside(K, pU), _beside(V, perp.V))


def _beside(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[A | B], or A itself when B has no columns."""
    return np.concatenate([A, B], axis=1) if B.shape[1] else A


def _negated(G: ConeTangentVector, up: np.ndarray, vp: np.ndarray, sums: tuple) -> ConeTangentVector:
    """-G with up and vp given, in one construction; a nonzero perp flips its
    left factor. sums become the new vector's cached _sums."""
    perp = G.perp
    if perp.rank:
        perp = FactoredMatrix(-perp.U, perp.sigma, perp.V)
    xi = ConeTangentVector(G.base, -G.core, up, vp, perp)
    xi.__dict__["_sums"] = sums  # where cached_property keeps its value
    return xi


def _check_perp(B: np.ndarray, W: np.ndarray, name: str) -> None:
    if B.shape[1] == 0 or W.shape[1] == 0:
        return
    drift = np.abs(B.T @ W).max(initial=0.0)
    if drift > ORTHO_TOL * (1.0 + _norm(W)):
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
    return xi, xi.norm


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
      of N = [U * sigma + alpha * K | alpha * perp.U * perp.sigma] gives
      left @ M, K = U @ core + up the kept side that xi forms once (with no
      perp, right = V and N = its first block). An up = 0 step is the vp = 0
      step of the transposed problem (U and V, up and vp, perp.U and perp.V
      swapped, core transposed), whose factors come back swapped. alpha
      scales only finite terms, so an overflowing step leaves inf, never
      NaN, in N. Y is X + alpha * xi, and the distance is alpha * ||xi||.
    - Any other step takes left = [U | QL] and right = [V | QR] from compact
      QRs of the up/perp and vp/perp blocks, so M is a (2s+p)-sized middle
      matrix B, filled block by block, in O((m+n)(k+s)^2). xi builds the
      alpha-free QRs and bases once (ConeTangentVector._bases). Over them X is
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
    xi_norm = xi.norm
    if alpha == 0.0 or xi_norm == 0.0:
        return X, 0.0
    U, sigma, V, perp = X.point.U, X.point.sigma, X.point.V, xi.perp
    s = X.s
    swap, K = xi._kept or (False, None)
    if K is not None:
        U, V, pU, pV = (V, U, perp.V, perp.U) if swap else (U, V, perp.U, perp.V)
        N = _beside(U * sigma + alpha * K, alpha * (pU * perp.sigma))
        _check_finite(N)
        left, M = np.linalg.qr(N)
        right = _beside(V, pV)
    else:
        RL, RR, left, right = xi._bases
        M = np.empty((s + RL.shape[0], s + RR.shape[0]))
        M[:s, :s], M[:s, s:] = np.diag(sigma) + alpha * xi.core, alpha * RR[:, :s].T
        M[s:, :s], M[s:, s:] = alpha * RL[:, :s], alpha * (RL[:, s:] * perp.sigma) @ RR[:, s:].T
        _check_finite(M)

    Ub, sb, Vbt = np.linalg.svd(M, full_matrices=False)
    r = min(X.k, numerical_rank(sb))
    U_new = orthonormal_polish(left @ Ub[:, :r])
    V_new = orthonormal_polish(right @ Vbt[:r].T)
    if K is not None:
        distance = alpha * xi_norm
    else:
        step = (Ub[:, :r] * sb[:r]) @ Vbt[:r]
        step[:s, :s] -= np.diag(sigma)
        distance = _norm(step)
    if swap:
        U_new, V_new = V_new, U_new
    return VarietyPoint(FactoredMatrix(U_new, sb[:r], V_new), X.k), distance


def _check_finite(M: np.ndarray) -> None:
    """Raise ValueError unless the Frobenius norm of M is finite."""
    if not math.isfinite(_norm(M)):
        raise ValueError("non-finite matrix in the rank update")


def choose_flat_direction(G: ConeTangentVector) -> ConeTangentVector:
    """The larger of the two partial projections of -G, G the gradient's cone projection.

    Zeroing the up block keeps the column space of X + alpha * xi in span(U)
    plus the perp factor, zeroing vp keeps the row space; either way
    X + alpha * xi stays in the variety for every alpha >= 0. The one whose
    kept block has the larger squared norm is returned, vp on a tie, built in
    one construction from G's negated blocks. The squared norms are G's
    cached _sums, which the result takes over (a negated block sums bitwise
    the same), with 0.0 for the zeroed block. It meets the angle condition
    with omega = 1/sqrt(2) and carries at least half of the squared cone norm.
    """
    core, up, vp, perp = G._sums
    if vp >= up:
        return _negated(G, np.zeros_like(G.up), -G.vp, (core, 0.0, vp, perp))
    return _negated(G, -G.up, np.zeros_like(G.vp), (core, up, 0.0, perp))


def random_point(rng: np.random.Generator, m: int, n: int, s: int, k: int) -> VarietyPoint:
    """Random rank-s point with singular values in [0.5, 2]."""
    qu, _ = np.linalg.qr(rng.standard_normal((m, s)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, s)))
    sig = np.sort(rng.uniform(0.5, 2.0, size=s))[::-1]
    return VarietyPoint(FactoredMatrix(qu, sig, qv), k)
