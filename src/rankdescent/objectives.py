"""Cost functions over variety points: value, structured gradient, line.

Each objective returns its gradient as a matrix operand with shape, T and @,
which the tangent-cone projection consumes through thin factor products
alone: MatrixCompletion as the CSR matrix of its residual on the mask,
QuadraticDistance as the ThinPair of its joint factors, with no QR or SVD.
MatrixCompletion gathers its residual once per point, for the value and the
gradient there; QuadraticDistance keeps no state. line(xi) is the objective
along the curve alpha -> retract(xi, alpha) from the base point X of xi, the
only thing the line search sees: its curvature, computed on its first read,
sets the initial step when the solver asks for it, value(alpha) is f at a
trial point, and step() returns the point valued last with its distance from
X. A Line retracts each trial and evaluates it; on a completion problem it
gathers the direction on the mask only if its curvature is read. Along a
flat xi the curve is the ambient line X + alpha * xi, on which matrix
completion is exactly quadratic: its MaskedLine takes every trial value from
one gather of the direction on the mask, made at once, retracts once, at the
accepted step, and files its residual for that point, with no gather either.
A completion problem's directory is read and written by bench, which owns
every file format.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse

from .core import FactoredMatrix, SparseOnMask, ThinPair, factored_diff_norm, mask_gather
from .geometry import ConeTangentVector, VarietyPoint, retract


class Line:
    """The objective along the curve alpha -> retract(xi, alpha), from X = xi.base.

    curvature is <xi, Hess f(X) xi>, from which the line search may take its
    initial step; it is computed on its first read, by calling the function
    of no arguments the line was made with, so a search that starts
    elsewhere pays nothing for it. value(alpha) retracts the trial and
    evaluates the objective there; step() returns the pair (point, distance
    from X) of the trial valued last.
    """

    def __init__(self, obj, xi: ConeTangentVector, curvature):
        self._curvature = curvature
        self._obj, self._xi = obj, xi

    @cached_property
    def curvature(self) -> float:
        return self._curvature()

    def value(self, alpha: float) -> float:
        self._step = retract(self._xi, alpha)
        return self._obj.value(self._step[0])

    def step(self) -> tuple[VarietyPoint, float]:
        return self._step


class MaskedLine(Line):
    """0.5 * ||r + alpha * v||^2 along a flat xi, r = P(X - A) and v = P(xi).

    The curve is the ambient line X + alpha * xi and f is exactly quadratic
    on it, so each value is one O(|mask|) vector update with no retraction.
    step() retracts once and seeds the completion's residual slot with
    r + alpha * v (read-only) under the new point's identity: the gradient
    and value there gather nothing. The seeded residual differs from a
    fresh gather by the roundoff of forming the point, which accumulates
    over the steps that seed one.
    """

    def __init__(self, obj: "MatrixCompletion", xi: ConeTangentVector, v: np.ndarray):
        super().__init__(obj, xi, lambda: float(v @ v))
        self._r, self._v = obj._residual(xi.base), v

    def value(self, alpha: float) -> float:
        self._alpha, self._w = alpha, self._r + alpha * self._v
        return 0.5 * float(self._w @ self._w)

    def step(self) -> tuple[VarietyPoint, float]:
        Y, distance = retract(self._xi, self._alpha)
        self._obj._keep_residual(Y.point, self._w)
        return Y, distance


def _point(obj, X: VarietyPoint) -> FactoredMatrix:
    """X.point, once X's shape is checked against obj's."""
    if X.shape != obj.shape:
        raise ValueError("dimension mismatch between point and problem")
    return X.point


class MatrixCompletion:
    """Half the squared masked residual: 0.5 * sum over the mask of (A - X)^2.

    Only the observed values of A are stored. Entries of X on the mask (the
    residual, unless a MaskedLine seeded it) and of a direction xi on it (the
    line's v) are gathered from thin factors by core.mask_gather: row-wise
    dot products in O(|mask| * width) below its density crossover, one BLAS
    GEMM and one take per block of rows, O(m * n * width), from it on.

    The residual of the point valued last is kept, read-only, in one slot
    keyed by the identity of X.point, an immutable FactoredMatrix the slot
    holds, so no other point reuses the key: the gradient at the search's
    accepted point, and the first after value(X0), gather nothing. The slot
    makes an instance unsafe to share between threads.
    """

    _last = (None, None)  # (point, residual)

    def __init__(self, data: SparseOnMask):
        self.data = data
        self.mask = data.mask
        self.shape = data.shape

    def _compute_residual(self, point: FactoredMatrix) -> np.ndarray:
        return mask_gather(point.U * point.sigma, point.V, self.mask) - self.data.values

    def _residual(self, X: VarietyPoint) -> np.ndarray:
        point = _point(self, X)
        if self._last[0] is not point:
            self._keep_residual(point, self._compute_residual(point))
        return self._last[1]

    def _keep_residual(self, point: FactoredMatrix, r: np.ndarray) -> None:
        r.flags.writeable = False
        self._last = (point, r)

    def value(self, X: VarietyPoint) -> float:
        r = self._residual(X)
        return 0.5 * float(r @ r)

    def gradient(self, X: VarietyPoint) -> scipy.sparse.csr_matrix:
        # gradient of 0.5*||P(A - X)||^2 is P(X - A), supported on the mask;
        # SparseOnMask validates the residual before its CSR matrix is built
        return SparseOnMask(self.mask, self._residual(X)).csr

    def line(self, xi: ConeTangentVector) -> Line:
        """v = P(xi), gathered from xi's thin factors, gives the curvature
        <xi, Hess f xi> = ||v||^2. A flat xi gets the MaskedLine, whose trial
        values come from v as well, so it gathers v at once; any other Line
        gathers it on the first read of its curvature, if any."""
        if xi.flat:
            return MaskedLine(self, xi, mask_gather(*xi.factors(), self.mask))

        def curvature():
            v = mask_gather(*xi.factors(), self.mask)
            return float(v @ v)

        return Line(self, xi, curvature)


class QuadraticDistance:
    """Half the squared Frobenius distance to a fixed factored target.

    The value is 0.5 * ||X - A||^2 by core.factored_diff_norm, with no QR;
    the gradient is ThinPair(L, R) = X - A, L = [X.U * sigma | -A.U * tau]
    (its target block formed once) and R = [X.V | A.V]. No state is kept
    per point: an instance is safe to share between threads.
    """

    def __init__(self, target: FactoredMatrix):
        self.target = target
        self.shape = target.shape
        self._target_left = -(target.U * target.sigma)

    def value(self, X: VarietyPoint) -> float:
        return 0.5 * factored_diff_norm(self.target, _point(self, X)) ** 2

    def gradient(self, X: VarietyPoint) -> ThinPair:
        point = _point(self, X)
        L = np.hstack([point.U * point.sigma, self._target_left])
        return ThinPair(L, np.hstack([point.V, self.target.V]))

    def line(self, xi: ConeTangentVector) -> Line:
        """The curvature <xi, Hess f xi> = ||xi||^2 alone: the Hessian is the identity."""
        return Line(self, xi, lambda: xi.norm**2)
