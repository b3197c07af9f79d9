"""Cost functions over variety points: value, structured gradient, line.

Each objective returns its gradient as a matrix operand with shape, T and @,
which the tangent-cone projection consumes through thin factor products
alone: MatrixCompletion as the CSR matrix of its residual on the mask,
QuadraticDistance as the ThinPair of its joint factors, with no QR or SVD.
Both compute the residual once per point: the gradient at the point whose
value was taken last reuses its residual. line(xi) is the objective along
the curve alpha -> retract(xi, alpha) from the base point X of xi, the only
thing the line search sees: its curvature, computed on its first read, sets
the initial step when the solver asks for it, value(alpha) is f at a trial
point, and step() returns the point valued last with its distance from X. A
Line retracts each trial and evaluates it; on a completion problem it
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

    def __init__(self, obj: "Objective", xi: ConeTangentVector, curvature):
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
    step() retracts once and seeds the objective's residual slot with
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


class Objective:
    """Interface: a differentiable cost bounded below on the ambient space.

    value, gradient and line are required. line(xi) returns the Line along
    which the search backtracks from X = xi.base, for a cone tangent vector
    xi at X: its curvature <xi, Hess f(X) xi>, read on the solver's even
    iterations (solvers.solve), sets the exact-minimizer start of the
    search, and its values are the search's trial costs.

    Subclasses that define shape and _compute_residual(point) get _residual,
    which keeps the residual of the point evaluated last in one slot keyed by
    the identity of X.point. A FactoredMatrix is immutable and the slot holds
    a reference to it, so the key cannot be reused by another point: the
    solver's gradient at the line search's accepted point, and the first
    gradient after value(X0), cost no residual. The slot makes an instance
    unsafe to share between threads.
    """

    _last = (None, None)  # (point, residual)

    def value(self, X: VarietyPoint) -> float:
        raise NotImplementedError

    def gradient(self, X: VarietyPoint):
        """Ambient gradient at X in structured form."""
        raise NotImplementedError

    def line(self, xi: ConeTangentVector) -> Line:
        """The objective along retract(xi, alpha), for a cone tangent vector xi."""
        raise NotImplementedError

    def _residual(self, X: VarietyPoint):
        if X.shape != self.shape:
            raise ValueError("dimension mismatch between point and problem")
        point, r = self._last
        if point is not X.point:
            r = self._compute_residual(X.point)
            self._keep_residual(X.point, r)
        return r

    def _keep_residual(self, point: FactoredMatrix, r) -> None:
        """File r as the residual of point in the slot, its arrays made
        read-only: r itself, or the factors of a (ThinPair, distance) residual."""
        for a in (r[0].L, r[0].R) if isinstance(r, tuple) else (r,):
            a.flags.writeable = False
        self._last = (point, r)


class MatrixCompletion(Objective):
    """Half the squared masked residual: 0.5 * sum over the mask of (A - X)^2.

    Only the observed values of A are stored. Entries of X on the mask (the
    residual, unless a MaskedLine seeded it) and of a direction xi on it (the
    line's v) are gathered from thin factors by core.mask_gather: row-wise
    dot products in O(|mask| * width) below its density crossover, one BLAS
    GEMM and one take per block of rows, O(m * n * width), from it on.
    """

    def __init__(self, data: SparseOnMask):
        self.data = data
        self.mask = data.mask
        self.shape = data.shape

    def _compute_residual(self, point: FactoredMatrix) -> np.ndarray:
        return mask_gather(point.U * point.sigma, point.V, self.mask) - self.data.values

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


class QuadraticDistance(Objective):
    """Half the squared Frobenius distance to a fixed factored target.

    The residual is the pair (ThinPair(L, R), d): L = [X.U * sigma |
    -A.U * tau], R = [X.V | A.V] with L @ R.T = X - A, and d = ||X - A||
    from core.factored_diff_norm, with no QR. The value is 0.5 * d^2 and
    the gradient is the ThinPair, which the cone projection takes through
    thin products. A point whose factors equal the target's bitwise has the
    exact zero residual, a zero-width pair with d = 0.
    """

    def __init__(self, target: FactoredMatrix):
        self.target = target
        self.shape = target.shape

    def _compute_residual(self, point: FactoredMatrix):
        T = self.target
        pairs = ((point.sigma, T.sigma), (point.U, T.U), (point.V, T.V))
        if all(np.array_equal(a, b) for a, b in pairs):
            return ThinPair(np.zeros((self.shape[0], 0)), np.zeros((self.shape[1], 0))), 0.0
        L = np.hstack([point.U * point.sigma, -(T.U * T.sigma)])
        R = np.hstack([point.V, T.V])
        return ThinPair(L, R), factored_diff_norm(T, point)

    def value(self, X: VarietyPoint) -> float:
        return 0.5 * self._residual(X)[1] ** 2

    def gradient(self, X: VarietyPoint) -> ThinPair:
        return self._residual(X)[0]

    def line(self, xi: ConeTangentVector) -> Line:
        """The curvature <xi, Hess f xi> = ||xi||^2 alone: the Hessian is the identity."""
        return Line(self, xi, lambda: xi.norm() ** 2)
