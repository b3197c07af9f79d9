"""Cost functions over variety points: value, structured gradient, curvature.

Each objective returns its gradient in one form the tangent-cone projection
consumes through thin factor products alone: MatrixCompletion as values on
the mask, QuadraticDistance as one factored matrix. Both compute the residual
once per point: the gradient at the point whose value was taken last reuses
its residual.
"""

from __future__ import annotations

import os

import numpy as np

from .core import (
    FactoredMatrix,
    SparseOnMask,
    frob_norm,
    load_factored,
    load_index_set,
    mask_apply,
    mask_gather,
    save_factored,
    save_index_set,
    truncate,
)
from .geometry import ConeTangentVector, VarietyPoint


class Objective:
    """Interface: a differentiable cost bounded below on the ambient space.

    value, gradient and curvature are required. curvature(X, xi) returns
    <xi, Hess f(X) xi> for a cone tangent vector xi; the solver starts its
    line search at the exact minimizer of the quadratic model along xi.

    Subclasses that define shape and _compute_residual(point) get _residual,
    which keeps the residual of the point evaluated last in one slot keyed by
    the identity of X.point. A FactoredMatrix is immutable and the slot holds
    a reference to it, so the key cannot be reused by another point: the
    solver's gradient at the line search's accepted trial, and the first
    gradient after value(X0), cost no residual. The slot makes an instance
    unsafe to share between threads.
    """

    _last = (None, None)  # (point, residual)

    def value(self, X: VarietyPoint) -> float:
        raise NotImplementedError

    def gradient(self, X: VarietyPoint):
        """Ambient gradient at X in structured form."""
        raise NotImplementedError

    def curvature(self, X: VarietyPoint, xi: ConeTangentVector) -> float:
        """<xi, Hess f(X) xi> along a cone tangent vector at X."""
        raise NotImplementedError

    def _residual(self, X: VarietyPoint):
        if X.shape != self.shape:
            raise ValueError("dimension mismatch between point and problem")
        point, r = self._last
        if point is not X.point:
            r = self._compute_residual(X.point)
            self._last = (X.point, r)
        return r


class MatrixCompletion(Objective):
    """Half the squared masked residual: 0.5 * sum over the mask of (A - X)^2.

    Only the observed values of A are stored. Entries of X on the mask are
    evaluated from its factors in O(|mask| * rank).
    """

    def __init__(self, data: SparseOnMask):
        self.data = data
        self.mask = data.mask
        self.shape = data.shape

    def _compute_residual(self, point: FactoredMatrix) -> np.ndarray:
        r = mask_apply(point, self.mask).values - self.data.values
        r.flags.writeable = False
        return r

    def value(self, X: VarietyPoint) -> float:
        r = self._residual(X)
        return 0.5 * float(r @ r)

    def gradient(self, X: VarietyPoint) -> SparseOnMask:
        # gradient of 0.5*||P(A - X)||^2 is P(X - A), supported on the mask
        return SparseOnMask(self.mask, self._residual(X))

    def curvature(self, X: VarietyPoint, xi: ConeTangentVector) -> float:
        """<xi, Hess f xi> = ||P(xi)||^2, gathered from xi's thin factors."""
        if X.shape != self.shape:
            raise ValueError("dimension mismatch between point and problem")
        v = mask_gather(*xi.factors(), self.mask)
        return float(v @ v)


class QuadraticDistance(Objective):
    """Half the squared Frobenius distance to a fixed factored target.

    The residual X - A is one FactoredMatrix, core.truncate of the thin pair
    ([X.U * sigma | -A.U * tau], [X.V | A.V]) at full rank: the value is
    0.5 * ||sigma_res||^2 and the gradient is the residual itself. A point
    whose factors equal the target's bitwise has the exact zero residual,
    which the QRs of the pair would only give to roundoff.
    """

    def __init__(self, target: FactoredMatrix):
        self.target = target
        self.shape = target.shape

    def _compute_residual(self, point: FactoredMatrix) -> FactoredMatrix:
        T = self.target
        pairs = ((point.sigma, T.sigma), (point.U, T.U), (point.V, T.V))
        if all(np.array_equal(a, b) for a, b in pairs):
            return FactoredMatrix.zero(*self.shape)
        L = np.hstack([point.U * point.sigma, -(T.U * T.sigma)])
        R = np.hstack([point.V, T.V])
        return truncate((L, R), min(self.shape))

    def value(self, X: VarietyPoint) -> float:
        return 0.5 * frob_norm(self._residual(X)) ** 2

    def gradient(self, X: VarietyPoint) -> FactoredMatrix:
        return self._residual(X)

    def curvature(self, X: VarietyPoint, xi: ConeTangentVector) -> float:
        """<xi, Hess f xi> = ||xi||^2: the Hessian is the identity."""
        return xi.norm() ** 2


# ---------------------------------------------------------------------------
# Serialization: a completion problem is a directory with a dims header, the
# mask as two-column integer CSV, the observed values as one-column CSV, and
# (when available) the target's factors for full-error evaluation.
# ---------------------------------------------------------------------------


def save_completion(dirpath, problem: MatrixCompletion, target: FactoredMatrix | None = None) -> None:
    os.makedirs(dirpath, exist_ok=True)
    m, n = problem.shape
    with open(os.path.join(dirpath, "dims.txt"), "w") as fh:
        fh.write(f"m = {m}\nn = {n}\n")
    save_index_set(os.path.join(dirpath, "mask.csv"), problem.mask)
    np.savetxt(os.path.join(dirpath, "values.csv"), problem.data.values, delimiter=",", fmt="%.17g")
    if target is not None:
        save_factored(os.path.join(dirpath, "target_factors"), target)


def load_completion(dirpath):
    """Returns (MatrixCompletion, target FactoredMatrix or None)."""
    dims = {}
    with open(os.path.join(dirpath, "dims.txt")) as fh:
        for line in fh:
            key, _, val = line.partition("=")
            dims[key.strip()] = int(val)
    shape = (dims["m"], dims["n"])
    mask = load_index_set(os.path.join(dirpath, "mask.csv"), shape)
    values = np.loadtxt(os.path.join(dirpath, "values.csv"), delimiter=",").ravel()
    problem = MatrixCompletion(SparseOnMask(mask, values))
    target_dir = os.path.join(dirpath, "target_factors")
    target = load_factored(target_dir) if os.path.isdir(target_dir) else None
    return problem, target
