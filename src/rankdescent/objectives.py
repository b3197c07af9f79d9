"""Cost functions over variety points: value plus structured ambient gradient.

Gradients come back in structured form (masked values, factored matrices, or
sums of both) so the tangent-cone projection can consume them through thin
factor products alone. MatrixCompletion gathers the residual once per point:
the gradient at the point whose value was taken last reuses its residual.
"""

from __future__ import annotations

import os

import numpy as np

from .core import (
    AmbientSum,
    FactoredMatrix,
    SparseOnMask,
    factored_diff_norm,
    load_factored,
    load_index_set,
    mask_apply,
    mask_gather,
    save_factored,
    save_index_set,
)
from .geometry import ConeTangentVector, VarietyPoint


class Objective:
    """Interface: a differentiable cost bounded below on the ambient space.

    curvature is optional. An objective that defines it as a method
    curvature(X, xi) returning <xi, Hess f(X) xi> for a cone tangent vector
    xi lets the solver start its line search at the exact minimizer of the
    quadratic model along xi; one that leaves it None gets the floor rule
    alone, at no cost per iteration.
    """

    curvature = None

    def value(self, X: VarietyPoint) -> float:
        raise NotImplementedError

    def gradient(self, X: VarietyPoint):
        """Ambient gradient at X in structured form."""
        raise NotImplementedError


class MatrixCompletion(Objective):
    """Half the squared masked residual: 0.5 * sum over the mask of (A - X)^2.

    Only the observed values of A are stored. Entries of X on the mask are
    evaluated from its factors in O(|mask| * rank).

    The residual of the point evaluated last is kept in one slot keyed by
    the identity of X.point. A FactoredMatrix is immutable and the slot holds
    a reference to it, so the key cannot be reused by another point: the
    solver's gradient at the line search's accepted trial, and the first
    gradient after value(X0), cost no gather. The slot makes an instance
    unsafe to share between threads.
    """

    def __init__(self, data: SparseOnMask):
        self.data = data
        self.mask = data.mask
        self.shape = data.shape
        self._last = (None, None)  # (point, read-only residual on the mask)

    def _residual(self, X: VarietyPoint) -> np.ndarray:
        if X.shape != self.shape:
            raise ValueError("dimension mismatch between point and problem")
        point, r = self._last
        if point is not X.point:
            r = mask_apply(X.point, self.mask).values - self.data.values
            r.flags.writeable = False
            self._last = (X.point, r)
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
    """Half the squared Frobenius distance to a fixed factored target."""

    def __init__(self, target: FactoredMatrix):
        self.target = target
        self.shape = target.shape

    def value(self, X: VarietyPoint) -> float:
        if X.shape != self.shape:
            raise ValueError("dimension mismatch between point and target")
        return 0.5 * factored_diff_norm(X.point, self.target) ** 2

    def gradient(self, X: VarietyPoint) -> AmbientSum:
        if X.shape != self.shape:
            raise ValueError("dimension mismatch between point and target")
        return AmbientSum(((1.0, X.point), (-1.0, self.target)))


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
