"""Shared constructors and dense views for the tests: ambient_dense is the
one dense view of every matrix kind of the package."""

from dataclasses import replace

import numpy as np
import scipy.sparse

from rankdescent.core import FactoredMatrix, IndexSet, SparseOnMask, ThinPair, project_out
from rankdescent.geometry import ConeTangentVector, VarietyPoint, project_cone, random_point
from rankdescent.objectives import MatrixCompletion
from rankdescent.bench import TRACE_COLUMNS
from rankdescent.solvers import TraceRecord


def ambient_dense(F) -> np.ndarray:
    """Densify a dense, factored or masked ambient matrix, a scipy sparse
    matrix, a ThinPair, a variety point or a cone tangent vector. A tangent
    vector goes by its blocks, U @ core @ V.T + up @ V.T + U @ vp.T + perp,
    not by factors(), so tests may check factors() against it."""
    if isinstance(F, ThinPair):
        return F.L @ F.R.T
    if scipy.sparse.issparse(F):
        return F.toarray()
    if isinstance(F, VarietyPoint):
        F = F.point
    if isinstance(F, FactoredMatrix):
        return (F.U * F.sigma) @ F.V.T
    if isinstance(F, ConeTangentVector):
        U, V = F.base.point.U, F.base.point.V
        return U @ F.core @ V.T + F.up @ V.T + U @ F.vp.T + ambient_dense(F.perp)
    if isinstance(F, SparseOnMask):
        return F.csr.toarray()
    return np.asarray(F, dtype=float)


def same_index_set(a: IndexSet, b: IndexSet) -> bool:
    """Whether two index sets hold the same dims and the same pairs."""
    return a.dims == b.dims and np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)


def zero_point(m: int, n: int, k: int) -> VarietyPoint:
    """The zero matrix as a point of the rank-at-most-k variety."""
    return VarietyPoint(FactoredMatrix.zero(m, n), k)


def zero_tangent(X: VarietyPoint) -> ConeTangentVector:
    """The zero element of the tangent cone at X."""
    m, n = X.shape
    s = X.s
    return ConeTangentVector(X, np.zeros((s, s)), np.zeros((m, s)), np.zeros((n, s)))


def _count_linalg_calls(monkeypatch, name: str) -> list:
    """Wrap np.linalg.<name> for the test; each call appends its input's
    shape to the returned list."""
    calls = []
    real = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def count_qr_calls(monkeypatch) -> list:
    """The shapes of the np.linalg.qr calls made from here on in the test."""
    return _count_linalg_calls(monkeypatch, "qr")


def count_svd_calls(monkeypatch) -> list:
    """The shapes of the np.linalg.svd calls made from here on in the test."""
    return _count_linalg_calls(monkeypatch, "svd")


def count_residual_gathers(monkeypatch) -> list:
    """The points whose masked residual MatrixCompletion gathers from here on
    in the test, one per _compute_residual call."""
    points = []
    real = MatrixCompletion._compute_residual

    def counted(obj, point):
        points.append(point)
        return real(obj, point)

    monkeypatch.setattr(MatrixCompletion, "_compute_residual", counted)
    return points


def partial_directions(X: VarietyPoint, F, projection: ConeTangentVector | None = None):
    """The two single-sided cone directions for an ambient matrix F.

    G1 keeps the vp block and drops up (column space of X + alpha*G1 stays in
    span(U) plus the perp factor); G2 keeps up and drops vp. Both contain the
    shared core and perp parts and keep X + alpha * Gi inside the variety for
    every alpha >= 0. geometry.choose_flat_direction returns the larger one.
    """
    if projection is None:
        projection, _ = project_cone(X, F)
    g1 = replace(projection, up=np.zeros_like(projection.up))
    g2 = replace(projection, vp=np.zeros_like(projection.vp))
    return g1, g2


def random_cone_vector(rng, X: VarietyPoint, perp_rank=None) -> ConeTangentVector:
    """Random element of the tangent cone at X with a rank-(k-s) perp part."""
    m, n = X.shape
    s = X.s
    U, V = X.point.U, X.point.V
    core = rng.standard_normal((s, s))
    up = rng.standard_normal((m, s))
    vp = rng.standard_normal((n, s))
    up = project_out(up, U)
    vp = project_out(vp, V)
    p = X.k - s if perp_rank is None else perp_rank
    perp = None
    if p > 0:
        perp = random_perp(rng, X, p)
    return ConeTangentVector(X, core, up, vp, perp)


def random_perp(rng, X: VarietyPoint, p: int) -> FactoredMatrix:
    """Random rank-p factored matrix orthogonal to X's column and row spaces."""
    m, n = X.shape
    U, V = X.point.U, X.point.V
    wl = rng.standard_normal((m, p))
    wr = rng.standard_normal((n, p))
    wl, _ = np.linalg.qr(project_out(wl, U))
    wr, _ = np.linalg.qr(project_out(wr, V))
    sig = np.sort(rng.uniform(0.2, 1.5, size=p))[::-1]
    return FactoredMatrix(wl, sig, wr)


def random_instance(rng, max_m=8, max_n=6, s=None):
    """Random (X, F) pair: a variety point and a dense ambient matrix."""
    m = int(rng.integers(2, max_m + 1))
    n = int(rng.integers(2, max_n + 1))
    k = int(rng.integers(1, min(m, n) + 1))
    if s is None:
        s = int(rng.integers(0, k + 1))
    else:
        s = min(s, k)
    X = random_point(rng, m, n, s, k)
    F = rng.standard_normal((m, n))
    return X, F


def read_trace_csv(path) -> list[TraceRecord]:
    """Parse a trace written by bench.write_trace_csv."""

    def opt(x):
        return None if x == "" else float(x)

    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_COLUMNS:
            raise ValueError("unexpected trace header")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            records.append(
                TraceRecord(
                    n=int(parts[0]),
                    f=float(parts[1]),
                    g_minus=float(parts[2]),
                    alpha=float(parts[3]),
                    backtracks=int(parts[4]),
                    rank=int(parts[5]),
                    sigma1=float(parts[6]),
                    sigmak=float(parts[7]),
                    displacement=float(parts[8]),
                    rel_err_full=opt(parts[9]),
                    rel_err_mask=opt(parts[10]),
                    wall_ms=float(parts[11]),
                )
            )
    return records


class CurveLine:
    """A line for linesearch.armijo along curve(alpha) -> (point, distance).

    Without a model, value(alpha) runs the curve and returns f at its point,
    as objectives.Line retracts each trial. With a model, value(alpha) is
    model(alpha) and the curve runs only in step(), as in
    objectives.MaskedLine. step() returns the pair of the trial valued last;
    stepped and points record the alpha and the point of each step.
    """

    def __init__(self, f, curve, model=None):
        self.f, self.curve, self.model = f, curve, model
        self.stepped, self.points = [], []

    def value(self, alpha):
        self.alpha = alpha
        if self.model is not None:
            return self.model(alpha)
        self.pair = self.curve(alpha)
        return self.f(self.pair[0])

    def step(self):
        pair = self.curve(self.alpha) if self.model is not None else self.pair
        self.stepped.append(self.alpha)
        self.points.append(pair[0])
        return pair
