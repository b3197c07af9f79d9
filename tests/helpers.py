"""Shared constructors and dense views for the tests."""

import numpy as np

from rankdescent.core import FactoredMatrix, SparseOnMask
from rankdescent.geometry import ConeTangentVector, VarietyPoint, random_point
from rankdescent.solvers import TRACE_COLUMNS, TraceRecord


def ambient_dense(F) -> np.ndarray:
    """Densify a dense, factored or masked ambient matrix."""
    if isinstance(F, (FactoredMatrix, SparseOnMask)):
        return F.dense()
    return np.asarray(F, dtype=float)


def zero_tangent(X: VarietyPoint) -> ConeTangentVector:
    """The zero element of the tangent cone at X."""
    m, n = X.shape
    s = X.s
    return ConeTangentVector(X, np.zeros((s, s)), np.zeros((m, s)), np.zeros((n, s)))


def random_cone_vector(rng, X: VarietyPoint, perp_rank=None) -> ConeTangentVector:
    """Random element of the tangent cone at X with a rank-(k-s) perp part."""
    m, n = X.shape
    s = X.s
    U, V = X.point.U, X.point.V
    core = rng.standard_normal((s, s))
    up = rng.standard_normal((m, s))
    vp = rng.standard_normal((n, s))
    if s:
        up -= U @ (U.T @ up)
        vp -= V @ (V.T @ vp)
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
    if X.s:
        wl -= U @ (U.T @ wl)
        wr -= V @ (V.T @ wr)
    wl, _ = np.linalg.qr(wl)
    wr, _ = np.linalg.qr(wr)
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
    """Parse a trace written by solvers.write_trace_csv."""

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
                    displacement=opt(parts[8]),
                    rel_err_full=opt(parts[9]),
                    rel_err_mask=opt(parts[10]),
                    wall_ms=float(parts[11]),
                )
            )
    return records
