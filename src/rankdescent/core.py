"""Matrix primitives shared by the whole stack.

Conventions: dense matrices are 2-D float64 numpy arrays (row-major). A
FactoredMatrix stores an economy SVD triple (U, sigma, V) with
column-orthonormal U and V, so the represented matrix is
``U @ diag(sigma) @ V.T``. Matrices supported on a sampling set are kept as a
SparseOnMask (index set plus one value per index); they are never scattered
into dense form inside performance-relevant code paths. An IndexSet is
row-major sorted, so it carries the CSR pattern (column indices and row
pointers) of every matrix on it; a SparseOnMask's CSR matrix only adds its
values. Entries of a thin product L @ R.T on a mask come from mask_gather,
whose two paths split at the sampling density GATHER_BLAS_DENSITY: below
it, a row-wise dot product per entry, O(|mask| * width); at or above it, one
BLAS GEMM per block of consecutive rows, O(m * n * width), and one take of
the block's entries. Both bound their temporaries by GATHER_BYTES per lane.

Two kernels split across lanes, the calling thread plus one worker thread
per further CPU (run_lanes; its pool is made at import and again in a
forked child): the GEMM path of mask_gather, whose lanes take row blocks
from one shared queue, each with its own buffer, and the gradient's two
thin products in geometry.project_tangent_space. They are what an
iteration spends most of its time on, and their BLAS and sparsetools calls
release the GIL. run_lanes hands every task but the first to the workers,
runs the first on the caller and waits for the rest. Each entry still
comes from the same single-threaded call as on one lane, so outputs are
bitwise the same at any lane count. Work below PARALLEL_MIN_WORK
multiply-adds, where a hand-off costs more than it saves, stays on the
caller. QRs and SVDs stay on one lane: two 2000-by-20 QRs at once took
nearly as long as in turn.

A gradient is a matrix operand with shape, T and @, of one of three kinds:
the CSR matrix of a residual on the mask for completion, a ThinPair (L, R)
standing for L @ R.T for the quadratic distance, a dense array in tests.
truncate is the one truncated-SVD primitive for all of them, with optional
bases projected out of both sides; it densifies no structured kind below
full rank (a sparse matrix goes through ARPACK via scipy.sparse.linalg.svds,
a pair through thin QRs), and a dense A of low rank takes the SVD of a small
sketch of its range. There is no SVD helper: every dense SVD is
np.linalg.svd(..., full_matrices=False), its Vt read as numpy returns it.

All containers, a ThinPair included, check their invariants at construction
and are immutable values after it; operations are pure, and none reads or
writes a file (bench owns every file format). The factors of a returned
factorization hold its own rank's columns, never views into a wider
decomposition, so a rank-r point costs O((m + n) r).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse

# Tolerance for orthonormality of stored factors.
ORTHO_TOL = 1e-12
# Relative tolerance for numerical rank decisions.
RANK_TOL = 1e-14
# Extra columns of truncate's dense range sketch: rank-r residuals <= 1.9e-15 relative; 1.8e-13 with none.
RANGE_OVERSAMPLE = 5


def _as_dense(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def _as_indices(a) -> np.ndarray:
    """a as a flat int64 array. Integer arrays pass; a float array passes
    only if every entry is a whole number (an empty list comes as float64).
    A boolean array, or any other dtype, raises ValueError."""
    a = np.asarray(a).ravel()
    if a.dtype.kind == "f":
        if not (np.isfinite(a).all() and (a == np.trunc(a)).all()):
            raise ValueError("indices must be whole numbers")
    elif a.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


class IndexSet:
    """Sampling set of distinct (i, j) coordinates in an m-by-n grid.

    Pairs are 0-based and kept in canonical row-major order: one stable
    argsort of the key rows * n + cols puts them there. Timsort finds a key
    that is already sorted as one run, so the sort is linear on the
    row-major order in which bench.gen_problem and bench.load_index_set
    pass their pairs, and such input comes back as given. The sorted key
    also finds duplicates, which sit side by side in it.
    """

    def __init__(self, dims, rows, cols):
        m, n = int(dims[0]), int(dims[1])
        if m <= 0 or n <= 0:
            raise ValueError("dims must be positive")
        rows, cols = _as_indices(rows), _as_indices(cols)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n:
                raise ValueError("index out of bounds")
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate index pairs")
        self.dims = (m, n)
        self.rows = rows[order]
        self.cols = cols[order]

    @cached_property
    def csr_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, indptr) of the CSR pattern, built on first use.

        The pairs are row-major sorted, so the column indices are cols and
        the row pointers count the pairs per row. Both come in the index
        dtype scipy keeps (int32 whenever it fits), which spares every CSR
        view a downcast copy.
        """
        m, n = self.dims
        idx = np.int32 if max(m, n, len(self)) <= np.iinfo(np.int32).max else np.int64
        indptr = np.concatenate(([0], np.cumsum(np.bincount(self.rows, minlength=m))))
        return self.cols.astype(idx), indptr.astype(idx)

    @cached_property
    def row_blocks(self) -> tuple[list, np.ndarray]:
        """(bounds, offsets) of mask_gather's row blocks, built on first use.

        The rows are cut into runs of GATHER_BYTES // (8 n) (at least one),
        at the CSR row pointers. bounds holds (i0, i1, p0, p1) for each run
        with entries: its entries p0:p1 lie in rows i0:i1, from the first
        entry's row to the last one's. offsets[p] = (rows[p] - i0) * n +
        cols[p] is entry p's position in the flat (i1 - i0)-by-n block.
        """
        m, n = self.dims
        indptr = self.csr_pattern[1]
        step = max(1, GATHER_BYTES // (8 * n))
        bounds = []
        offsets = np.empty(len(self), dtype=np.intp)
        for start in range(0, m, step):
            p0, p1 = int(indptr[start]), int(indptr[min(m, start + step)])
            if p0 == p1:
                continue
            i0 = int(self.rows[p0])
            offsets[p0:p1] = (self.rows[p0:p1] - i0) * n + self.cols[p0:p1]
            bounds.append((i0, int(self.rows[p1 - 1]) + 1, p0, p1))
        return bounds, offsets

    def __len__(self) -> int:
        return self.rows.size

    def __repr__(self) -> str:
        return f"IndexSet(dims={self.dims}, size={len(self)})"


class SparseOnMask:
    """Matrix supported on an IndexSet: one finite value per mask entry."""

    def __init__(self, mask: IndexSet, values):
        values = np.asarray(values, dtype=float).ravel()
        if values.size != len(mask):
            raise ValueError("values not aligned with mask")
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("non-finite values")
        self.mask = mask
        self.values = values
        self._csr = None

    @property
    def shape(self):
        return self.mask.dims

    @property
    def csr(self) -> scipy.sparse.csr_matrix:
        """The CSR matrix of the values: the operand that objectives pass
        as a masked gradient and that truncate takes for a masked matrix.

        Built from the mask's fixed pattern on first use, so only the values
        are new.
        """
        if self._csr is None:
            indices, indptr = self.mask.csr_pattern
            self._csr = scipy.sparse.csr_matrix(
                (self.values, indices, indptr), shape=self.mask.dims
            )
        return self._csr

    def __repr__(self) -> str:
        return f"SparseOnMask(shape={self.shape}, nnz={len(self.mask)})"


@dataclass(frozen=True, eq=False)
class FactoredMatrix:
    """Rank-r matrix stored as an SVD triple U @ diag(sigma) @ V.T.

    U (m, r) and V (n, r) are finite and column-orthonormal to ORTHO_TOL;
    sigma is finite, nonnegative and sorted descending. r = 0 represents the
    zero matrix.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        U = _as_dense(self.U)
        V = _as_dense(self.V)
        sigma = np.asarray(self.sigma, dtype=float).ravel()
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "V", V)
        r = sigma.size
        if U.shape[1] != r or V.shape[1] != r:
            raise ValueError("factor widths do not match sigma")
        if r:
            if not np.isfinite(sigma).all() or sigma[-1] < 0:
                raise ValueError("sigma must be finite and nonnegative")
            if (sigma[1:] > sigma[:-1]).any():
                raise ValueError("sigma must be sorted descending")
        eye = np.eye(r)
        for W, name in ((U, "U"), (V, "V")):
            # checked first: a Gram product of inf warns, and NaN compares False
            if not np.isfinite(W).all():
                raise ValueError(f"{name} has non-finite entries")
            if not np.abs(W.T @ W - eye).max(initial=0.0) <= ORTHO_TOL:
                raise ValueError(f"{name} is not column-orthonormal to {ORTHO_TOL}")

    @property
    def shape(self):
        return (self.U.shape[0], self.V.shape[0])

    @property
    def rank(self) -> int:
        return self.sigma.size

    @classmethod
    @cache
    def zero(cls, m: int, n: int) -> "FactoredMatrix":
        """The m-by-n zero matrix, one shared instance per shape: its arrays are empty."""
        return cls(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))

    def __repr__(self) -> str:
        return f"FactoredMatrix(shape={self.shape}, rank={self.rank})"


@dataclass(frozen=True, eq=False)
class ThinPair:
    """The m-by-n matrix L @ R.T of two finite 2-D float factors of equal
    width, as an operand: F @ W is L @ (R.T @ W), and F.T is the pair (R, L)."""

    L: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        L, R = _as_dense(self.L), _as_dense(self.R)
        if L.shape[1] != R.shape[1]:
            raise ValueError("thin factors differ in width")
        if not (np.isfinite(L).all() and np.isfinite(R).all()):
            raise ValueError("non-finite entries in input matrix")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "R", R)

    @property
    def shape(self):
        return (self.L.shape[0], self.R.shape[0])

    @property
    def T(self) -> "ThinPair":
        return ThinPair(self.R, self.L)

    def __matmul__(self, W) -> np.ndarray:
        return self.L @ (self.R.T @ W)


def truncate(A, r: int, U=None, V=None) -> FactoredMatrix:
    """Best Frobenius-norm approximation of rank at most r of
    (I - U U.T) A (I - V V.T).

    U and V are optional column-orthonormal bases projected out of the column
    and row spaces (None projects nothing). A is dense, a scipy sparse
    matrix, or a ThinPair, and no structured kind is densified below
    r = min(m, n):

    - dense: non-finite entries raise ValueError. Below r = min(m, n) -
      RANGE_OVERSAMPLE, Q spans a fixed-seed sketch of the projected A's range;
      if ||A - Q Q.T A|| <= RANK_TOL ||A|| the SVD of the small Q.T A gives
      the result, else LAPACK's SVD of A does; ties keep that SVD's order.
      The check runs in one m-by-n work buffer, released before either SVD:
      fresh MB-sized temporaries page-fault on first touch once glibc has
      trimmed its heap, which made quadratic set-up times bimodal;
    - ThinPair: the projected L and R go through compact QRs and an SVD of
      the small R_L @ R_R.T, exact in O((m+n) width^2);
    - sparse: ARPACK via scipy.sparse.linalg.svds (_masked_truncate), whose
      products go through A itself; at r = min(m, n) the result is as large
      as A, and A is densified.

    A pair gives at most min(r, width) triples, a sparse A min(r, d) with d
    the smaller of the two complements' dimensions (none when the projected
    A is zero), a dense one r; trailing singular values may be zero. The
    result holds arrays of its own r columns: the dense path copies the
    kept columns of the decomposition, which is freed on return.
    """
    if not (isinstance(A, ThinPair) or scipy.sparse.issparse(A)):
        A = _as_dense(A)
    if not 0 <= r <= min(A.shape):
        raise ValueError(f"rank {r} out of range for shape {A.shape}")
    if isinstance(A, ThinPair):
        QL, RL = np.linalg.qr(project_out(A.L, U))
        QR, RR = np.linalg.qr(project_out(A.R, V))
        Ub, sb, Vbt = np.linalg.svd(RL @ RR.T, full_matrices=False)
        q = min(r, sb.size)
        return FactoredMatrix(QL @ Ub[:, :q], sb[:q], QR @ Vbt[:q].T)
    if scipy.sparse.issparse(A):
        return _masked_truncate(A, r, U, V)
    if not np.isfinite(A).all():
        raise ValueError("non-finite entries in input matrix")
    A = project_out(A, U)
    if _width(V):
        A = A - (A @ V) @ V.T
    if r + RANGE_OVERSAMPLE < min(A.shape):  # checked range sketch (Halko et al. 2011, sec. 4.3)
        Q = np.linalg.qr(A @ np.random.default_rng(0).standard_normal((A.shape[1], r + RANGE_OVERSAMPLE)))[0]
        B = Q.T @ A
        c = max(A.max(), -A.min()) or 1.0  # max|A| keeps the squares in both norms from overflow and underflow
        W = Q @ B  # the check's one m x n work buffer: (A - Q B) / c, then A / c
        np.subtract(A, W, out=W)
        W /= c
        fits = _norm(W) <= RANK_TOL * _norm(np.divide(A, c, out=W))
        del W  # not held through either SVD
        if fits:
            Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
            return FactoredMatrix(Q @ Ub[:, :r], np.copy(s[:r]), np.copy(Vt[:r].T))
    Uf, s, Vt = np.linalg.svd(A, full_matrices=False)
    # np.copy's order 'K' keeps U C-ordered and V in the F order of Vt.T
    return FactoredMatrix(np.copy(Uf[:, :r]), np.copy(s[:r]), np.copy(Vt[:r].T))


def _width(B) -> int:
    return 0 if B is None else B.shape[1]


def project_out(W: np.ndarray, B) -> np.ndarray:
    """(I - B B.T) W for an orthonormal basis B (None or empty: W itself)."""
    return W - B @ (B.T @ W) if _width(B) else W


def _masked_truncate(A, r: int, U, V) -> FactoredMatrix:
    """Best rank-r approximation of B = (I - U U.T) A (I - V V.T), A sparse.

    ARPACK's implicitly restarted Lanczos through scipy.sparse.linalg.svds
    (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998), on an
    operator whose products go through A and thin products with U and V.
    The start vector comes from a fixed seed, so the result is a function
    of the input. ARPACK needs r < min(m, n); at r = min(m, n) the output is
    as large as A, so A is densified by A.toarray(). ARPACK fails on a zero
    operator, and B maps the random start vector to zero only if B = 0
    (almost surely). The transposed view A.T (a CSC matrix on the same
    arrays, for a CSR A) is taken once per call, not once per product with
    B.T.
    scipy.sparse.linalg is imported here, so that callers which never
    truncate a sparse matrix do not load it.
    """
    m, n = A.shape
    r = min(r, m - _width(U), n - _width(V))  # bound on rank(B)
    if r == min(m, n):
        return truncate(A.toarray(), r, U, V)
    A_t = A.T

    def mv(x):  # B @ x
        return project_out(A @ project_out(x, V), U)

    def rmv(y):  # B.T @ y
        return project_out(A_t @ project_out(y, U), V)

    v0 = np.random.default_rng(0).standard_normal(min(m, n))  # svds starts on the smaller side
    if r == 0 or not np.any(mv(v0) if m >= n else rmv(v0)):
        return FactoredMatrix.zero(m, n)
    from scipy.sparse.linalg import LinearOperator, svds

    B = LinearOperator((m, n), matvec=mv, rmatvec=rmv, matmat=mv, rmatmat=rmv, dtype=float)
    Ub, s, Vbt = svds(B, k=r, solver="arpack", tol=0, v0=v0)
    return FactoredMatrix(Ub[:, ::-1], s[::-1], Vbt[::-1].T)


def numerical_rank(sigma) -> int:
    """Count of singular values above RANK_TOL times the largest one."""
    sigma = np.asarray(sigma, dtype=float).ravel()
    if sigma.size == 0 or sigma[0] <= 0:
        return 0
    return int(np.count_nonzero(sigma > RANK_TOL * sigma[0]))


def orthonormal_polish(W: np.ndarray) -> np.ndarray:
    """One Newton step toward orthonormal columns: W (3I - W'W) / 2.

    For W already orthonormal to eps the drift is squared, which keeps long
    products of orthonormal factors within ORTHO_TOL indefinitely.
    """
    gram = W.T @ W
    return W @ (1.5 * np.eye(W.shape[1]) - 0.5 * gram)


def frob_norm(A) -> float:
    """Frobenius norm of a dense matrix, of a sparse one (from its stored
    entries, one per position as on a mask) or of a ThinPair, a pair's as
    ||L @ R_R.T|| after one compact QR R = Q @ R_R (Q has orthonormal
    columns), not by the Gram identity; a pair's factors are finite by
    construction."""
    if isinstance(A, ThinPair):
        return _norm(A.L @ np.linalg.qr(A.R, mode="r").T)
    if scipy.sparse.issparse(A):
        return _norm(A.data)
    return _norm(_as_dense(A))


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a float array by its own steps (ravel in memory order, dot, root),
    so bitwise equal, without its argument handling, which doubles the cost of a 300-by-8 norm."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def factored_diff_norm(A: FactoredMatrix, B: FactoredMatrix) -> float:
    """||A - B||_F for two factored matrices, with no subtraction of squared norms.

    A's factors are column-orthonormal (FactoredMatrix's invariant), so each
    of B's factors splits into its part in A's span and a remainder:
    B.U = A.U @ C_U + W_U with C_U = A.U.T @ B.U. One projection leaves W_U
    orthogonal to A.U only to the roundoff of C_U, so it is projected a
    second time and the correction added to C_U ("twice is enough", Kahan
    and Parlett). Over A's bases A - B splits into three mutually orthogonal
    blocks, P_U (A - B) P_V, P_U (A - B) (I - P_V) and (I - P_U) (A - B),
    with P_U = A.U @ A.U.T and P_V = A.V @ A.V.T. Their norms are those of
    the small diag(A.sigma) - C_U @ diag(B.sigma) @ C_V.T, of the thin
    W_V @ (C_U * B.sigma).T and of W_U * B.sigma, since A.U and B.V have
    orthonormal columns. No factor is orthogonalized. It is accurate to
    roundoff in the norm itself, unlike the Gram identity, which loses half
    the digits once the difference is small.
    """
    if A.shape != B.shape:
        raise ValueError("shape mismatch between factored matrices")
    return _diff_norm(A.U, A.sigma, A.V, B)


def _diff_norm(U: np.ndarray, sigma: np.ndarray, V: np.ndarray, B: FactoredMatrix) -> float:
    """factored_diff_norm(A, B) on A's raw, already validated triple (U, sigma, V)."""
    C, W = [], []
    for QA, QB in ((U, B.U), (V, B.V)):
        c = QA.T @ QB
        w = QB - QA @ c
        d = QA.T @ w
        w -= QA @ d
        C.append(c + d)
        W.append(w)
    CS = C[0] * B.sigma
    M = np.diag(sigma) - CS @ C[1].T
    blocks = (M, W[1] @ CS.T, W[0] * B.sigma)
    return _norm(np.array([_norm(b) for b in blocks]))


# Bytes of mask_gather's temporaries: the flat block of each GEMM (rows of
# n entries) and the two (chunk, width) gathers of the row-wise path. Swept
# from 128 KiB to 4 MiB at n = 2000 (widths 8 to 40, and 160 for the GEMM),
# 512 KiB came within 20% of the best budget on both paths at every width,
# and it fits the measured host's 2 MiB L2.
GATHER_BYTES = 1 << 19
# Sampling density |mask| / (m n) from which mask_gather takes the GEMM path.
# The GEMM does m n width flops at BLAS speed, the row-wise path |mask| width
# at gather speed, so both grow with width and their ratio is set by density.
# ms per call, row-wise / GEMM, square n = 2000, one OpenBLAS thread on a
# shared 2-core Xeon, best of 14:
#   density   width 8       width 20      width 40
#   0.5%      0.59 / 2.87   1.01 / 6.23   1.39 / 8.87
#   2%        1.59 / 2.14   2.85 / 4.89   4.32 / 8.02
#   3%        2.46 / 2.13   3.77 / 5.00   5.87 / 8.41
#   4%        3.12 / 2.32   7.62 / 6.54   9.35 / 8.35
#   6%        4.99 / 2.49   9.13 / 5.52   13.7 / 8.86
#   16%       18.8 / 4.23   22.8 / 6.28   33.8 / 9.28
# The paths tie between 3% and 4% at n = 300 and n = 1000 as well. Every
# preset samples more (6% to 23%), the n log n floor at n = 2000 less (0.4%).
GATHER_BLAS_DENSITY = 0.035
# Multiply-adds of work (m n width for a GEMM-path gather, 2 nnz s for the
# CSR products of project_tangent_space) from which run_lanes splits a
# kernel across lanes. Handing a task to a worker costs about 0.05 ms. ms per
# call, one lane / two lanes, one OpenBLAS thread each, on a shared 2-core
# Xeon, best of 5 to 400:
#   gather n, width    work     ms          pair n, |mask|, s     work     ms
#   300, 16            1.4 Mi   0.15 / 0.18  300, 14208, 8        0.2 Mi   0.19 / 0.23
#   300, 40            3.4 Mi   0.23 / 0.22  500, 29700, 20       1.1 Mi   0.56 / 0.55
#   500, 16            3.8 Mi   0.37 / 0.33  1000, 118800, 20     4.5 Mi   1.97 / 1.29
#   1000, 4            3.8 Mi   0.50 / 0.35  2000, 119700, 20     4.6 Mi   2.33 / 1.68
#   2000, 20           76 Mi    5.12 / 3.92  2000, 238800, 20     9.1 Mi   4.36 / 2.74
#   2000, 40           153 Mi   11.5 / 5.81
# Below about 2 Mi two lanes lose. The n = 300 presets stay below 4 Mi
# (gathers of width up to 2k = 16, pairs up to 0.3 Mi); the n = 2000 ones
# reach it (gathers from width 2 on, pairs at s = k).
PARALLEL_MIN_WORK = 1 << 22

@cache
def _cpus() -> int:
    """CPUs the process may run on (`taskset -c 0` leaves one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this OS
        return os.cpu_count() or 1


def _new_pool() -> None:
    """Make run_lanes' pool, a worker per CPU but the caller's (at least one):
    at import, and in a forked child, which has none of its parent's threads.
    An executor starts its threads on its first submits, not here."""
    global _pool
    _pool = ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="rankdescent-lane")


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def lanes(work: float) -> int:
    """How many tasks run_lanes runs at once for a kernel of work
    multiply-adds: one below PARALLEL_MIN_WORK, otherwise the calling thread
    plus one worker thread per further CPU."""
    return 1 if work < PARALLEL_MIN_WORK else _cpus()


def _run_under(err: dict, task):
    with np.errstate(**err):
        return task()


def run_lanes(tasks: list, work: float) -> list:
    """Results of the zero-argument callables in tasks, in their order.

    Below PARALLEL_MIN_WORK multiply-adds of work, or on one lane, the tasks
    run in turn on the calling thread. Otherwise the workers of the module's
    pool, made at import and again in a forked child, take tasks[1:], each
    under the caller's np.geterr() (numpy keeps its error state per thread
    or per context, which a pool thread does not inherit), while the caller
    runs tasks[0] and then waits for them all; a task beyond the worker
    count waits for a free worker. An exception of a task re-raises here
    once no task is running. Tasks must be safe to run concurrently and
    should spend their time in numpy or scipy calls that release the GIL. A
    task may not call run_lanes: a nested call would wait on workers that
    are busy with the outer one.
    """
    if len(tasks) < 2 or lanes(work) < 2:
        return [task() for task in tasks]
    err = np.geterr()
    futures = [_pool.submit(_run_under, err, task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def mask_gather(L: np.ndarray, R: np.ndarray, mask: IndexSet) -> np.ndarray:
    """Entries of L @ R.T on a mask: out[p] = L[i_p] . R[j_p].

    Below GATHER_BLAS_DENSITY the entries are row-wise dot products,
    O(|mask| * width), over chunks whose two (chunk, width) gathers fit in
    GATHER_BYTES. From it on, each of the mask's row_blocks takes one GEMM
    L[i0:i1] @ R.T into a flat buffer of at most GATHER_BYTES, O(m * n *
    width) in all, and one take of the block's entries at the cached
    offsets; from PARALLEL_MIN_WORK on, the blocks are shared out among
    run_lanes' lanes, each with a buffer of its own. The GEMM sums in its
    own order, so the two paths agree to roundoff, not bitwise; each is
    bitwise repeatable, at any lane count. No finiteness check: callers that
    need finite values validate them (SparseOnMask does).
    """
    if (L.shape[0], R.shape[0]) != mask.dims or L.shape[1] != R.shape[1]:
        raise ValueError("dimension mismatch in mask_gather")
    m, n = mask.dims
    out = np.empty(len(mask))
    if len(mask) >= GATHER_BLAS_DENSITY * m * n:
        bounds, offsets = mask.row_blocks
        Rt = np.ascontiguousarray(R.T)
        # shared by the lanes: each next(), atomic under the GIL, hands out one block
        blocks = iter(bounds)
        size = max(1, GATHER_BYTES // (8 * n)) * n

        def lane():
            buf = np.empty(size)
            for i0, i1, p0, p1 in blocks:
                block = buf[: (i1 - i0) * n]
                np.matmul(L[i0:i1], Rt, out=block.reshape(i1 - i0, n))
                # the offsets lie in the block; mode="raise" would copy through a buffer
                np.take(block, offsets[p0:p1], out=out[p0:p1], mode="clip")

        work = m * n * L.shape[1]
        run_lanes([lane] * min(lanes(work), len(bounds)), work)
        return out
    chunk = max(1, GATHER_BYTES // (16 * max(1, L.shape[1])))
    for start in range(0, len(mask), chunk):
        stop = start + chunk
        np.einsum(
            "pr,pr->p",
            np.take(L, mask.rows[start:stop], axis=0),
            np.take(R, mask.cols[start:stop], axis=0),
            out=out[start:stop],
        )
    return out

