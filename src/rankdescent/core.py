"""Matrix primitives shared by the whole stack.

Conventions: dense matrices are 2-D float64 numpy arrays (row-major). A
FactoredMatrix stores an economy SVD triple (U, sigma, V) with
column-orthonormal U and V, so the represented matrix is
``U @ diag(sigma) @ V.T``. Matrices supported on a sampling set are kept as a
SparseOnMask (index set plus one value per index); they are never scattered
into dense form inside performance-relevant code paths. An IndexSet is
row-major sorted, so it carries the CSR pattern (column indices and row
pointers) of every matrix on it; a SparseOnMask's CSR view only adds its
values. Structured ambient matrices (gradients) are linear combinations of
these three kinds, see AmbientSum.

All containers are immutable values after construction; operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

# Tolerance for orthonormality of stored factors.
ORTHO_TOL = 1e-12
# Default relative tolerance for numerical rank decisions.
RANK_TOL = 1e-14


def _as_dense(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


class IndexSet:
    """Sampling set of distinct (i, j) coordinates in an m-by-n grid.

    Pairs are 0-based and kept canonically sorted in row-major order.
    """

    def __init__(self, dims, rows, cols):
        m, n = int(dims[0]), int(dims[1])
        if m <= 0 or n <= 0:
            raise ValueError("dims must be positive")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n:
                raise ValueError("index out of bounds")
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        lin = rows * n + cols
        if np.any(np.diff(lin) == 0):
            raise ValueError("duplicate index pairs")
        self.dims = (m, n)
        self.rows = rows
        self.cols = cols
        self._lin = lin

    @classmethod
    def from_pairs(cls, dims, pairs) -> "IndexSet":
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return cls(dims, pairs[:, 0], pairs[:, 1])

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

    @property
    def linear(self) -> np.ndarray:
        """Row-major linear indices i*n + j (sorted ascending)."""
        return self._lin

    def __len__(self) -> int:
        return self.rows.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexSet)
            and self.dims == other.dims
            and np.array_equal(self._lin, other._lin)
        )

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
        """CSR view used for products with thin dense factors.

        Built from the mask's fixed pattern, so only the values are new.
        """
        if self._csr is None:
            indices, indptr = self.mask.csr_pattern
            self._csr = scipy.sparse.csr_matrix(
                (self.values, indices, indptr), shape=self.mask.dims
            )
        return self._csr

    def dense(self) -> np.ndarray:
        out = np.zeros(self.mask.dims)
        out[self.mask.rows, self.mask.cols] = self.values
        return out

    def __repr__(self) -> str:
        return f"SparseOnMask(shape={self.shape}, nnz={len(self.mask)})"


@dataclass(frozen=True, eq=False)
class FactoredMatrix:
    """Rank-r matrix stored as an SVD triple U @ diag(sigma) @ V.T.

    U (m, r) and V (n, r) are column-orthonormal to ORTHO_TOL; sigma is
    nonnegative and sorted descending. r = 0 represents the zero matrix.
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
            if not np.all(np.isfinite(sigma)) or sigma[-1] < 0:
                raise ValueError("sigma must be finite and nonnegative")
            if np.any(np.diff(sigma) > 0):
                raise ValueError("sigma must be sorted descending")
        for W, name in ((U, "U"), (V, "V")):
            gram = W.T @ W
            if np.abs(gram - np.eye(r)).max(initial=0.0) > ORTHO_TOL:
                raise ValueError(f"{name} is not column-orthonormal to {ORTHO_TOL}")

    @property
    def shape(self):
        return (self.U.shape[0], self.V.shape[0])

    @property
    def rank(self) -> int:
        return self.sigma.size

    def dense(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.T

    @classmethod
    def zero(cls, m: int, n: int) -> "FactoredMatrix":
        return cls(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))

    def __repr__(self) -> str:
        return f"FactoredMatrix(shape={self.shape}, rank={self.rank})"


@dataclass(frozen=True, eq=False)
class AmbientSum:
    """Linear combination of structured ambient matrices.

    terms is a tuple of (coefficient, matrix) with matrix a dense array, a
    FactoredMatrix, or a SparseOnMask. All terms share one shape.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(c), t) for c, t in self.terms)
        if not terms:
            raise ValueError("empty sum")
        shape = _term_shape(terms[0][1])
        for _, t in terms[1:]:
            if _term_shape(t) != shape:
                raise ValueError("terms have mismatched shapes")
        object.__setattr__(self, "terms", terms)

    @property
    def shape(self):
        return _term_shape(self.terms[0][1])


def _term_shape(t):
    if isinstance(t, (FactoredMatrix, SparseOnMask)):
        return t.shape
    return _as_dense(t).shape


def ambient_shape(F):
    """Shape of a dense, factored, masked, or summed ambient matrix."""
    if isinstance(F, AmbientSum):
        return F.shape
    return _term_shape(F)


def ambient_scaled(F, c: float) -> AmbientSum:
    """c * F as an AmbientSum, flattening nested sums."""
    if isinstance(F, AmbientSum):
        return AmbientSum(tuple((c * a, t) for a, t in F.terms))
    return AmbientSum(((c, F),))


def _term_matmul(t, W):
    if isinstance(t, FactoredMatrix):
        return t.U @ (t.sigma[:, None] * (t.V.T @ W))
    if isinstance(t, SparseOnMask):
        return t.csr @ W
    return t @ W


def _term_rmatmul(t, W):
    if isinstance(t, FactoredMatrix):
        return t.V @ (t.sigma[:, None] * (t.U.T @ W))
    if isinstance(t, SparseOnMask):
        return t.csr.T @ W
    return t.T @ W


def ambient_matmul(F, W) -> np.ndarray:
    """F @ W for a structured ambient matrix F and thin dense W."""
    W = np.asarray(W, dtype=float)
    if isinstance(F, AmbientSum):
        m = F.shape[0]
        out = np.zeros((m, W.shape[1]))
        for c, t in F.terms:
            out += c * _term_matmul(t, W)
        return out
    return _term_matmul(F, W)


def ambient_rmatmul(F, W) -> np.ndarray:
    """F.T @ W for a structured ambient matrix F and thin dense W."""
    W = np.asarray(W, dtype=float)
    if isinstance(F, AmbientSum):
        n = F.shape[1]
        out = np.zeros((n, W.shape[1]))
        for c, t in F.terms:
            out += c * _term_rmatmul(t, W)
        return out
    return _term_rmatmul(F, W)


def ambient_dense(F) -> np.ndarray:
    """Densify a structured ambient matrix (desk scale only)."""
    if isinstance(F, AmbientSum):
        out = np.zeros(F.shape)
        for c, t in F.terms:
            out += c * ambient_dense(t)
        return out
    if isinstance(F, (FactoredMatrix, SparseOnMask)):
        return F.dense()
    return _as_dense(F)


def svd(A):
    """Economy SVD of a dense matrix.

    Returns (U, sigma, V) with V holding right singular vectors as columns,
    so A = U @ diag(sigma) @ V.T. Raises ValueError on non-finite input.
    """
    A = _as_dense(A)
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries in input matrix")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return U, s, Vt.T


def truncate(A, r: int) -> FactoredMatrix:
    """Best Frobenius-norm approximation of rank at most r.

    Ties between equal singular values are resolved by the deterministic
    ordering of the SVD backend (first r columns are kept). Accepts a dense
    matrix or a FactoredMatrix; in the factored case the stored triple is
    sliced directly.
    """
    if isinstance(A, FactoredMatrix):
        if not 0 <= r <= min(A.shape):
            raise ValueError(f"rank {r} out of range for shape {A.shape}")
        q = min(r, A.rank)
        return FactoredMatrix(A.U[:, :q], A.sigma[:q], A.V[:, :q])
    A = _as_dense(A)
    if not 0 <= r <= min(A.shape):
        raise ValueError(f"rank {r} out of range for shape {A.shape}")
    U, s, V = svd(A)
    return FactoredMatrix(U[:, :r], s[:r], V[:, :r])


def numerical_rank(sigma, tol_rel: float = RANK_TOL) -> int:
    """Count of singular values above tol_rel times the largest one."""
    sigma = np.asarray(sigma, dtype=float).ravel()
    if sigma.size == 0 or sigma[0] <= 0:
        return 0
    return int(np.count_nonzero(sigma > tol_rel * sigma[0]))


def orthonormal_polish(W: np.ndarray) -> np.ndarray:
    """One Newton step toward orthonormal columns: W (3I - W'W) / 2.

    For W already orthonormal to eps the drift is squared, which keeps long
    products of orthonormal factors within ORTHO_TOL indefinitely.
    """
    if W.shape[1] == 0:
        return W
    gram = W.T @ W
    return W @ (1.5 * np.eye(W.shape[1]) - 0.5 * gram)


def frob_norm(A) -> float:
    """Frobenius norm of a dense, factored, masked, or summed matrix."""
    if isinstance(A, FactoredMatrix):
        return float(np.linalg.norm(A.sigma))
    if isinstance(A, SparseOnMask):
        return float(np.linalg.norm(A.values))
    if isinstance(A, AmbientSum):
        return float(np.sqrt(max(frob_inner(A, A), 0.0)))
    return float(np.linalg.norm(_as_dense(A)))


def factored_diff_norm(A: FactoredMatrix, B: FactoredMatrix) -> float:
    """||A - B||_F for two factored matrices, without cancellation.

    Joint compact QRs reduce the difference to a small (rA+rB)-sized matrix
    whose norm is exact at its own scale; the result is accurate to roundoff
    in the norm itself, unlike the Gram identity, which loses half the digits
    once the difference is small. Never densifies.
    """
    if A.shape != B.shape:
        raise ValueError("shape mismatch in factored_diff_norm")
    L = np.hstack([A.U, B.U])
    R = np.hstack([A.V, B.V])
    _, RL = np.linalg.qr(L)
    _, RR = np.linalg.qr(R)
    w = np.concatenate([A.sigma, -B.sigma])
    return float(np.linalg.norm((RL * w) @ RR.T))


def frob_inner(A, B) -> float:
    """Frobenius inner product trace(A.T @ B) between any mix of kinds.

    Factored operands are never densified: inner products go through r-by-r
    Gram matrices or through per-entry evaluation on masks.
    """
    if ambient_shape(A) != ambient_shape(B):
        raise ValueError("shape mismatch in frob_inner")
    if isinstance(A, AmbientSum):
        return sum(c * frob_inner(t, B) for c, t in A.terms)
    if isinstance(B, AmbientSum):
        return sum(c * frob_inner(A, t) for c, t in B.terms)
    return _inner_pair(A, B)


def _inner_pair(A, B) -> float:
    a_fac, b_fac = isinstance(A, FactoredMatrix), isinstance(B, FactoredMatrix)
    a_sp, b_sp = isinstance(A, SparseOnMask), isinstance(B, SparseOnMask)
    if a_sp and b_sp:
        if A.mask is B.mask or A.mask == B.mask:
            return float(A.values @ B.values)
        _, ia, ib = np.intersect1d(
            A.mask.linear, B.mask.linear, assume_unique=True, return_indices=True
        )
        return float(A.values[ia] @ B.values[ib])
    if a_sp:
        return _inner_sparse_other(A, B)
    if b_sp:
        return _inner_sparse_other(B, A)
    if a_fac and b_fac:
        gu = A.U.T @ B.U
        gv = B.V.T @ A.V
        return float(np.einsum("ab,ba,a,b->", gu, gv, A.sigma, B.sigma))
    if a_fac:
        return _inner_factored_dense(A, _as_dense(B))
    if b_fac:
        return _inner_factored_dense(B, _as_dense(A))
    return float(np.vdot(_as_dense(A), _as_dense(B)))


def _inner_factored_dense(F: FactoredMatrix, D: np.ndarray) -> float:
    tmp = F.U.T @ D  # (r, n)
    return float(np.sum(F.sigma * np.einsum("rj,jr->r", tmp, F.V)))


def _inner_sparse_other(S: SparseOnMask, B) -> float:
    if isinstance(B, FactoredMatrix):
        return float(S.values @ mask_apply(B, S.mask).values)
    D = _as_dense(B)
    return float(S.values @ D[S.mask.rows, S.mask.cols])


# Mask entries per block of mask_gather: bounds its two (chunk, rank)
# temporaries and keeps them cache-sized (about 5 MB each at rank 20).
GATHER_CHUNK = 32768


def mask_gather(L: np.ndarray, R: np.ndarray, mask: IndexSet) -> np.ndarray:
    """Entries of L @ R.T on a mask: out[p] = L[i_p] . R[j_p].

    Runs in O(|mask| * rank) over blocks of GATHER_CHUNK entries without
    forming L @ R.T. No finiteness check: callers that need finite values
    validate them (SparseOnMask does).
    """
    if (L.shape[0], R.shape[0]) != mask.dims or L.shape[1] != R.shape[1]:
        raise ValueError("dimension mismatch in mask_gather")
    out = np.empty(len(mask))
    for start in range(0, len(mask), GATHER_CHUNK):
        stop = start + GATHER_CHUNK
        np.einsum(
            "pr,pr->p",
            np.take(L, mask.rows[start:stop], axis=0),
            np.take(R, mask.cols[start:stop], axis=0),
            out=out[start:stop],
        )
    return out


def mask_apply(X, mask: IndexSet) -> SparseOnMask:
    """Restrict X to a mask: values[p] = X[i_p, j_p].

    For a FactoredMatrix the entries are gathered from the sigma-scaled
    factors by mask_gather, without densifying.
    """
    if isinstance(X, FactoredMatrix):
        if X.shape != mask.dims:
            raise ValueError("dimension mismatch in mask_apply")
        return SparseOnMask(mask, mask_gather(X.U * X.sigma, X.V, mask))
    X = _as_dense(X)
    if X.shape != mask.dims:
        raise ValueError("dimension mismatch in mask_apply")
    return SparseOnMask(mask, X[mask.rows, mask.cols])


# ---------------------------------------------------------------------------
# File formats: dense matrices as CSV, factored matrices as a directory of
# three CSVs (U, sigma, V), index sets as two-column 0-based integer CSV.
# ---------------------------------------------------------------------------

_FLOAT_FMT = "%.17g"


def save_dense(path, A) -> None:
    np.savetxt(path, _as_dense(A), delimiter=",", fmt=_FLOAT_FMT)


def load_dense(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def save_factored(dirpath, F: FactoredMatrix) -> None:
    import os

    if F.rank == 0:
        raise ValueError("rank-0 factored matrices are not serialized")
    os.makedirs(dirpath, exist_ok=True)
    np.savetxt(os.path.join(dirpath, "U.csv"), F.U, delimiter=",", fmt=_FLOAT_FMT)
    np.savetxt(os.path.join(dirpath, "sigma.csv"), F.sigma, delimiter=",", fmt=_FLOAT_FMT)
    np.savetxt(os.path.join(dirpath, "V.csv"), F.V, delimiter=",", fmt=_FLOAT_FMT)


def load_factored(dirpath) -> FactoredMatrix:
    import os

    U = np.loadtxt(os.path.join(dirpath, "U.csv"), delimiter=",", ndmin=2)
    sigma = np.loadtxt(os.path.join(dirpath, "sigma.csv"), delimiter=",").ravel()
    V = np.loadtxt(os.path.join(dirpath, "V.csv"), delimiter=",", ndmin=2)
    return FactoredMatrix(U, sigma, V)


def save_index_set(path, mask: IndexSet) -> None:
    np.savetxt(
        path, np.column_stack([mask.rows, mask.cols]), delimiter=",", fmt="%d"
    )


def load_index_set(path, dims) -> IndexSet:
    pairs = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    return IndexSet(dims, pairs[:, 0], pairs[:, 1])
