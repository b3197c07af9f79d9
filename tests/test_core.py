import numpy as np
import pytest
import scipy.sparse

from rankdescent.core import (
    AmbientSum,
    FactoredMatrix,
    IndexSet,
    SparseOnMask,
    ambient_dense,
    ambient_matmul,
    ambient_rmatmul,
    ambient_scaled,
    frob_inner,
    frob_norm,
    load_dense,
    load_factored,
    load_index_set,
    GATHER_CHUNK,
    mask_apply,
    mask_gather,
    numerical_rank,
    save_dense,
    save_factored,
    save_index_set,
    svd,
    truncate,
)


class TestSvd:
    def test_zero_matrix(self):
        U, s, V = svd(np.zeros((3, 2)))
        assert np.all(s == 0)

    def test_diagonal(self):
        U, s, V = svd(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])
        # identity up to column signs
        assert np.allclose(np.abs(U), np.eye(2), atol=1e-14)
        assert np.allclose(np.abs(V), np.eye(2), atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 3))
        U, s, V = svd(A)
        assert np.linalg.norm((U * s) @ V.T - A) <= 1e-12 * np.linalg.norm(A)

    def test_nonfinite_rejected(self):
        A = np.ones((2, 2))
        A[0, 0] = np.nan
        with pytest.raises(ValueError):
            svd(A)


class TestTruncate:
    def test_diag_rank_one(self):
        # full-SVD enumeration oracle: best rank-1 keeps the larger value
        T = truncate(np.diag([3.0, 1.0]), 1)
        assert np.allclose(T.dense(), np.diag([3.0, 0.0]), atol=1e-14)

    def test_noop_when_r_ge_rank(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 4))
        T = truncate(A, 3)
        assert np.linalg.norm(T.dense() - A) <= 1e-12 * np.linalg.norm(A)

    def test_identity_distance_one(self):
        # both rank-1 truncations of I_2 are optimal; sigma_2 forces distance 1
        T = truncate(np.eye(2), 1)
        assert abs(np.linalg.norm(T.dense() - np.eye(2)) - 1.0) <= 1e-12

    def test_residual_is_sigma_tail(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 5))
        _, s, _ = svd(A)
        for r in range(6):
            resid = np.linalg.norm(truncate(A, r).dense() - A)
            expect = np.sqrt(np.sum(s[r:] ** 2))
            assert abs(resid - expect) <= 1e-12 * max(1.0, expect)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            truncate(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncate(np.eye(3), -1)

    def test_factored_input_slices(self):
        rng = np.random.default_rng(3)
        F = truncate(rng.standard_normal((5, 4)), 3)
        T = truncate(F, 2)
        oracle = truncate(F.dense(), 2)
        assert np.allclose(T.dense(), oracle.dense(), atol=1e-12)

    def test_eckart_young_against_random_sampling(self):
        # oracle sampling: no random rank-r matrix beats the truncation
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4))
        N = 10**5
        for r in (1, 2, 3):
            best = np.linalg.norm(truncate(A, r).dense() - A)
            B = rng.standard_normal((N, 4, r))
            C = rng.standard_normal((N, r, 4))
            resid = np.linalg.norm(B @ C - A, axis=(1, 2))
            assert np.all(resid >= best - 1e-12)


class TestNorms:
    def test_frob_norm_diag(self):
        assert frob_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0, abs=1e-14)

    def test_inner_matches_norm(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 5))
        assert frob_inner(A, A) == pytest.approx(frob_norm(A) ** 2, rel=1e-14)

    def test_disjoint_support(self):
        e11 = np.zeros((2, 2)); e11[0, 0] = 1.0
        e22 = np.zeros((2, 2)); e22[1, 1] = 1.0
        assert frob_inner(e11, e22) == 0.0

    def test_mixed_representations_agree(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((6, 5))
        B = rng.standard_normal((6, 5))
        FA = truncate(A, 3)
        mask = IndexSet((6, 5), *np.nonzero(rng.random((6, 5)) < 0.4))
        SB = mask_apply(B, mask)
        dense_FA = FA.dense()
        dense_SB = SB.dense()
        pairs = [
            (FA, B, dense_FA, B),
            (FA, FA, dense_FA, dense_FA),
            (SB, B, dense_SB, B),
            (SB, FA, dense_SB, dense_FA),
            (SB, SB, dense_SB, dense_SB),
        ]
        for X, Y, DX, DY in pairs:
            assert frob_inner(X, Y) == pytest.approx(np.vdot(DX, DY), rel=1e-13, abs=1e-13)

    def test_sparse_different_masks(self):
        rng = np.random.default_rng(7)
        m1 = IndexSet((3, 3), [0, 1, 2], [0, 1, 2])
        m2 = IndexSet((3, 3), [0, 1, 2], [0, 2, 2])
        s1 = SparseOnMask(m1, [1.0, 2.0, 3.0])
        s2 = SparseOnMask(m2, [5.0, 7.0, 11.0])
        assert frob_inner(s1, s2) == pytest.approx(np.vdot(s1.dense(), s2.dense()))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frob_inner(np.eye(2), np.eye(3))


class TestMaskApply:
    def test_empty_values_on_factored(self):
        X = truncate(np.eye(3), 2)
        mask = IndexSet((3, 3), [], [])
        assert len(mask_apply(X, mask).values) == 0

    def test_direct_lookup(self):
        mask = IndexSet((2, 2), [0], [0])
        out = mask_apply(np.diag([4.0, 0.0]), mask)
        assert np.allclose(out.values, [4.0])

    def test_factored_matches_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            A = rng.standard_normal((7, 6))
            F = truncate(A, 3)
            mask = IndexSet((7, 6), *np.nonzero(rng.random((7, 6)) < 0.5))
            a = mask_apply(F, mask).values
            b = mask_apply(F.dense(), mask).values
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-13 * max(1.0, np.abs(b).max(initial=0.0))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            mask_apply(np.eye(3), IndexSet((2, 2), [0], [0]))

    def test_chunked_gather_matches_dense(self):
        # a full 150x500 mask spans three GATHER_CHUNK blocks, the last one partial
        rng = np.random.default_rng(11)
        m, n = 150, 500
        assert 2 * GATHER_CHUNK < m * n < 3 * GATHER_CHUNK
        rows, cols = np.nonzero(np.ones((m, n)))
        mask = IndexSet((m, n), rows, cols)
        F = truncate(rng.standard_normal((m, 6)) @ rng.standard_normal((6, n)), 6)
        a = mask_apply(F, mask).values
        b = F.dense()[mask.rows, mask.cols]
        assert np.max(np.abs(a - b)) <= 1e-13 * np.abs(b).max()
        L, R = rng.standard_normal((m, 4)), rng.standard_normal((n, 4))
        g = mask_gather(L, R, mask)
        d = (L @ R.T)[mask.rows, mask.cols]
        assert np.max(np.abs(g - d)) <= 1e-13 * np.abs(d).max()

    def test_gather_dim_mismatch(self):
        mask = IndexSet((3, 2), [0], [0])
        with pytest.raises(ValueError):
            mask_gather(np.ones((3, 2)), np.ones((2, 1)), mask)
        with pytest.raises(ValueError):
            mask_gather(np.ones((2, 1)), np.ones((2, 1)), mask)


class TestNumericalRank:
    def test_threshold(self):
        assert numerical_rank([3.0, 1.0, 1e-18], 1e-14) == 2

    def test_zero(self):
        assert numerical_rank([0.0, 0.0]) == 0
        assert numerical_rank([]) == 0

    def test_full(self):
        assert numerical_rank([1.0, 1.0, 1.0], 1e-14) == 3


class TestIndexSet:
    def test_sorting_canonical(self):
        s = IndexSet((3, 3), [2, 0, 1], [0, 1, 2])
        assert list(s.rows) == [0, 1, 2]
        assert list(s.cols) == [1, 2, 0]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            IndexSet((2, 2), [0, 0], [1, 1])

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            IndexSet((2, 2), [0, 2], [0, 0])


class TestSparseOnMask:
    @pytest.mark.parametrize(
        "dims, rows, cols",
        [
            # rows 0, 2 and 5 (the last) hold no entry
            ((6, 5), [1, 1, 3, 4, 4, 4, 1], [0, 4, 2, 1, 0, 3, 2]),
            ((4, 3), [], []),
        ],
    )
    def test_fixed_pattern_csr_matches_coo_build(self, dims, rows, cols):
        rng = np.random.default_rng(3)
        mask = IndexSet(dims, rows, cols)
        S = SparseOnMask(mask, rng.standard_normal(len(mask)))
        ref = scipy.sparse.csr_matrix((S.values, (mask.rows, mask.cols)), shape=dims)
        got = S.csr
        for name in ("indices", "indptr", "data"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        W = rng.standard_normal((dims[1], 3))
        Z = rng.standard_normal((dims[0], 3))
        assert np.array_equal(got @ W, ref @ W)
        assert np.array_equal(got.T @ Z, ref.T @ Z)


class TestFactoredMatrix:
    def test_orthonormality_enforced(self):
        U = np.ones((3, 2)) / np.sqrt(3)
        with pytest.raises(ValueError):
            FactoredMatrix(U, [1.0, 0.5], np.eye(2))

    def test_sigma_order_enforced(self):
        with pytest.raises(ValueError):
            FactoredMatrix(np.eye(2), [1.0, 2.0], np.eye(2))

    def test_zero_rank(self):
        Z = FactoredMatrix.zero(3, 4)
        assert Z.rank == 0
        assert np.all(Z.dense() == 0)


class TestAmbient:
    def test_sum_matmul_matches_dense(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((5, 4))
        F = truncate(rng.standard_normal((5, 4)), 2)
        mask = IndexSet((5, 4), *np.nonzero(rng.random((5, 4)) < 0.5))
        S = mask_apply(rng.standard_normal((5, 4)), mask)
        total = AmbientSum(((2.0, A), (-1.5, F), (0.5, S)))
        D = ambient_dense(total)
        W = rng.standard_normal((4, 3))
        assert np.allclose(ambient_matmul(total, W), D @ W, atol=1e-12)
        W2 = rng.standard_normal((5, 2))
        assert np.allclose(ambient_rmatmul(total, W2), D.T @ W2, atol=1e-12)
        assert frob_norm(total) == pytest.approx(np.linalg.norm(D), rel=1e-12)

    def test_scaled_flattens(self):
        F = ambient_scaled(ambient_scaled(np.eye(2), 2.0), -1.0)
        assert np.allclose(ambient_dense(F), -2.0 * np.eye(2))


class TestIO:
    def test_dense_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((4, 3))
        path = tmp_path / "a.csv"
        save_dense(path, A)
        assert np.array_equal(load_dense(path), A)

    def test_factored_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        F = truncate(rng.standard_normal((5, 4)), 2)
        save_factored(tmp_path / "f", F)
        G = load_factored(tmp_path / "f")
        assert np.array_equal(F.U, G.U)
        assert np.array_equal(F.sigma, G.sigma)
        assert np.array_equal(F.V, G.V)

    def test_index_set_roundtrip(self, tmp_path):
        mask = IndexSet((6, 7), [0, 2, 5], [3, 0, 6])
        path = tmp_path / "mask.csv"
        save_index_set(path, mask)
        back = load_index_set(path, (6, 7))
        assert back == mask
