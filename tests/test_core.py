import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

import rankdescent
from rankdescent import core

from rankdescent.core import (
    FactoredMatrix,
    IndexSet,
    SparseOnMask,
    ThinPair,
    factored_diff_norm,
    frob_norm,
    GATHER_BLAS_DENSITY,
    GATHER_BYTES,
    PARALLEL_MIN_WORK,
    lanes,
    mask_gather,
    numerical_rank,
    orthonormal_polish,
    run_lanes,
    truncate,
)
from rankdescent.bench import load_factored, load_index_set, save_factored, save_index_set
from helpers import ambient_dense, count_qr_calls, count_svd_calls, same_index_set


class TestTruncate:
    def test_diag_rank_one(self):
        # full-SVD enumeration oracle: best rank-1 keeps the larger value
        T = truncate(np.diag([3.0, 1.0]), 1)
        assert np.allclose(ambient_dense(T), np.diag([3.0, 0.0]), atol=1e-14)

    def test_noop_when_r_ge_rank(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 4))
        T = truncate(A, 3)
        assert np.linalg.norm(ambient_dense(T) - A) <= 1e-12 * np.linalg.norm(A)

    def test_identity_distance_one(self):
        # both rank-1 truncations of I_2 are optimal; sigma_2 forces distance 1
        T = truncate(np.eye(2), 1)
        assert abs(np.linalg.norm(ambient_dense(T) - np.eye(2)) - 1.0) <= 1e-12

    def test_residual_is_sigma_tail(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 5))
        _, s, _ = np.linalg.svd(A, full_matrices=False)
        for r in range(6):
            resid = np.linalg.norm(ambient_dense(truncate(A, r)) - A)
            expect = np.sqrt(np.sum(s[r:] ** 2))
            assert abs(resid - expect) <= 1e-12 * max(1.0, expect)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dense_rejected_before_any_svd(self, monkeypatch, bad):
        A = np.ones((3, 2))
        A[1, 0] = bad
        svd_calls = count_svd_calls(monkeypatch)
        with pytest.raises(ValueError, match="non-finite entries in input matrix"):
            truncate(A, 1)
        assert svd_calls == []

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            truncate(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncate(np.eye(3), -1)

    @staticmethod
    def _assert_matches_dense(T, L, R, r, U=None, V=None):
        # the pair's truncation is the dense one of the projected L @ R.T, up
        # to the sign of each pair of singular vectors; compare the products
        oracle = truncate(L @ R.T, r, U, V)
        q = T.rank
        assert q <= min(r, L.shape[1])
        scale = max(1.0, oracle.sigma[0]) if oracle.rank else 1.0
        assert np.abs(T.sigma - oracle.sigma[:q]).max(initial=0.0) <= 1e-12 * scale
        assert np.all(oracle.sigma[q:] <= 1e-12 * scale)
        assert np.allclose(ambient_dense(T), ambient_dense(oracle), atol=1e-12 * scale)

    def test_pair_matches_dense(self):
        rng = np.random.default_rng(7)
        for m, n, w in ((9, 7, 3), (7, 9, 4), (8, 8, 5)):
            L, R = rng.standard_normal((m, w)), rng.standard_normal((n, w))
            for r in range(w + 1):
                self._assert_matches_dense(truncate(ThinPair(L, R), r), L, R, r)

    def test_pair_with_projected_bases(self):
        rng = np.random.default_rng(8)
        L, R = rng.standard_normal((10, 4)), rng.standard_normal((8, 4))
        U = np.linalg.qr(rng.standard_normal((10, 2)))[0]
        V = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        for r in (1, 2, 4):
            for Ub, Vb in ((U, V), (U, None), (None, V)):
                T = truncate(ThinPair(L, R), r, Ub, Vb)
                self._assert_matches_dense(T, L, R, r, Ub, Vb)
                if Ub is not None:
                    assert np.abs(Ub.T @ T.U).max() <= 1e-13
                if Vb is not None:
                    assert np.abs(Vb.T @ T.V).max() <= 1e-13

    def test_pair_rank_deficient(self):
        # [U | U] @ [V | W].T = U @ (V + W).T has rank 2 although the pair is 4 wide
        rng = np.random.default_rng(9)
        U, V, W = (rng.standard_normal((k, 2)) for k in (9, 7, 7))
        L, R = np.hstack([U, U]), np.hstack([V, W])
        T = truncate(ThinPair(L, R), 4)
        self._assert_matches_dense(T, L, R, 4)
        assert T.sigma[2:].max() <= 1e-13 * T.sigma[0]
        assert np.allclose(ambient_dense(truncate(ThinPair(L, R), 2)), L @ R.T, atol=1e-12)

    def test_pair_width_zero_gives_rank_zero(self):
        T = truncate(ThinPair(np.zeros((6, 0)), np.zeros((5, 0))), 3)
        assert T.shape == (6, 5) and T.rank == 0

    def test_pair_rank_above_width(self):
        rng = np.random.default_rng(10)
        L, R = rng.standard_normal((8, 2)), rng.standard_normal((6, 2))
        T = truncate(ThinPair(L, R), 5)
        assert T.rank == 2
        assert np.allclose(ambient_dense(T), L @ R.T, atol=1e-12)
        with pytest.raises(ValueError):
            truncate(ThinPair(L, R), 7)

    def test_eckart_young_against_random_sampling(self):
        # oracle sampling: no random rank-r matrix beats the truncation
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4))
        N = 10**5
        for r in (1, 2, 3):
            best = np.linalg.norm(ambient_dense(truncate(A, r)) - A)
            B = rng.standard_normal((N, 4, r))
            C = rng.standard_normal((N, r, 4))
            resid = np.linalg.norm(B @ C - A, axis=(1, 2))
            assert np.all(resid >= best - 1e-12)

    @staticmethod
    def _fully_observed(D):
        m, n = D.shape
        rows, cols = np.divmod(np.arange(m * n), n)
        return SparseOnMask(IndexSet((m, n), rows, cols), D.ravel())

    def test_masked_repeated_singular_values(self):
        # diag(B, B) has every singular value twice; a single Krylov sequence
        # sees each once
        B = np.random.default_rng(2).standard_normal((9, 9))
        D = np.kron(np.eye(2), B)
        expect = np.linalg.svd(D, full_matrices=False)[1]
        for r in (2, 3, 4):
            T = truncate(self._fully_observed(D).csr, r)
            assert np.abs(T.sigma - expect[:r]).max() <= 1e-12 * expect[0]

    def test_masked_zero_operator_gives_rank_zero(self):
        mask = IndexSet((20, 15), *np.divmod(np.arange(300), 15))
        T = truncate(SparseOnMask(mask, np.zeros(300)).csr, 3)
        assert T.shape == (20, 15) and T.rank == 0
        # nonzero only in rows 0-2, which projecting out U = I[:, :3] removes
        values = np.where(mask.rows < 3, np.random.default_rng(0).standard_normal(300), 0.0)
        T = truncate(SparseOnMask(mask, values).csr, 4, np.eye(20)[:, :3], np.eye(15)[:, :2])
        assert T.shape == (20, 15) and T.rank == 0

    def test_masked_full_rank_matches_dense(self):
        rng = np.random.default_rng(5)
        for m, n in ((7, 5), (5, 7), (6, 6)):
            D = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.6)
            mask = IndexSet((m, n), *np.nonzero(rng.random((m, n)) < 0.8))
            A = SparseOnMask(mask, D[mask.rows, mask.cols])
            r = min(m, n)
            T, E = truncate(A.csr, r), truncate(ambient_dense(A), r)
            assert np.allclose(T.sigma, E.sigma, rtol=0, atol=1e-13)
            assert np.allclose(ambient_dense(T), ambient_dense(A), rtol=0, atol=1e-13)

    def test_quadratic_solve_leaves_sparse_linalg_unloaded(self):
        # only the masked path imports scipy.sparse.linalg, so a run that
        # never truncates a masked matrix does not pay for the import
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            import rankdescent
            from rankdescent import core, geometry, objectives, solvers

            rng = np.random.default_rng(0)
            A = core.truncate(rng.standard_normal((40, 6)) @ rng.standard_normal((6, 30)), 6)
            X0 = geometry.random_point(rng, 40, 30, 3, 6)
            for variant in ("sd", "rf"):
                cfg = solvers.SolverConfig(k=6, variant=variant, max_iters=5)
                solvers.solve(objectives.QuadraticDistance(A), X0, cfg)
            print("scipy.sparse.linalg" in sys.modules)
            """
        )
        src = os.path.dirname(os.path.dirname(rankdescent.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    @staticmethod
    def _dense_rank_12():
        rng = np.random.default_rng(7)
        return rng.standard_normal((500, 12)) @ rng.standard_normal((12, 400))

    @staticmethod
    def _fig1_small_observation():
        from rankdescent.bench import PRESETS, gen_problem

        return gen_problem(PRESETS["fig1-small"])[0].data.csr

    @pytest.mark.parametrize(
        "make, r",
        [
            pytest.param(_dense_rank_12, 12, id="dense-r12"),
            pytest.param(_dense_rank_12, 0, id="dense-r0"),
            pytest.param(lambda: np.random.default_rng(7).standard_normal((500, 400)), 12, id="dense-full-rank"),
            pytest.param(
                lambda: ThinPair(*np.random.default_rng(8).standard_normal((2, 60, 12))), 12, id="pair"
            ),
            pytest.param(_fig1_small_observation, 8, id="csr-fig1-small"),
        ],
    )
    def test_result_owns_arrays_of_its_rank(self, make, r):
        # a rank-r result pins no wider decomposition: each factor owns its
        # data or views an array of exactly its own size
        A = make()
        T = truncate(A, r)
        for W in (T.U, T.V):
            assert W.base is None or W.base.nbytes == W.nbytes
        if isinstance(A, np.ndarray):
            # a low-rank A takes the range sketch and matches LAPACK's
            # truncation to roundoff; a full-rank one is LAPACK's, bitwise
            if np.linalg.matrix_rank(A) < min(A.shape):
                self._assert_lapack_to_roundoff(T, A)
            else:
                self._assert_lapack_bitwise(T, A)

    @staticmethod
    def _assert_lapack_to_roundoff(T, A):
        # T is the rank-T.rank truncation of A: its product and its singular
        # values match LAPACK's to roundoff, and its factors are orthonormal
        r = T.rank
        Uf, s, Vt = np.linalg.svd(A, full_matrices=False)
        assert np.linalg.norm(ambient_dense(T) - (Uf[:, :r] * s[:r]) @ Vt[:r]) <= 1e-13 * np.linalg.norm(A)
        assert np.abs(T.sigma - s[:r]).max(initial=0.0) <= 1e-13 * s[0]
        for W in (T.U, T.V):
            assert np.abs(W.T @ W - np.eye(r)).max(initial=0.0) <= 1e-13

    @staticmethod
    def _assert_lapack_bitwise(T, A):
        Uf, s, Vt = np.linalg.svd(A, full_matrices=False)
        for got, full in ((T.U, Uf), (T.sigma, s), (T.V, Vt.T)):
            assert np.array_equal(got, full[..., : T.rank])

    @staticmethod
    def _low_rank(m, n, rank, seed=11):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))

    @staticmethod
    def _rank_12_plus_noise():
        # 60x50 of rank 12 plus noise of 1e-12 of its norm, far above RANK_TOL
        A = TestTruncate._low_rank(60, 50, 12)
        noise = np.random.default_rng(12).standard_normal(A.shape)
        return A + 1e-12 * np.linalg.norm(A) / np.linalg.norm(noise) * noise

    def test_low_rank_takes_only_the_sketch_svd(self, monkeypatch):
        A = self._dense_rank_12()
        svd_calls = count_svd_calls(monkeypatch)
        T = truncate(A, 12)
        assert svd_calls == [(17, 400)]
        monkeypatch.undo()
        self._assert_lapack_to_roundoff(T, A)

    @pytest.mark.parametrize(
        "make", [pytest.param(lambda: TestTruncate._low_rank(60, 50, 4), id="rank-below-r"),
                 pytest.param(lambda: np.zeros((60, 50)), id="zero"),
                 pytest.param(lambda: 1e-200 * TestTruncate._low_rank(60, 50, 4), id="rank-below-r-1e-200")]
    )
    def test_a_rank_below_r_gives_zero_trailing_values(self, monkeypatch, make):
        A = make()
        svd_calls = count_svd_calls(monkeypatch)
        T = truncate(A, 12)
        assert svd_calls == [(17, 50)]
        monkeypatch.undo()
        assert T.rank == 12
        assert np.all(T.sigma[np.linalg.matrix_rank(A):] <= 1e-14 * T.sigma[0])
        self._assert_lapack_to_roundoff(T, A)

    @pytest.mark.parametrize(
        "make", [pytest.param(lambda: TestTruncate._low_rank(60, 50, 18), id="rank-r-plus-6"),
                 pytest.param(_rank_12_plus_noise, id="rank-r-plus-noise"),
                 # squares of these entries overflow or underflow in an unscaled norm
                 pytest.param(lambda: 1e200 * TestTruncate._low_rank(60, 50, 50), id="full-rank-1e200"),
                 pytest.param(lambda: 1e-200 * TestTruncate._low_rank(60, 50, 50), id="full-rank-1e-200")]
    )
    def test_a_failed_residual_check_falls_back_to_lapack(self, monkeypatch, make):
        A = make()
        svd_calls = count_svd_calls(monkeypatch)
        T = truncate(A, 12)
        assert svd_calls == [(60, 50)]
        monkeypatch.undo()
        self._assert_lapack_bitwise(T, A)

    def test_sketch_of_the_projected_matrix(self, monkeypatch):
        rng = np.random.default_rng(13)
        A = self._low_rank(60, 50, 10)
        U = np.linalg.qr(rng.standard_normal((60, 3)))[0]
        V = np.linalg.qr(rng.standard_normal((50, 2)))[0]
        svd_calls = count_svd_calls(monkeypatch)
        T = truncate(A, 8, U, V)
        assert svd_calls == [(13, 50)]
        monkeypatch.undo()
        P = A - U @ (U.T @ A)
        self._assert_lapack_to_roundoff(T, P - (P @ V) @ V.T)
        assert np.abs(U.T @ T.U).max() <= 1e-13 and np.abs(V.T @ T.V).max() <= 1e-13

    @settings(derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_dense_error_is_lapacks_tail_on_generated_inputs(self, data):
        m, n = data.draw(st.integers(8, 60), "m"), data.draw(st.integers(8, 60), "n")
        rank = data.draw(st.integers(0, min(m, n)), "rank")
        r = data.draw(st.integers(0, min(m, n) - 1), "r")
        A = self._low_rank(m, n, rank, seed=data.draw(st.integers(0, 2**32 - 1), "seed"))
        T = truncate(A, r)
        for W in (T.U, T.V):
            assert np.abs(W.T @ W - np.eye(r)).max(initial=0.0) <= 1e-12
        tail = np.sqrt(np.sum(np.linalg.svd(A, compute_uv=False)[r:] ** 2))
        error = np.linalg.norm(A - ambient_dense(T))
        assert abs(error - tail) <= 1e-12 * np.linalg.norm(A)


# (m, n, rank of A, rank of B): unequal ranks, rank 0 on either side,
# m != n and rank min(m, n)
RANKS_AND_SHAPES = [
    (9, 6, 4, 2), (9, 6, 2, 4), (6, 9, 0, 3), (6, 9, 3, 0), (6, 9, 0, 0), (9, 6, 6, 6), (6, 9, 6, 3), (7, 7, 7, 7),
]


class TestNorms:
    def test_frob_norm_diag(self):
        assert frob_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0, abs=1e-14)

    def test_disjoint_support(self):
        # e11 - e22 from two rank-1 factored matrices with orthogonal factors
        e = np.eye(2)
        e11 = FactoredMatrix(e[:, :1], [1.0], e[:, :1])
        e22 = FactoredMatrix(e[:, 1:], [1.0], e[:, 1:])
        assert factored_diff_norm(e11, e22) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_mixed_representations_agree(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((6, 5))
        B = rng.standard_normal((6, 5))
        FA = truncate(A, 3)
        FB = truncate(B, 2)
        mask = IndexSet((6, 5), *np.nonzero(rng.random((6, 5)) < 0.4))
        SB = SparseOnMask(mask, B[mask.rows, mask.cols])
        for X in (ThinPair(FA.U * FA.sigma, FA.V), SB.csr, B):
            D = ambient_dense(X)
            assert frob_norm(X) == pytest.approx(np.linalg.norm(D), rel=1e-13)
        diff = np.linalg.norm(ambient_dense(FA) - ambient_dense(FB))
        assert factored_diff_norm(FA, FB) == pytest.approx(diff, rel=1e-13)
        # the difference as one thin pair of joint factors
        pair = ThinPair(np.hstack([FA.U * FA.sigma, -(FB.U * FB.sigma)]), np.hstack([FA.V, FB.V]))
        D = truncate(pair, 5)
        assert np.allclose(ambient_dense(D), ambient_dense(FA) - ambient_dense(FB), atol=1e-13)
        assert factored_diff_norm(FA, FB) == pytest.approx(frob_norm(pair), rel=1e-14)

    @pytest.mark.parametrize("m, n, w", [(9, 6, 3), (6, 9, 4), (5, 4, 7), (6, 5, 0)])
    def test_frob_norm_of_a_pair(self, m, n, w):
        # w = 7 is wider than min(m, n); w = 0 is the zero pair
        rng = np.random.default_rng(m * n + w)
        L, R = rng.standard_normal((m, w)), rng.standard_normal((n, w))
        assert frob_norm(ThinPair(L, R)) == pytest.approx(np.linalg.norm(L @ R.T), rel=1e-13, abs=0)

    @pytest.mark.parametrize("scale", [1e-4, 1e-8, 1e-12])
    def test_frob_norm_of_a_small_pair_difference(self, scale):
        # [A | -B] @ [V | V].T for B = A + scale * P: the error stays at the
        # roundoff of the factors, where the Gram identity loses half the
        # digits of the difference (about 1e-8 relative at scale 1e-8)
        rng = np.random.default_rng(int(-np.log10(scale)))
        A, P, V = rng.standard_normal((8, 3)), rng.standard_normal((8, 3)), rng.standard_normal((6, 3))
        pair = ThinPair(np.hstack([A, -(A + scale * P)]), np.hstack([V, V]))
        ref = scale * np.linalg.norm(P @ V.T)
        assert abs(frob_norm(pair) - ref) <= 1e-14 * np.linalg.norm(A) * np.linalg.norm(V)

    def test_frob_norm_of_a_pair_takes_one_qr_and_no_svd(self, monkeypatch):
        rng = np.random.default_rng(12)
        L, R = rng.standard_normal((50, 9)), rng.standard_normal((40, 9))
        qr, svd_calls = count_qr_calls(monkeypatch), count_svd_calls(monkeypatch)
        frob_norm(ThinPair(L, R))
        assert qr == [(40, 9)] and svd_calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_frob_norm_of_a_non_finite_pair_rejected(self, monkeypatch, bad, side):
        rng = np.random.default_rng(13)
        pair = [rng.standard_normal((6, 3)), rng.standard_normal((5, 3))]
        pair[side][1, 2] = bad
        qr = count_qr_calls(monkeypatch)
        with pytest.raises(ValueError, match="non-finite"):
            frob_norm(ThinPair(*pair))
        assert qr == []

    @staticmethod
    def long_double_diff_norm(A, B) -> float:
        """||A - B||_F densified from the factors in extended precision."""
        Ad, Bd = ((F.U.astype(np.longdouble) * F.sigma) @ F.V.T.astype(np.longdouble) for F in (A, B))
        return float(np.sqrt(np.sum((Ad - Bd) ** 2)))

    @pytest.mark.parametrize("scale", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("m, n, k", [(40, 30, 5), (30, 45, 7)])
    def test_small_differences_match_long_double_reference(self, scale, m, n, k):
        # B is the best rank-k approximation of A + scale * P, so both its
        # factors and its singular values move by about scale
        rng = np.random.default_rng(int(-np.log10(scale)) * 100 + m)
        A, P = (truncate(ThinPair(rng.standard_normal((m, k)), rng.standard_normal((n, k))), k) for _ in range(2))
        B = truncate(ThinPair(np.hstack([A.U * A.sigma, scale * (P.U * P.sigma)]), np.hstack([A.V, P.V])), k)
        a_norm = float(np.linalg.norm(A.sigma))
        ref = self.long_double_diff_norm(A, B)
        assert 0.01 * scale * a_norm < ref < 100 * scale * a_norm
        for X, Y in ((A, B), (B, A)):
            assert abs(factored_diff_norm(X, Y) - ref) <= 1e-14 * a_norm

    @pytest.mark.parametrize("m, n, ra, rb", RANKS_AND_SHAPES)
    def test_ranks_and_shapes_match_long_double_reference(self, m, n, ra, rb):
        rng = np.random.default_rng(1000 * m + 10 * ra + rb)
        A = truncate(rng.standard_normal((m, n)), ra)
        B = truncate(rng.standard_normal((m, n)), rb)
        ref = self.long_double_diff_norm(A, B)
        scale = float(np.linalg.norm(A.sigma) + np.linalg.norm(B.sigma))
        for X, Y in ((A, B), (B, A)):
            assert abs(factored_diff_norm(X, Y) - ref) <= 1e-14 * scale
        if ra == rb == 0:
            assert factored_diff_norm(A, B) == 0.0

    @pytest.mark.parametrize("m, n, ra, rb", RANKS_AND_SHAPES + [(40, 30, 5, 5), (30, 45, 7, 7)])
    def test_takes_no_qr(self, monkeypatch, m, n, ra, rb):
        # the three block norms come from the projected remainders as they are
        rng = np.random.default_rng(m + n + ra + rb)
        A = truncate(rng.standard_normal((m, n)), ra)
        B = truncate(rng.standard_normal((m, n)), rb)
        calls = count_qr_calls(monkeypatch)
        for X, Y in ((A, B), (B, A)):
            factored_diff_norm(X, Y)
        assert calls == []

    @pytest.mark.parametrize("m, n, k", [(50, 40, 6), (40, 50, 40), (2000, 300, 20)])
    def test_self_distance_is_roundoff(self, m, n, k):
        rng = np.random.default_rng(m + n + k)
        A = truncate(ThinPair(rng.standard_normal((m, k)), rng.standard_normal((n, k))), k)
        assert factored_diff_norm(A, A) <= 1e-14 * float(np.linalg.norm(A.sigma))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            factored_diff_norm(truncate(np.eye(2), 1), truncate(np.eye(3), 1))
        with pytest.raises(ValueError):
            factored_diff_norm(truncate(np.ones((2, 3)), 1), truncate(np.ones((2, 4)), 1))
        with pytest.raises(ValueError):
            truncate(ThinPair(np.ones((2, 1)), np.ones((3, 2))), 1)


class TestMaskApply:
    # a factored matrix's entries on a mask are the gather of its pair (U * sigma, V)
    def test_empty_values_on_factored(self):
        X = truncate(np.eye(3), 2)
        mask = IndexSet((3, 3), [], [])
        assert len(mask_gather(X.U * X.sigma, X.V, mask)) == 0

    def test_factored_matches_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            A = rng.standard_normal((7, 6))
            F = truncate(A, 3)
            mask = IndexSet((7, 6), *np.nonzero(rng.random((7, 6)) < 0.5))
            a = mask_gather(F.U * F.sigma, F.V, mask)
            b = ambient_dense(F)[mask.rows, mask.cols]
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-13 * max(1.0, np.abs(b).max(initial=0.0))

    def test_chunked_gather_matches_dense(self):
        # a full 150x500 mask spans two row blocks of mask_gather, the last one partial
        rng = np.random.default_rng(11)
        m, n = 150, 500
        assert GATHER_BYTES // (8 * n) < m < 2 * (GATHER_BYTES // (8 * n))
        rows, cols = np.nonzero(np.ones((m, n)))
        mask = IndexSet((m, n), rows, cols)
        F = truncate(rng.standard_normal((m, 6)) @ rng.standard_normal((6, n)), 6)
        a = mask_gather(F.U * F.sigma, F.V, mask)
        b = ambient_dense(F)[mask.rows, mask.cols]
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


def random_mask(rng, m, n, density, empty_rows=()):
    keep = rng.random((m, n)) < density
    keep[list(empty_rows)] = False
    return IndexSet((m, n), *np.nonzero(keep))


def assert_gathers_dense(L, R, mask, blas):
    # the contract: out[p] = (L @ R.T)[i_p, j_p] to 1e-13 relative, on the path expected
    m, n = mask.dims
    assert (len(mask) >= GATHER_BLAS_DENSITY * m * n) is blas
    g = mask_gather(L, R, mask)
    d = (L @ R.T)[mask.rows, mask.cols]
    assert g.shape == d.shape
    assert np.max(np.abs(g - d), initial=0.0) <= 1e-13 * np.abs(d).max(initial=0.0)


def assert_lanes_bitwise(monkeypatch, compute):
    # every entry comes from the same BLAS call on every lane count
    monkeypatch.setattr(core, "PARALLEL_MIN_WORK", np.inf)
    one = compute()
    monkeypatch.setattr(core, "PARALLEL_MIN_WORK", 0)
    for _ in range(3):
        assert np.array_equal(compute(), one)


class TestMaskGather:
    # a mask below the density crossover takes the row-wise path, above it the GEMM path
    DENSITIES = {False: GATHER_BLAS_DENSITY / 2, True: min(1.0, 4 * GATHER_BLAS_DENSITY)}

    @pytest.mark.parametrize("blas", [False, True])
    @pytest.mark.parametrize("m, n", [(120, 90), (90, 120), (400, 30), (30, 400), (1, 300)])
    def test_matches_dense_on_both_paths(self, blas, m, n):
        rng = np.random.default_rng(m * n)
        mask = random_mask(rng, m, n, self.DENSITIES[blas])
        assert len(mask)
        for width in (1, 7, 40):
            L, R = rng.standard_normal((m, width)), rng.standard_normal((n, width))
            assert_gathers_dense(L, R, mask, blas)

    @pytest.mark.parametrize("blas", [False, True])
    @pytest.mark.parametrize("m", [5, 21, 30])
    def test_row_blocks_of_every_size(self, monkeypatch, blas, m):
        # blocks of 7 rows: m below one block, a multiple of it, and not a
        # multiple; rows empty at both ends and inside, whole blocks empty
        n, width = 40, 6
        monkeypatch.setattr(core, "GATHER_BYTES", 8 * n * 7)
        rng = np.random.default_rng(m)
        empty = {0, 2, m - 1} | set(range(7, 14) if m > 14 else ())
        mask = random_mask(rng, m, n, self.DENSITIES[blas], empty_rows=empty)
        assert not set(mask.rows.tolist()) & empty
        bounds, offsets = mask.row_blocks
        assert bounds[-1][3] == len(mask) == offsets.size
        assert all(i1 - i0 <= 7 for i0, i1, _, _ in bounds)
        L, R = rng.standard_normal((m, width)), rng.standard_normal((n, width))
        assert_gathers_dense(L, R, mask, blas)

    @pytest.mark.parametrize("m, n", [(1, 1), (6, 50), (50, 6)])
    def test_mask_with_no_entries(self, m, n):
        mask = IndexSet((m, n), [], [])
        out = mask_gather(np.ones((m, 3)), np.ones((n, 3)), mask)
        assert out.shape == (0,)

    @pytest.mark.parametrize("blas", [False, True])
    def test_width_zero_is_all_zeros(self, blas):
        rng = np.random.default_rng(5)
        m, n = 60, 80
        mask = random_mask(rng, m, n, self.DENSITIES[blas])
        assert (len(mask) >= GATHER_BLAS_DENSITY * m * n) is blas
        Z = FactoredMatrix.zero(m, n)
        values = mask_gather(Z.U * Z.sigma, Z.V, mask)
        assert values.shape == (len(mask),) and not values.any()

    @pytest.mark.parametrize("blas", [False, True])
    def test_repeated_calls_are_bitwise_equal(self, blas):
        rng = np.random.default_rng(6)
        m, n = 300, 200
        mask = random_mask(rng, m, n, self.DENSITIES[blas])
        L, R = rng.standard_normal((m, 12)), rng.standard_normal((n, 12))
        first = mask_gather(L, R, mask)
        for _ in range(3):
            assert np.array_equal(mask_gather(L, R, mask), first)

    def test_every_preset_takes_the_gemm_path(self):
        from rankdescent.bench import PRESETS, omega_size

        for spec in PRESETS.values():
            assert omega_size(spec) >= GATHER_BLAS_DENSITY * spec.n**2

    @pytest.mark.parametrize("m, n", [(120, 90), (90, 120), (400, 30), (30, 400), (1, 300)])
    def test_lanes_are_bitwise_the_one_lane_gather(self, monkeypatch, m, n):
        rng = np.random.default_rng(m * n)
        mask = random_mask(rng, m, n, self.DENSITIES[True])
        for width in (1, 7, 40):
            L, R = rng.standard_normal((m, width)), rng.standard_normal((n, width))
            assert_lanes_bitwise(monkeypatch, lambda: mask_gather(L, R, mask))

    @pytest.mark.parametrize("m", [5, 21, 30])
    def test_lanes_on_row_blocks_of_every_size(self, monkeypatch, m):
        n, width = 40, 6
        monkeypatch.setattr(core, "GATHER_BYTES", 8 * n * 7)
        rng = np.random.default_rng(m)
        empty = {0, 2, m - 1} | set(range(7, 14) if m > 14 else ())
        mask = random_mask(rng, m, n, self.DENSITIES[True], empty_rows=empty)
        L, R = rng.standard_normal((m, width)), rng.standard_normal((n, width))
        assert_lanes_bitwise(monkeypatch, lambda: mask_gather(L, R, mask))

    def test_huge_factors_raise_under_the_callers_errstate(self, monkeypatch):
        # armijo values its trials inside np.errstate(over="raise"), which a
        # worker thread must honour too
        monkeypatch.setattr(core, "PARALLEL_MIN_WORK", 0)
        monkeypatch.setattr(core, "GATHER_BYTES", 8 * 40 * 4)
        rng = np.random.default_rng(8)
        mask = random_mask(rng, 60, 40, self.DENSITIES[True])
        L, R = np.full((60, 3), 1e200), np.full((40, 3), 1e200)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            mask_gather(L, R, mask)


LANE_PREFIX = "rankdescent-lane"


def lane_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith(LANE_PREFIX)]


needs_two_lanes = pytest.mark.skipif(lanes(np.inf) < 2, reason="the process may run on one CPU only")


class TestLanes:
    @pytest.fixture
    def forced(self, monkeypatch):
        # lanes at any work, and gathers on n = 60 columns in blocks of 8 rows
        monkeypatch.setattr(core, "PARALLEL_MIN_WORK", 0)
        monkeypatch.setattr(core, "GATHER_BYTES", 8 * 60 * 8)

    def test_below_the_threshold_every_task_runs_on_the_caller(self):
        ran = run_lanes([threading.current_thread] * 3, PARALLEL_MIN_WORK - 1)
        assert ran == [threading.current_thread()] * 3

    @needs_two_lanes
    def test_a_worker_task_runs_under_the_callers_errstate(self, forced):
        started, ran_on = threading.Event(), []

        def on_worker():
            ran_on.append(threading.current_thread())
            started.set()
            return np.array(1e300) * 1e300

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            run_lanes([lambda: started.wait(30), on_worker], 0)
        assert ran_on[0] is not threading.current_thread()

    @needs_two_lanes
    def test_a_worker_exception_reraises_in_the_caller(self, forced):
        started = threading.Event()

        def on_worker():
            started.set()
            raise KeyError("from a worker")

        with pytest.raises(KeyError, match="from a worker"):
            run_lanes([lambda: started.wait(30), on_worker], 0)

    @needs_two_lanes
    def test_a_caller_exception_waits_for_a_running_worker_task(self, forced):
        started, finished = threading.Event(), threading.Event()

        def on_worker():
            started.set()
            time.sleep(0.2)
            finished.set()

        def on_caller():
            started.wait(30)
            raise KeyError("from the caller")

        with pytest.raises(KeyError, match="from the caller"):
            run_lanes([on_caller, on_worker], 0)
        assert finished.is_set()

    def test_more_lanes_than_cores_hand_each_block_to_one_lane(self, forced, monkeypatch):
        # a block lost or taken twice, or a buffer shared by two lanes, would
        # leave entries unwritten or overwritten; frequent thread switches
        # give such races their chance
        rng = np.random.default_rng(11)
        mask = random_mask(rng, 300, 60, 0.3)
        L, R = rng.standard_normal((300, 5)), rng.standard_normal((60, 5))
        monkeypatch.setattr(core, "PARALLEL_MIN_WORK", np.inf)
        want = mask_gather(L, R, mask)
        monkeypatch.setattr(core, "PARALLEL_MIN_WORK", 0)
        monkeypatch.setattr(core, "_cpus", lambda: 2 * os.cpu_count() + 1)
        monkeypatch.setattr(core, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                assert np.array_equal(mask_gather(L, R, mask), want)
        finally:
            sys.setswitchinterval(interval)
            if core._pool is not None:
                core._pool.shutdown()

    @needs_two_lanes
    def test_worker_count_stays_below_the_lane_count(self, forced):
        rng = np.random.default_rng(9)
        mask = random_mask(rng, 90, 60, 0.3)
        L, R = rng.standard_normal((90, 4)), rng.standard_normal((60, 4))
        assert len(mask.row_blocks[0]) > lanes(np.inf)
        for _ in range(50):
            mask_gather(L, R, mask)
            # tasks queued behind a busy worker still run, and come back in order
            assert run_lanes([lambda i=i: i for i in range(5)], 0) == list(range(5))
        assert 1 <= len(lane_threads()) <= lanes(np.inf) - 1

    @needs_two_lanes
    def test_worker_tasks_call_no_package_function(self, forced, monkeypatch):
        # perfbench's tracer wraps package functions and keeps one stack of
        # open spans, so every span must open and close on the caller's thread
        from rankdescent import bench, solvers

        package = os.path.dirname(rankdescent.__file__)
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                seen.add(frame.f_code.co_name)

        monkeypatch.setattr(core, "_pool", None)  # its workers start under the profile
        threading.setprofile(profile)
        try:
            spec = bench.CompletionSpec(n=60, r=3, k=4, os_rate=3, seed=1)
            problem, _ = bench.gen_problem(spec)
            X0 = bench.initial_guess(problem, spec.k)
            for variant in ("sd", "rf"):
                solvers.solve(problem, X0, solvers.SolverConfig(k=spec.k, variant=variant, max_iters=4))
        finally:
            threading.setprofile(None)
            if core._pool is not None:
                core._pool.shutdown()
        assert "_run_under" in seen and seen <= {"_run_under", "lane", "<lambda>"}

    def test_import_starts_no_thread(self):
        script = "import threading, rankdescent.cli; print(threading.active_count())"
        src = os.path.dirname(os.path.dirname(rankdescent.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "1"

    @needs_two_lanes
    @pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
    def test_a_forked_child_gathers_on_lanes_of_its_own(self, forced):
        # the parent's pool exists before the fork; the child drops it, starts
        # its own workers and gathers the same values
        rng = np.random.default_rng(10)
        mask = random_mask(rng, 90, 60, 0.3)
        L, R = rng.standard_normal((90, 4)), rng.standard_normal((60, 4))
        want = mask_gather(L, R, mask)
        assert lane_threads()

        def child():
            assert not lane_threads()
            assert np.array_equal(mask_gather(L, R, mask), want)
            assert lane_threads()

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.exitcode is None:
            proc.kill()
        assert proc.exitcode == 0

    def test_cpus_without_an_affinity_mask_is_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        core._cpus.cache_clear()
        try:
            assert core._cpus() == (os.cpu_count() or 1)
        finally:
            core._cpus.cache_clear()

    def test_n300_presets_stay_on_one_lane_and_n2000_presets_take_lanes(self):
        # a gather has width at most 2k (a cone direction's factors) and the
        # CSR pair of project_tangent_space works 2 |mask| s with s <= k; at
        # n = 300 two lanes slowed fig1-small's width-16 gathers
        from rankdescent.bench import PRESETS, omega_size

        for spec in PRESETS.values():
            gather, pair = spec.n**2 * spec.k, 2 * omega_size(spec) * spec.k
            if spec.n <= 300:
                assert 2 * gather < PARALLEL_MIN_WORK and pair < PARALLEL_MIN_WORK
            else:
                assert gather >= PARALLEL_MIN_WORK and pair >= PARALLEL_MIN_WORK




class TestNumericalRank:
    def test_threshold(self):
        assert numerical_rank([3.0, 1.0, 1e-18]) == 2

    def test_zero(self):
        assert numerical_rank([0.0, 0.0]) == 0
        assert numerical_rank([]) == 0

    def test_full(self):
        assert numerical_rank([1.0, 1.0, 1.0]) == 3


class TestOrthonormalPolish:
    @staticmethod
    def drift(W):
        return np.linalg.norm(W.T @ W - np.eye(W.shape[1]), 2)

    def test_width_zero_factor_comes_back_empty(self):
        out = orthonormal_polish(np.zeros((5, 0)))
        assert out.shape == (5, 0)

    def test_drift_is_squared_on_a_near_orthonormal_factor(self):
        # a Gram drift of 2 eps becomes 3 eps^2 to first order: 0.75 drift^2
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.standard_normal((50, 4)))[0]
        W = Q + 1e-5 * rng.standard_normal((50, 4))
        before, after = self.drift(W), self.drift(orthonormal_polish(W))
        assert 1e-6 < before < 1e-3
        assert after <= before**2


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

    @staticmethod
    def _canonical(m=40, n=30, size=500, seed=3):
        lin = np.sort(np.random.default_rng(seed).choice(m * n, size=size, replace=False))
        return (m, n), lin // n, lin % n

    def test_canonical_input_kept_bitwise(self):
        dims, rows, cols = self._canonical()
        s = IndexSet(dims, rows, cols)
        for got, given in ((s.rows, rows), (s.cols, cols)):
            assert got.dtype == np.int64
            assert np.array_equal(got, given)

    @pytest.mark.parametrize("order", ["shuffled", "reversed"])
    def test_any_order_gives_the_canonical_pairs(self, order):
        dims, rows, cols = self._canonical()
        perm = np.random.default_rng(4).permutation(rows.size) if order == "shuffled" else slice(None, None, -1)
        s = IndexSet(dims, rows[perm], cols[perm])
        assert np.array_equal(s.rows, rows) and np.array_equal(s.cols, cols)

    @pytest.mark.parametrize("order", ["canonical", "shuffled"])
    def test_duplicates_rejected_in_any_order(self, order):
        # canonical: the copy of pair p sits right after it; shuffled: the
        # two copies end up at the two ends of the input
        dims, rows, cols = self._canonical()
        p = 250
        rows, cols = np.insert(rows, p + 1, rows[p]), np.insert(cols, p + 1, cols[p])
        if order == "shuffled":
            perm = np.random.default_rng(5).permutation(rows.size)
            perm = np.concatenate(([p], perm[(perm != p) & (perm != p + 1)], [p + 1]))
            rows, cols = rows[perm], cols[perm]
        with pytest.raises(ValueError, match="duplicate"):
            IndexSet(dims, rows, cols)

    def test_empty_and_single_entry(self):
        empty = IndexSet((3, 4), [], [])
        assert len(empty) == 0 and empty.rows.dtype == np.int64
        for rows, cols in (([2], [1]), ([2.0], [1.0])):
            one = IndexSet((3, 4), rows, cols)
            assert list(one.rows) == [2] and list(one.cols) == [1]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["U", "V"])
    def test_non_finite_factors_rejected(self, bad, side):
        # rejected before the Gram product, which would warn on inf, and not
        # let through by an orthonormality comparison that is False on NaN
        factors = {"U": np.eye(3)[:, :2], "V": np.eye(4)[:, :2]}
        factors[side][0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            FactoredMatrix(factors["U"], [2.0, 1.0], factors["V"])

    def test_sigma_order_enforced(self):
        with pytest.raises(ValueError):
            FactoredMatrix(np.eye(2), [1.0, 2.0], np.eye(2))

    def test_zero_rank(self):
        Z = FactoredMatrix.zero(3, 4)
        assert Z.rank == 0
        assert np.all(ambient_dense(Z) == 0)

    def test_zero_is_shared_per_shape(self):
        # one validated instance per shape; its arrays are empty, so sharing
        # it cannot leak a change from one user to another
        Z = FactoredMatrix.zero(3, 4)
        assert FactoredMatrix.zero(3, 4) is Z
        assert FactoredMatrix.zero(4, 3) is not Z
        assert Z.U.size == Z.sigma.size == Z.V.size == 0


class TestThinPair:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["L", "R"])
    def test_non_finite_factors_rejected(self, bad, side):
        factors = {"L": np.ones((4, 2)), "R": np.ones((3, 2))}
        factors[side][2, 1] = bad
        with pytest.raises(ValueError, match="non-finite entries in input matrix"):
            ThinPair(factors["L"], factors["R"])


class TestAmbient:
    def test_products_match_dense_per_kind(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((5, 4))
        F = truncate(rng.standard_normal((5, 4)), 2)
        mask = IndexSet((5, 4), *np.nonzero(rng.random((5, 4)) < 0.5))
        S = SparseOnMask(mask, rng.standard_normal((5, 4))[mask.rows, mask.cols])
        W = rng.standard_normal((4, 3))
        W2 = rng.standard_normal((5, 2))
        for X, D in ((A, A), (ThinPair(F.U * F.sigma, F.V), ambient_dense(F)), (S.csr, ambient_dense(S))):
            assert np.array_equal(ambient_dense(X), D)
            assert np.allclose(X @ W, D @ W, atol=1e-12)
            assert np.allclose(X.T @ W2, D.T @ W2, atol=1e-12)

    @pytest.mark.parametrize("m, n, w", [(5, 4, 2), (4, 5, 3), (5, 4, 7), (3, 6, 0)])
    def test_products_of_a_pair_match_dense(self, m, n, w):
        # w = 7 is wider than min(m, n); w = 0 is the zero pair
        rng = np.random.default_rng(m + n + w)
        L, R = rng.standard_normal((m, w)), rng.standard_normal((n, w))
        W, W2 = rng.standard_normal((n, 3)), rng.standard_normal((m, 2))
        D = L @ R.T
        assert np.array_equal(ambient_dense(ThinPair(L, R)), D)
        assert np.allclose(ThinPair(L, R) @ W, D @ W, rtol=0, atol=1e-12)
        assert np.allclose(ThinPair(L, R).T @ W2, D.T @ W2, rtol=0, atol=1e-12)


class TestIO:
    def test_factored_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        F = truncate(rng.standard_normal((5, 4)), 2)
        save_factored(tmp_path / "f", F)
        G = load_factored(tmp_path / "f")
        assert np.array_equal(F.U, G.U)
        assert np.array_equal(F.sigma, G.sigma)
        assert np.array_equal(F.V, G.V)

    def test_rank_zero_not_saved(self, tmp_path):
        with pytest.raises(ValueError, match="rank-0"):
            save_factored(tmp_path / "f", FactoredMatrix.zero(3, 3))
        assert not (tmp_path / "f").exists()

    def test_index_set_roundtrip(self, tmp_path):
        mask = IndexSet((6, 7), [0, 2, 5], [3, 0, 6])
        path = tmp_path / "mask.csv"
        save_index_set(path, mask)
        back = load_index_set(path, (6, 7))
        assert same_index_set(back, mask)

    def test_empty_index_set_roundtrip(self, tmp_path):
        mask = IndexSet((6, 7), [], [])
        path = tmp_path / "mask.csv"
        save_index_set(path, mask)
        back = load_index_set(path, (6, 7))
        assert same_index_set(back, mask) and len(back) == 0

    @pytest.mark.parametrize("content", ["1\n2\n", "1,2,3\n"])
    def test_index_set_of_another_shape_rejected(self, tmp_path, content):
        path = tmp_path / "mask.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match="two columns"):
            load_index_set(path, (6, 7))


@pytest.mark.parametrize(
    "make, match",
    [
        pytest.param(lambda: truncate(np.zeros(3), 1), "2-D", id="truncate-1d"),
        pytest.param(
            lambda: frob_norm(ThinPair(np.ones((3, 2)), np.ones((4, 1)))), "differ in width", id="frob-norm-pair-widths"
        ),
        pytest.param(lambda: frob_norm(ThinPair(np.ones(3), np.ones((4, 1)))), "2-D", id="frob-norm-pair-1d"),
        pytest.param(lambda: IndexSet((0, 3), [], []), "positive", id="indexset-dims"),
        pytest.param(lambda: IndexSet((3, 3), [0, 1], [0]), "equal length", id="indexset-lengths"),
        pytest.param(
            lambda: IndexSet((3, 3), [0.5, 2.9], [1.7, 0.2]), "whole numbers", id="indexset-fractional"
        ),
        pytest.param(lambda: IndexSet((3, 3), [np.nan], [0]), "whole numbers", id="indexset-nan"),
        pytest.param(
            lambda: IndexSet((3, 3), np.array([True, False]), [0, 1]), "integers", id="indexset-bool"
        ),
        pytest.param(
            lambda: SparseOnMask(IndexSet((2, 2), [0], [1]), [np.nan]), "non-finite", id="sparse-nan"
        ),
        pytest.param(
            lambda: FactoredMatrix(np.eye(2), [1.0, -0.5], np.eye(2)), "nonnegative", id="sigma-negative"
        ),
        pytest.param(
            lambda: FactoredMatrix(np.eye(2), [np.inf, 1.0], np.eye(2)), "finite", id="sigma-inf"
        ),
        pytest.param(
            lambda: mask_gather(np.zeros((3, 0)), np.zeros((3, 0)), IndexSet((2, 2), [0], [0])),
            "dimension mismatch",
            id="mask-apply-factored-shape",
        ),
    ],
)
def test_invalid_input_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()
