import numpy as np
import pytest

from rankdescent.core import (
    FactoredMatrix,
    IndexSet,
    SparseOnMask,
    frob_norm,
    truncate,
)
from rankdescent.geometry import VarietyPoint, make_point, random_point, zero_point
from helpers import ambient_dense, random_cone_vector
from rankdescent import objectives
from rankdescent.objectives import (
    MatrixCompletion,
    QuadraticDistance,
    load_completion,
    save_completion,
)


def dense_mc_value(A_vals, mask, X):
    return 0.5 * np.sum((A_vals - X[mask.rows, mask.cols]) ** 2)


class TestMatrixCompletion:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.rng = rng
        self.mask = IndexSet((10, 8), *np.nonzero(rng.random((10, 8)) < 0.5))
        self.A_dense = rng.standard_normal((10, 8))
        self.data = SparseOnMask(self.mask, self.A_dense[self.mask.rows, self.mask.cols])
        self.obj = MatrixCompletion(self.data)

    def test_zero_residual_on_mask(self):
        X = make_point(truncate(self.A_dense, 8), 8)
        # X reproduces A up to SVD roundoff; the value is essentially zero
        assert self.obj.value(X) <= 1e-24 * frob_norm(self.A_dense) ** 2

    def test_single_entry_example(self):
        mask = IndexSet((2, 2), [0], [0])
        obj = MatrixCompletion(SparseOnMask(mask, [4.0]))
        X0 = zero_point(2, 2, 1)
        assert obj.value(X0) == pytest.approx(8.0)  # 0.5 * 4^2
        g = obj.gradient(X0)
        assert np.allclose(g.dense(), [[-4.0, 0.0], [0.0, 0.0]])

    def test_value_ignores_offmask_entries(self):
        mask = IndexSet((3, 3), [0], [0])
        obj = MatrixCompletion(SparseOnMask(mask, [1.0]))
        X1 = make_point(truncate(np.diag([1.0, 0, 0]), 2), 2)
        X2 = make_point(truncate(np.diag([1.0, 5.0, 0]), 2), 2)
        assert obj.value(X1) == obj.value(X2) == 0.0

    def test_value_at_zero(self):
        X0 = zero_point(10, 8, 3)
        assert self.obj.value(X0) == pytest.approx(
            0.5 * np.sum(self.data.values**2), rel=1e-15
        )

    def test_nonnegative(self):
        for _ in range(10):
            X = random_point(self.rng, 10, 8, 3, 3)
            assert self.obj.value(X) >= 0.0

    def test_gradient_matches_dense_formula(self):
        X = random_point(self.rng, 10, 8, 3, 3)
        g = self.obj.gradient(X)
        on_mask = np.zeros((10, 8), dtype=bool)
        on_mask[self.mask.rows, self.mask.cols] = True
        expect = np.where(on_mask, X.dense() - self.A_dense, 0.0)
        assert np.allclose(g.dense(), expect, atol=1e-12)

    def test_curvature_matches_dense_oracle(self):
        # <xi, Hess f xi> = ||P(xi)||^2, at s = k and at s < k with a perp block
        for s, k in ((3, 3), (2, 5), (0, 2)):
            X = random_point(self.rng, 10, 8, s, k)
            for _ in range(5):
                xi = random_cone_vector(self.rng, X)
                assert xi.perp_rank == k - s
                dense = xi.dense()[self.mask.rows, self.mask.cols]
                expected = float(dense @ dense)
                assert self.obj.curvature(X, xi) == pytest.approx(expected, rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            self.obj.value(zero_point(8, 10, 2))

    def test_gradient_reuses_residual_of_last_value(self, monkeypatch):
        gathers = []
        real = objectives.mask_apply
        monkeypatch.setattr(
            objectives, "mask_apply", lambda X, mask: gathers.append(X) or real(X, mask)
        )
        X = random_point(self.rng, 10, 8, 3, 3)
        f = self.obj.value(X)
        g = self.obj.gradient(X)
        assert len(gathers) == 1
        fresh = MatrixCompletion(self.data).gradient(X)
        assert np.array_equal(g.values, fresh.values)
        assert f == 0.5 * float(fresh.values @ fresh.values)

    def test_residual_slot_keyed_by_point(self):
        # the slot holds the point evaluated last; another point's gradient
        # gathers afresh and gets its own residual
        X1 = random_point(self.rng, 10, 8, 3, 3)
        X2 = random_point(self.rng, 10, 8, 3, 3)
        self.obj.value(X1)
        self.obj.value(X2)
        g1 = self.obj.gradient(X1)
        expect = MatrixCompletion(self.data).gradient(X1)
        assert np.array_equal(g1.values, expect.values)
        assert not np.array_equal(g1.values, MatrixCompletion(self.data).gradient(X2).values)


class TestQuadraticDistance:
    def test_at_target(self):
        rng = np.random.default_rng(1)
        A = truncate(rng.standard_normal((6, 5)), 3)
        obj = QuadraticDistance(A)
        X = VarietyPoint(A, 3)
        # Gram-identity evaluation carries roundoff at the scale of ||A||^2
        assert obj.value(X) <= 1e-13 * frob_norm(A) ** 2
        g = obj.gradient(X)
        assert frob_norm(ambient_dense(g)) <= 1e-12

    def test_curvature_matches_dense_oracle(self):
        # f is quadratic, so the central second difference of the dense cost
        # along xi is <xi, Hess f xi> exactly; at s = k and at s < k with a
        # perp block
        rng = np.random.default_rng(5)
        A = truncate(rng.standard_normal((10, 8)), 4)
        obj = QuadraticDistance(A)

        def dense_value(Y):
            return 0.5 * np.sum((Y - A.dense()) ** 2)

        for s, k in ((3, 3), (2, 5), (0, 2)):
            X = random_point(rng, 10, 8, s, k)
            for _ in range(5):
                xi = random_cone_vector(rng, X)
                assert xi.perp_rank == k - s
                Xd, D = X.dense(), xi.dense()
                expected = dense_value(Xd + D) - 2.0 * dense_value(Xd) + dense_value(Xd - D)
                assert obj.curvature(X, xi) == pytest.approx(expected, rel=1e-10)

    def test_diag_example(self):
        A = truncate(np.diag([3.0, 1.0]), 2)
        X = make_point(truncate(np.diag([3.0, 0.0]), 2), 2)
        obj = QuadraticDistance(A)
        assert obj.value(X) == pytest.approx(0.5, rel=1e-12)

    def test_gradient_is_difference(self):
        rng = np.random.default_rng(2)
        A = truncate(rng.standard_normal((6, 5)), 4)
        X = random_point(rng, 6, 5, 2, 4)
        g = QuadraticDistance(A).gradient(X)
        assert np.allclose(ambient_dense(g), X.dense() - A.dense(), atol=1e-13)

    @pytest.mark.parametrize("m, n, r, s", [(12, 10, 4, 3), (6, 5, 4, 3), (5, 7, 5, 4)])
    def test_gradient_is_one_factored_matrix(self, m, n, r, s):
        # s + r > min(m, n) in the last two cases: the joint QRs are square
        rng = np.random.default_rng(m + n + r + s)
        A = truncate(rng.standard_normal((m, n)), r)
        X = random_point(rng, m, n, s, max(r, s))
        obj = QuadraticDistance(A)
        g = obj.gradient(X)
        assert isinstance(g, FactoredMatrix)
        assert g.rank <= min(m, n, r + s)
        D = X.dense() - A.dense()
        assert np.allclose(g.dense(), D, atol=1e-13 * np.linalg.norm(D))
        assert obj.value(X) == pytest.approx(0.5 * np.sum(D**2), rel=1e-12)

    def test_exact_zero_at_identical_factors(self):
        rng = np.random.default_rng(3)
        A = truncate(rng.standard_normal((8, 7)), 3)
        obj = QuadraticDistance(A)
        X = VarietyPoint(truncate(A, 3), 3)
        g = obj.gradient(X)
        assert g.rank == 0 and g.shape == A.shape
        assert obj.value(X) == 0.0

    def test_one_residual_per_point(self, monkeypatch):
        calls = []
        real = objectives.truncate
        monkeypatch.setattr(
            objectives, "truncate", lambda A, r: calls.append(A) or real(A, r)
        )
        rng = np.random.default_rng(5)
        obj = QuadraticDistance(truncate(rng.standard_normal((9, 8)), 4))
        X = random_point(rng, 9, 8, 3, 4)
        f = obj.value(X)
        g = obj.gradient(X)
        assert len(calls) == 1
        fresh = QuadraticDistance(obj.target)
        assert f == fresh.value(X)
        assert np.array_equal(g.dense(), fresh.gradient(X).dense())


class TestFiniteDifferences:
    # central differences with h = 1e-6 against the structured gradients,
    # 100 random ambient directions each on 10x8 instances
    H = 1e-6

    def _check(self, obj, X, f_dense, rng):
        g = ambient_dense(obj.gradient(X))
        Xd = X.dense()
        for _ in range(100):
            D = rng.standard_normal(Xd.shape)
            fd = (f_dense(Xd + self.H * D) - f_dense(Xd - self.H * D)) / (2 * self.H)
            exact = np.vdot(g, D)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)

    def test_completion_gradient(self):
        rng = np.random.default_rng(3)
        mask = IndexSet((10, 8), *np.nonzero(rng.random((10, 8)) < 0.5))
        vals = rng.standard_normal(len(mask))
        obj = MatrixCompletion(SparseOnMask(mask, vals))
        X = random_point(rng, 10, 8, 3, 3)

        def f_dense(Y):
            return 0.5 * np.sum((vals - Y[mask.rows, mask.cols]) ** 2)

        assert obj.value(X) == pytest.approx(f_dense(X.dense()), rel=1e-12)
        self._check(obj, X, f_dense, rng)

    def test_quadratic_gradient(self):
        rng = np.random.default_rng(4)
        A = truncate(rng.standard_normal((10, 8)), 5)
        obj = QuadraticDistance(A)
        X = random_point(rng, 10, 8, 4, 5)
        Ad = A.dense()

        def f_dense(Y):
            return 0.5 * np.sum((Y - Ad) ** 2)

        assert obj.value(X) == pytest.approx(f_dense(X.dense()), rel=1e-10)
        self._check(obj, X, f_dense, rng)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        mask = IndexSet((6, 6), *np.nonzero(rng.random((6, 6)) < 0.4))
        target = truncate(rng.standard_normal((6, 6)), 2)
        vals = target.dense()[mask.rows, mask.cols]
        problem = MatrixCompletion(SparseOnMask(mask, vals))
        save_completion(tmp_path / "prob", problem, target)
        back, tgt = load_completion(tmp_path / "prob")
        assert back.shape == (6, 6)
        assert back.mask == mask
        assert np.array_equal(back.data.values, vals)
        assert np.array_equal(tgt.sigma, target.sigma)

    def test_roundtrip_without_target(self, tmp_path):
        mask = IndexSet((3, 3), [0, 1], [1, 2])
        problem = MatrixCompletion(SparseOnMask(mask, [1.0, 2.0]))
        save_completion(tmp_path / "p2", problem)
        back, tgt = load_completion(tmp_path / "p2")
        assert tgt is None
        assert np.array_equal(back.data.values, [1.0, 2.0])
