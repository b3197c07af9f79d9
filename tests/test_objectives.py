import numpy as np
import pytest

from rankdescent.core import (
    FactoredMatrix,
    IndexSet,
    SparseOnMask,
    ThinPair,
    frob_norm,
    truncate,
)
from rankdescent.geometry import (
    VarietyPoint,
    choose_flat_direction,
    g_lower_bound,
    project_cone,
    random_point,
    retract,
)
from rankdescent.linesearch import secant_curvature
from helpers import (
    ambient_dense,
    count_qr_calls,
    count_residual_gathers,
    count_svd_calls,
    random_cone_vector,
    same_index_set,
    zero_point,
)
from rankdescent import objectives
from rankdescent.objectives import (
    Line,
    MaskedLine,
    MatrixCompletion,
    QuadraticDistance,
)
from rankdescent.bench import load_completion, save_completion


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
        X = VarietyPoint(truncate(self.A_dense, 8), 8)
        # X reproduces A up to SVD roundoff; the value is essentially zero
        assert self.obj.value(X) <= 1e-24 * frob_norm(self.A_dense) ** 2

    def test_single_entry_example(self):
        mask = IndexSet((2, 2), [0], [0])
        obj = MatrixCompletion(SparseOnMask(mask, [4.0]))
        X0 = zero_point(2, 2, 1)
        assert obj.value(X0) == pytest.approx(8.0)  # 0.5 * 4^2
        g = obj.gradient(X0)
        assert np.allclose(ambient_dense(g), [[-4.0, 0.0], [0.0, 0.0]])

    def test_value_ignores_offmask_entries(self):
        mask = IndexSet((3, 3), [0], [0])
        obj = MatrixCompletion(SparseOnMask(mask, [1.0]))
        X1 = VarietyPoint(truncate(np.diag([1.0, 0, 0]), 2), 2)
        X2 = VarietyPoint(truncate(np.diag([1.0, 5.0, 0]), 2), 2)
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
        expect = np.where(on_mask, ambient_dense(X) - self.A_dense, 0.0)
        assert np.allclose(ambient_dense(g), expect, atol=1e-12)

    def test_curvature_matches_dense_oracle(self):
        # <xi, Hess f xi> = ||P(xi)||^2, at s = k and at s < k with a perp block
        for s, k in ((3, 3), (2, 5), (0, 2)):
            X = random_point(self.rng, 10, 8, s, k)
            for _ in range(5):
                xi = random_cone_vector(self.rng, X)
                assert xi.perp.rank == k - s
                dense = ambient_dense(xi)[self.mask.rows, self.mask.cols]
                expected = float(dense @ dense)
                assert self.obj.line(xi).curvature == pytest.approx(expected, rel=1e-12)

    def test_line_values_match_dense_oracle(self):
        # along a flat xi the curve is X + alpha * xi, where f is
        # 0.5 * ||P(X + alpha * xi - A)||^2; the line takes it from P(X - A)
        # and P(xi)
        on_mask = (self.mask.rows, self.mask.cols)
        for s, k in ((3, 3), (2, 5), (0, 2)):
            X = random_point(self.rng, 10, 8, s, k)
            xi = choose_flat_direction(random_cone_vector(self.rng, X))
            self.obj.gradient(X)
            line = self.obj.line(xi)
            assert isinstance(line, MaskedLine)
            for alpha in (0.0, 0.3, 2.0):
                res = (ambient_dense(X) + alpha * ambient_dense(xi) - self.A_dense)[on_mask]
                assert line.value(alpha) == pytest.approx(0.5 * float(res @ res), rel=1e-12)

    def test_masked_line_secant_is_its_exact_curvature(self):
        # f is exactly quadratic along a flat direction, so the secant
        # curvature of any step along the MaskedLine is ||v||^2 / ||xi||^2
        for s, k in ((3, 3), (2, 5), (0, 2)):
            X = random_point(self.rng, 10, 8, s, k)
            G, _ = project_cone(X, self.obj.gradient(X))
            xi = choose_flat_direction(-G)
            line = self.obj.line(xi)
            assert isinstance(line, MaskedLine)
            f_x, xi_norm = self.obj.value(X), xi.norm()
            for alpha in (0.3, 1.0, 2.0):
                kappa = secant_curvature(f_x, line.value(alpha), alpha, -(xi_norm**2), xi_norm)
                assert kappa == pytest.approx(line.curvature / xi_norm**2, rel=1e-12)

    def test_kept_line_residual_seeds_the_slot(self, monkeypatch):
        # a flat step's update is X + alpha * xi: step files the line's
        # residual under the new point, whose gradient and value gather nothing
        X = random_point(self.rng, 10, 8, 3, 3)
        xi = choose_flat_direction(random_cone_vector(self.rng, X))
        self.obj.value(X)
        line = self.obj.line(xi)
        f = line.value(0.4)
        Y, distance = line.step()
        Z, expected = retract(xi, 0.4)
        assert np.array_equal(ambient_dense(Y), ambient_dense(Z)) and distance == expected
        gathers = count_residual_gathers(monkeypatch)
        g = self.obj.gradient(Y)
        assert self.obj.value(Y) == f
        assert not gathers
        assert not g.data.flags.writeable
        fresh = MatrixCompletion(self.data).gradient(Y).data
        assert np.allclose(g.data, fresh, rtol=0, atol=1e-13)

    def test_line_along_a_non_flat_direction_retracts_each_trial(self):
        # sd's full projection leaves the ambient line: each value is f at
        # the retracted trial, and step returns that trial with its distance
        X = random_point(self.rng, 10, 8, 2, 4)
        xi = random_cone_vector(self.rng, X)
        assert not xi.flat
        line = self.obj.line(xi)
        assert type(line) is Line
        for alpha in (0.3, 2.0):
            Y, distance = retract(xi, alpha)
            assert line.value(alpha) == MatrixCompletion(self.data).value(Y)
            Z, d = line.step()
            assert np.array_equal(ambient_dense(Z), ambient_dense(Y)) and d == distance

    def test_non_flat_line_gathers_its_direction_on_the_first_curvature_read(self, monkeypatch):
        # a search that starts from a secant never reads the curvature, and
        # the line then gathers no direction, only each trial's residual; a
        # read gathers P(xi) once
        X = random_point(self.rng, 10, 8, 2, 4)
        xi = random_cone_vector(self.rng, X)
        gathers = []
        real = objectives.mask_gather
        monkeypatch.setattr(
            objectives, "mask_gather", lambda L, R, mask: gathers.append(L) or real(L, R, mask)
        )
        residuals = count_residual_gathers(monkeypatch)
        line = self.obj.line(xi)
        line.value(0.5)
        assert len(gathers) == len(residuals) == 1
        dense = ambient_dense(xi)[self.mask.rows, self.mask.cols]
        assert line.curvature == pytest.approx(float(dense @ dense), rel=1e-12)
        assert line.curvature == line.curvature
        assert len(gathers) == 2 and len(residuals) == 1

    def test_non_flat_trial_builds_no_masked_matrix(self, monkeypatch):
        # a trial's value takes the residual's entries alone; only the
        # gradient wraps them in a SparseOnMask
        X = random_point(self.rng, 10, 8, 2, 4)
        xi = random_cone_vector(self.rng, X)
        assert not xi.flat
        line = self.obj.line(xi)
        built = []
        real = SparseOnMask.__init__
        monkeypatch.setattr(SparseOnMask, "__init__", lambda S, *args: built.append(S) or real(S, *args))
        for alpha in (0.3, 2.0):
            line.value(alpha)
        assert not built

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            self.obj.value(zero_point(8, 10, 2))

    def test_gradient_reuses_residual_of_last_value(self, monkeypatch):
        gathers = count_residual_gathers(monkeypatch)
        X = random_point(self.rng, 10, 8, 3, 3)
        f = self.obj.value(X)
        g = self.obj.gradient(X)
        assert len(gathers) == 1
        fresh = MatrixCompletion(self.data).gradient(X)
        assert np.array_equal(g.data, fresh.data)
        assert f == 0.5 * float(fresh.data @ fresh.data)

    def test_residual_slot_keyed_by_point(self):
        # the slot holds the point evaluated last; another point's gradient
        # gathers afresh and gets its own residual
        X1 = random_point(self.rng, 10, 8, 3, 3)
        X2 = random_point(self.rng, 10, 8, 3, 3)
        self.obj.value(X1)
        self.obj.value(X2)
        g1 = self.obj.gradient(X1)
        expect = MatrixCompletion(self.data).gradient(X1)
        assert np.array_equal(g1.data, expect.data)
        assert not np.array_equal(g1.data, MatrixCompletion(self.data).gradient(X2).data)


class TestQuadraticDistance:
    def test_at_target(self):
        rng = np.random.default_rng(1)
        A = truncate(rng.standard_normal((6, 5)), 3)
        obj = QuadraticDistance(A)
        X = VarietyPoint(A, 3)
        # Gram-identity evaluation carries roundoff at the scale of ||A||^2
        assert obj.value(X) <= 1e-13 * np.linalg.norm(A.sigma) ** 2
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
            return 0.5 * np.sum((Y - ambient_dense(A)) ** 2)

        for s, k in ((3, 3), (2, 5), (0, 2)):
            X = random_point(rng, 10, 8, s, k)
            for _ in range(5):
                xi = random_cone_vector(rng, X)
                assert xi.perp.rank == k - s
                Xd, D = ambient_dense(X), ambient_dense(xi)
                expected = dense_value(Xd + D) - 2.0 * dense_value(Xd) + dense_value(Xd - D)
                assert obj.line(xi).curvature == pytest.approx(expected, rel=1e-10)
                assert type(obj.line(xi)) is Line

    def test_diag_example(self):
        A = truncate(np.diag([3.0, 1.0]), 2)
        X = VarietyPoint(truncate(np.diag([3.0, 0.0]), 2), 2)
        obj = QuadraticDistance(A)
        assert obj.value(X) == pytest.approx(0.5, rel=1e-12)

    def test_gradient_is_difference(self):
        rng = np.random.default_rng(2)
        A = truncate(rng.standard_normal((6, 5)), 4)
        X = random_point(rng, 6, 5, 2, 4)
        g = QuadraticDistance(A).gradient(X)
        assert np.allclose(ambient_dense(g), ambient_dense(X) - ambient_dense(A), atol=1e-13)

    # (m, n, rank of the target, rank of X): s + r > min(m, n) in the last
    # two cases, where the joint factors are wider than the matrix
    SHAPES = [(12, 10, 4, 3), (6, 5, 4, 3), (5, 7, 5, 4)]

    @pytest.mark.parametrize("m, n, r, s", SHAPES)
    def test_gradient_is_one_factored_matrix(self, m, n, r, s):
        # the gradient is the thin pair of the joint factors, L @ R.T = X - A
        rng = np.random.default_rng(m + n + r + s)
        A = truncate(rng.standard_normal((m, n)), r)
        X = random_point(rng, m, n, s, max(r, s))
        obj = QuadraticDistance(A)
        G = obj.gradient(X)
        L, R = G.L, G.R
        assert L.shape == (m, s + r) and R.shape == (n, s + r)
        D = ambient_dense(X) - ambient_dense(A)
        assert np.allclose(L @ R.T, D, atol=1e-13 * np.linalg.norm(D))
        assert obj.value(X) == pytest.approx(0.5 * np.sum(D**2), rel=1e-12)

    @pytest.mark.parametrize("m, n, r, s", SHAPES)
    def test_cone_projection_of_the_pair_matches_dense(self, m, n, r, s):
        # at s = k (tangent space only) and at s < k (perp block included)
        rng = np.random.default_rng(10 * (m + n + r + s))
        A = truncate(rng.standard_normal((m, n)), r)
        for k in (s, min(m, n, s + 2)):
            X = random_point(rng, m, n, s, k)
            G, g = project_cone(X, QuadraticDistance(A).gradient(X))
            E, e = project_cone(X, ambient_dense(X) - ambient_dense(A))
            assert G.perp.rank == E.perp.rank == min(k - s, m - s, n - s)
            scale = np.linalg.norm(ambient_dense(E))
            assert np.abs(ambient_dense(G) - ambient_dense(E)).max() <= 1e-12 * scale
            assert g == pytest.approx(e, rel=1e-12)

    def test_no_qr_and_no_svd_at_full_rank(self, monkeypatch):
        # at s = k the value is factored_diff_norm's and the cone projection
        # is the tangent space's thin products: no factorization at all
        rng = np.random.default_rng(11)
        A = truncate(rng.standard_normal((30, 20)), 5)
        X = random_point(rng, 30, 20, 5, 5)
        qrs, svds = count_qr_calls(monkeypatch), count_svd_calls(monkeypatch)
        obj = QuadraticDistance(A)
        obj.value(X)
        project_cone(X, obj.gradient(X))
        assert qrs == [] and svds == []

    def test_five_qrs_and_two_svds_at_a_deficient_point(self, monkeypatch):
        # at s < k the cone projection truncates the pair with the base
        # spaces projected out (2 QRs, 1 SVD), takes its scale ||F|| (1 QR)
        # and truncates the kept modes against the base spaces once more
        # (2 QRs, 1 SVD)
        rng = np.random.default_rng(12)
        A = truncate(rng.standard_normal((50, 6)) @ rng.standard_normal((6, 40)), 6)
        X = random_point(rng, 50, 40, 3, 6)
        qrs, svds = count_qr_calls(monkeypatch), count_svd_calls(monkeypatch)
        obj = QuadraticDistance(A)
        obj.value(X)
        project_cone(X, obj.gradient(X))
        assert len(qrs) == 5 and len(svds) == 2

    @pytest.mark.parametrize("m, n, r, s, k", [(30, 20, 6, 2, 6), (20, 30, 3, 2, 7), (25, 25, 4, 0, 8)])
    def test_pair_gradient_meets_the_lower_bound(self, m, n, r, s, k):
        # r < k in the last two: the target alone cannot fill the budget
        rng = np.random.default_rng(m + 2 * n + r + s + k)
        A = truncate(rng.standard_normal((m, r)) @ rng.standard_normal((r, n)), r)
        X = random_point(rng, m, n, s, k)
        G = QuadraticDistance(A).gradient(X)
        L, R = G.L, G.R
        expect = np.sqrt((k - s) / min(m - s, n - s)) * np.linalg.norm(L @ R.T)
        bound = g_lower_bound(X, ThinPair(L, R))
        assert bound == pytest.approx(expect, rel=1e-13, abs=0)
        _, g = project_cone(X, ThinPair(L, R))
        assert g >= bound

    def test_one_residual_per_point(self, monkeypatch):
        calls = []
        real = objectives.factored_diff_norm
        monkeypatch.setattr(
            objectives, "factored_diff_norm", lambda A, B: calls.append(B) or real(A, B)
        )
        rng = np.random.default_rng(5)
        obj = QuadraticDistance(truncate(rng.standard_normal((9, 8)), 4))
        X = random_point(rng, 9, 8, 3, 4)
        f = obj.value(X)
        G = obj.gradient(X)
        L, R = G.L, G.R
        assert calls == [X.point]
        fresh = QuadraticDistance(obj.target)
        assert f == fresh.value(X)
        fresh_G = fresh.gradient(X)
        assert all(map(np.array_equal, (L, R), (fresh_G.L, fresh_G.R)))

    def test_value_builds_no_pair_and_gradient_builds_one(self, monkeypatch):
        built = []

        class CountedPair(ThinPair):
            def __init__(self, L, R):
                built.append(L.shape[1])
                super().__init__(L, R)

        monkeypatch.setattr(objectives, "ThinPair", CountedPair)
        rng = np.random.default_rng(6)
        A = truncate(rng.standard_normal((9, 8)), 4)
        obj = QuadraticDistance(A)
        X = random_point(rng, 9, 8, 3, 4)
        at_target = VarietyPoint(FactoredMatrix(A.U.copy(), A.sigma.copy(), A.V.copy()), 4)
        for point in (X, at_target):
            obj.value(point)
        assert built == []
        for point in (X, at_target):
            obj.gradient(point)
        # the target itself gets the same pair as any point: X's block and A's
        assert built == [3 + 4, 4 + 4]

    def test_gradient_of_a_fresh_instance_is_the_one_after_value(self):
        rng = np.random.default_rng(8)
        A = truncate(rng.standard_normal((12, 10)), 4)
        for s, k in ((3, 4), (4, 4), (2, 6)):
            X = random_point(rng, 12, 10, s, k)
            obj = QuadraticDistance(A)
            obj.value(X)
            after_value = obj.gradient(X)
            fresh = QuadraticDistance(A).gradient(X)
            assert np.array_equal(after_value.L, fresh.L) and np.array_equal(after_value.R, fresh.R)

    def test_dim_mismatch(self):
        obj = QuadraticDistance(truncate(np.ones((6, 5)), 1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            obj.value(zero_point(5, 6, 1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            obj.gradient(zero_point(5, 6, 1))


def test_completion_alone_keeps_a_residual_slot():
    # the slot saves a gather per point on completion alone, which owns it
    for name in ("_last", "_residual", "_keep_residual"):
        assert name in vars(MatrixCompletion)
        assert name not in vars(QuadraticDistance)


class TestFiniteDifferences:
    # central differences with h = 1e-6 against the structured gradients,
    # 100 random ambient directions each on 10x8 instances
    H = 1e-6

    def _check(self, obj, X, f_dense, rng):
        g = ambient_dense(obj.gradient(X))
        Xd = ambient_dense(X)
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

        assert obj.value(X) == pytest.approx(f_dense(ambient_dense(X)), rel=1e-12)
        self._check(obj, X, f_dense, rng)

    def test_quadratic_gradient(self):
        rng = np.random.default_rng(4)
        A = truncate(rng.standard_normal((10, 8)), 5)
        obj = QuadraticDistance(A)
        X = random_point(rng, 10, 8, 4, 5)
        Ad = ambient_dense(A)

        def f_dense(Y):
            return 0.5 * np.sum((Y - Ad) ** 2)

        assert obj.value(X) == pytest.approx(f_dense(ambient_dense(X)), rel=1e-10)
        self._check(obj, X, f_dense, rng)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        mask = IndexSet((6, 6), *np.nonzero(rng.random((6, 6)) < 0.4))
        target = truncate(rng.standard_normal((6, 6)), 2)
        vals = ambient_dense(target)[mask.rows, mask.cols]
        problem = MatrixCompletion(SparseOnMask(mask, vals))
        save_completion(tmp_path / "prob", problem, target)
        back, tgt = load_completion(tmp_path / "prob")
        assert back.shape == (6, 6)
        assert same_index_set(back.mask, mask)
        assert np.array_equal(back.data.values, vals)
        assert np.array_equal(tgt.sigma, target.sigma)

    def test_roundtrip_without_target(self, tmp_path):
        mask = IndexSet((3, 3), [0, 1], [1, 2])
        problem = MatrixCompletion(SparseOnMask(mask, [1.0, 2.0]))
        save_completion(tmp_path / "p2", problem)
        back, tgt = load_completion(tmp_path / "p2")
        assert tgt is None
        assert np.array_equal(back.data.values, [1.0, 2.0])

    def test_two_column_values_rejected(self, tmp_path):
        # four values on two lines match a four-entry mask once flattened,
        # but values.csv holds one value per line
        mask = IndexSet((3, 3), [0, 1, 2, 2], [1, 2, 0, 1])
        problem = MatrixCompletion(SparseOnMask(mask, [1.0, 2.0, 3.0, 4.0]))
        save_completion(tmp_path / "p", problem)
        (tmp_path / "p" / "values.csv").write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="one column"):
            load_completion(tmp_path / "p")
