import time

import numpy as np
import pytest

from rankdescent.core import FactoredMatrix, IndexSet, SparseOnMask, truncate
from rankdescent.geometry import (
    VarietyPoint,
    choose_flat_direction,
    g_lower_bound,
    make_point,
    partial_directions,
    project_cone,
    project_tangent_space,
    random_point,
    retract,
    zero_point,
)
from helpers import random_cone_vector, random_instance, zero_tangent


def tangent_projector_oracle(X, F):
    # U U^T F + F V V^T - U U^T F V V^T, written out densely
    U, V = X.point.U, X.point.V
    Pu = U @ U.T
    Pv = V @ V.T
    return Pu @ F + F @ Pv - Pu @ F @ Pv


def cone_projection_oracle(X, F):
    T = tangent_projector_oracle(X, F)
    rest = truncate(F - T, X.k - X.s).dense()
    return T + rest


class TestTangentSpace:
    def test_zero_input(self):
        X = random_point(np.random.default_rng(0), 4, 3, 2, 3)
        xi = project_tangent_space(X, np.zeros((4, 3)))
        assert xi.norm() == 0.0

    def test_hand_example(self):
        # X = e1 e1^T in 2x2, F = I -> projector formula gives diag(1, 0)
        X = VarietyPoint(FactoredMatrix(np.eye(2)[:, :1], [1.0], np.eye(2)[:, :1]), 1)
        xi = project_tangent_space(X, np.eye(2))
        assert np.allclose(xi.dense(), np.diag([1.0, 0.0]), atol=1e-14)

    def test_matches_projector_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            X, F = random_instance(rng)
            xi = project_tangent_space(X, F)
            assert np.allclose(xi.dense(), tangent_projector_oracle(X, F), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            X, F = random_instance(rng)
            once = project_tangent_space(X, F)
            twice = project_tangent_space(X, once.dense())
            assert np.max(np.abs(once.dense() - twice.dense())) <= 1e-13 * (1 + np.abs(F).max())

    def test_dim_mismatch(self):
        X = random_point(np.random.default_rng(3), 4, 3, 2, 3)
        with pytest.raises(ValueError):
            project_tangent_space(X, np.zeros((3, 4)))


class TestConeProjection:
    def test_zero_input(self):
        X = random_point(np.random.default_rng(4), 5, 4, 1, 3)
        G, g = project_cone(X, np.zeros((5, 4)))
        assert g == 0.0 and G.is_zero()

    def test_cone_at_zero_point(self):
        # at X = 0 the cone is all rank <= k matrices: best rank-1 of diag(3,1)
        X = zero_point(2, 2, 1)
        G, g = project_cone(X, np.diag([3.0, 1.0]))
        assert np.allclose(G.dense(), np.diag([3.0, 0.0]), atol=1e-13)
        assert g == pytest.approx(3.0, rel=1e-13)

    def test_full_rank_reduces_to_tangent(self):
        rng = np.random.default_rng(5)
        X, F = random_instance(rng, s=10)  # s clipped to k
        assert X.s == X.k
        G, g = project_cone(X, F)
        assert G.perp_rank == 0
        assert np.allclose(G.dense(), tangent_projector_oracle(X, F), atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            X, F = random_instance(rng)
            G, g = project_cone(X, F)
            oracle = cone_projection_oracle(X, F)
            assert np.allclose(G.dense(), oracle, atol=1e-11)
            assert g == pytest.approx(np.linalg.norm(oracle), rel=1e-11, abs=1e-13)

    def test_negation_commutes_with_projection(self):
        # the cone is closed under sign, so P(-F) = -P(F): the tangent blocks
        # agree bitwise, the perp truncation up to roundoff
        rng = np.random.default_rng(17)
        seen = 0
        for _ in range(200):
            X, F = random_instance(rng)
            if X.s == X.k:
                continue
            seen += 1
            G, g = project_cone(X, F)
            H, h = project_cone(X, -F)
            N = -G
            assert h == pytest.approx(g, rel=1e-12)
            for name in ("core", "up", "vp"):
                assert np.array_equal(getattr(N, name), getattr(H, name)), name
            assert N.perp_rank == H.perp_rank
            if N.perp is not None:
                scale = max(1.0, np.linalg.norm(F))
                assert np.allclose(N.perp.dense(), H.perp.dense(), rtol=0, atol=1e-12 * scale)
        assert seen > 50

    @staticmethod
    def _perp_oracle(X, D):
        # the dense formula: best rank-(k-s) approximation of (I-UU')D(I-VV')
        U, V = X.point.U, X.point.V
        rest = D - U @ (U.T @ D)
        rest = rest - (rest @ V) @ V.T
        return truncate(rest, X.k - X.s).dense()

    def test_masked_perp_matches_dense_formula(self):
        rng = np.random.default_rng(23)
        for m, n, s, k in ((30, 25, 2, 6), (25, 30, 0, 4), (40, 40, 5, 8), (12, 9, 3, 9)):
            X = random_point(rng, m, n, s, k)
            mask = IndexSet((m, n), *np.nonzero(rng.random((m, n)) < 0.5))
            F = SparseOnMask(mask, rng.standard_normal(len(mask)))
            D = F.dense()
            G, _ = project_cone(X, F)
            oracle = self._perp_oracle(X, D)
            assert np.linalg.norm(G.perp.dense() - oracle) <= 1e-10 * np.linalg.norm(oracle)
            dense_G, _ = project_cone(X, D)
            assert np.linalg.norm(G.dense() - dense_G.dense()) <= 1e-10 * np.linalg.norm(D)

    def test_factored_perp_matches_dense_formula(self):
        # the last three have s + rank(F) > min(m, n)
        rng = np.random.default_rng(29)
        for m, n, s, k, rank in ((30, 25, 3, 8, 6), (7, 6, 3, 6, 5), (6, 7, 2, 5, 6), (9, 9, 4, 7, 9)):
            X = random_point(rng, m, n, s, k)
            F = truncate(rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)), rank)
            D = F.dense()
            G, _ = project_cone(X, F)
            oracle = self._perp_oracle(X, D)
            assert np.linalg.norm(G.perp.dense() - oracle) <= 1e-12 * np.linalg.norm(D)

    def test_pythagoras(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            X, F = random_instance(rng)
            G, g = project_cone(X, F)
            lhs = g**2
            rhs = np.linalg.norm(F) ** 2 - np.linalg.norm(F - G.dense()) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_lower_bound_formula(self):
        # s=0, k=1, m=n=2, ||F|| = sqrt(10) -> sqrt(1/2)*sqrt(10)
        X = zero_point(2, 2, 1)
        F = np.diag([3.0, 1.0])
        bound = g_lower_bound(X, F)
        assert bound == pytest.approx(np.sqrt(0.5) * np.sqrt(10.0), rel=1e-12)
        G, g = project_cone(X, F)
        assert g >= bound - 1e-12

    def test_lower_bound_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            X, F = random_instance(rng)
            if X.s == X.k:
                assert g_lower_bound(X, F) == 0.0
                continue
            _, g = project_cone(X, F)
            assert g >= g_lower_bound(X, F) - 1e-12

    def test_full_budget_keeps_everything(self):
        # k - s = min(m-s, n-s): the projection is all of F
        rng = np.random.default_rng(9)
        X = random_point(rng, 5, 4, 1, 4)
        F = rng.standard_normal((5, 4))
        assert g_lower_bound(X, F) == pytest.approx(np.linalg.norm(F), rel=1e-12)
        G, g = project_cone(X, F)
        assert g == pytest.approx(np.linalg.norm(F), rel=1e-12)

    def test_beats_random_cone_elements(self):
        # sampling oracle on 3x4 with k=2, each s in {0, 1, 2}
        rng = np.random.default_rng(10)
        N = 10**5
        for s in (0, 1, 2):
            X = random_point(rng, 3, 4, s, 2)
            F = rng.standard_normal((3, 4))
            G, _ = project_cone(X, F)
            best = np.linalg.norm(F - G.dense())
            U, V = X.point.U, X.point.V
            # batch of random cone elements: tangent block + rank-(k-s) perp
            tangent = np.zeros((N, 3, 4))
            if s:
                C = rng.standard_normal((N, s, s))
                Up = rng.standard_normal((N, 3, s))
                Vp = rng.standard_normal((N, 4, s))
                Up -= np.einsum("ij,njk->nik", U @ U.T, Up)
                Vp -= np.einsum("ij,njk->nik", V @ V.T, Vp)
                tangent = (
                    np.einsum("ia,nab,jb->nij", U, C, V)
                    + np.einsum("nia,ja->nij", Up, V)
                    + np.einsum("ia,nja->nij", U, Vp)
                )
            p = 2 - s
            if p:
                L = rng.standard_normal((N, 3, p))
                R = rng.standard_normal((N, 4, p))
                if s:
                    L -= np.einsum("ij,njk->nik", U @ U.T, L)
                    R -= np.einsum("ij,njk->nik", V @ V.T, R)
                tangent = tangent + L @ np.transpose(R, (0, 2, 1))
            dists = np.linalg.norm(F - tangent, axis=(1, 2))
            assert np.all(dists >= best - 1e-12)


class TestRetraction:
    def test_zero_step(self):
        rng = np.random.default_rng(11)
        X = random_point(rng, 5, 4, 2, 3)
        xi = random_cone_vector(rng, X)
        assert retract(X, xi, 0.0) is X
        assert retract(X, zero_tangent(X), 1.0) is X

    def test_negative_step_rejected(self):
        rng = np.random.default_rng(12)
        X = random_point(rng, 4, 4, 2, 2)
        xi = random_cone_vector(rng, X)
        with pytest.raises(ValueError):
            retract(X, xi, -0.5)

    def test_symmetric_2x2_example(self):
        # X = 2 e1 e1^T, k = 1, xi = e1 e2^T + e2 e1^T: X + xi has eigenvalues
        # 1 +- sqrt(2); rank-1 truncation error is sqrt(2) - 1
        X = VarietyPoint(FactoredMatrix(np.eye(2)[:, :1], [2.0], np.eye(2)[:, :1]), 1)
        from rankdescent.geometry import ConeTangentVector

        xi = ConeTangentVector(
            X, np.zeros((1, 1)), np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])
        )
        assert np.allclose(xi.dense(), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)
        R = retract(X, xi, 1.0)
        err = np.linalg.norm(R.dense() - (X.dense() + xi.dense()))
        assert err == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)
        assert err <= (1 / np.sqrt(2.0)) * xi.norm() + 1e-12

    def test_matches_dense_truncation(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            X, _ = random_instance(rng)
            xi = random_cone_vector(rng, X)
            alpha = float(rng.uniform(0.0, 2.0))
            R = retract(X, xi, alpha)
            oracle = truncate(X.dense() + alpha * xi.dense(), X.k).dense()
            assert np.allclose(R.dense(), oracle, atol=1e-12 * (1 + np.abs(oracle).max()))

    def test_stability_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            X, _ = random_instance(rng)
            xi = random_cone_vector(rng, X)
            R = retract(X, xi, 1.0)
            err = np.linalg.norm(R.dense() - (X.dense() + xi.dense()))
            assert err <= xi.norm() / np.sqrt(2.0) + 1e-12

    def test_first_order_property(self):
        # ||R(X, a*xi) - (X + a*xi)|| / a decreases monotonically as a -> 0
        from rankdescent.geometry import ConeTangentVector

        rng = np.random.default_rng(15)
        for _ in range(20):
            m, n, k = 6, 5, 3
            X = random_point(rng, m, n, k, k)
            raw = random_cone_vector(rng, X)  # tangent-space direction (s = k)
            t = 0.5 / raw.norm()  # unit-scale step keeps a*xi in the local regime
            xi = ConeTangentVector(X, t * raw.core, t * raw.up, t * raw.vp)
            ratios = []
            for j in range(1, 11):
                a = 2.0**-j
                err = np.linalg.norm(retract(X, xi, a).dense() - (X.dense() + a * xi.dense()))
                ratios.append(err / a)
            ratios = np.array(ratios)
            assert np.all(np.diff(ratios) <= 1e-9 + 1e-6 * ratios[:-1])


class TestRetractFlatDirections:
    def test_exactness_and_rank(self):
        # along a flat direction X + alpha * xi has rank at most s + perp
        # rank <= k, so retract truncates nothing and returns it exactly
        rng = np.random.default_rng(16)
        for _ in range(100):
            X, F = random_instance(rng)
            g1, g2 = partial_directions(X, F)
            for gi in (g1, g2):
                bound = X.s + gi.perp_rank
                for alpha in (0.1, 1.0, 10.0):
                    Y = retract(X, gi, alpha)
                    target = X.dense() + alpha * gi.dense()
                    assert np.allclose(Y.dense(), target, atol=1e-11 * (1 + np.abs(target).max()))
                    assert Y.s <= bound
                    sv = np.linalg.svd(target, compute_uv=False)
                    assert (sv > 1e-10 * max(sv[0], 1e-300)).sum() <= bound

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_step_raises_promptly(self):
        # the middle matrix of X + alpha * xi overflows; its SVD may not
        # return, so the update refuses it up front. Under the line search's
        # errstate the overflow surfaces as FloatingPointError instead.
        rng = np.random.default_rng(18)
        X = random_point(rng, 30, 20, 3, 5)
        xi = random_cone_vector(rng, X)
        g1, _ = partial_directions(X, None, xi)
        for direction in (xi, g1):
            for alpha in (1e307, 1e308):
                start = time.perf_counter()
                with pytest.raises(ValueError, match="non-finite"):
                    retract(X, direction, alpha)
                assert time.perf_counter() - start < 5.0
                with np.errstate(over="raise", invalid="raise"):
                    with pytest.raises(FloatingPointError):
                        retract(X, direction, alpha)


class TestPartialDirections:
    def test_zero(self):
        rng = np.random.default_rng(18)
        X = random_point(rng, 4, 4, 2, 3)
        g1, g2 = partial_directions(X, np.zeros((4, 4)))
        assert g1.is_zero() and g2.is_zero()

    def test_core_only_input(self):
        rng = np.random.default_rng(19)
        X = random_point(rng, 5, 4, 2, 3)
        U, V = X.point.U, X.point.V
        F = U @ rng.standard_normal((2, 2)) @ V.T
        g1, g2 = partial_directions(X, F)
        assert np.allclose(g1.dense(), F, atol=1e-12)
        assert np.allclose(g2.dense(), F, atol=1e-12)

    def test_norm_split(self):
        rng = np.random.default_rng(20)
        X = random_point(rng, 3, 4, 1, 2)
        F = rng.standard_normal((3, 4))
        G, g = project_cone(X, F)
        g1, g2 = partial_directions(X, F, G)
        assert g1.norm() ** 2 + np.sum(G.up**2) == pytest.approx(g**2, rel=1e-12)
        assert g2.norm() ** 2 + np.sum(G.vp**2) == pytest.approx(g**2, rel=1e-12)
        for gi in (g1, g2):
            sv = np.linalg.svd(X.dense() + gi.dense(), compute_uv=False)
            assert (sv > 1e-10 * sv[0]).sum() <= 2

    def test_flat_factors_have_width_s(self):
        # G1 and G2 fold their zero block away: width s + perp_rank, while
        # the full projection keeps width 2s + perp_rank
        rng = np.random.default_rng(21)
        for s, k in ((3, 3), (2, 4), (0, 2)):
            X = random_point(rng, 9, 7, s, k)
            F = rng.standard_normal((9, 7))
            G, _ = project_cone(X, F)
            assert G.perp_rank == k - s
            for gi, width in ((G, 2 * s), *((g, s) for g in partial_directions(X, F, G))):
                L, R = gi.factors()
                assert L.shape[1] == R.shape[1] == width + gi.perp_rank
                D = gi.dense()
                assert np.max(np.abs(L @ R.T - D), initial=0.0) <= 1e-13 * (1 + np.abs(D).max())


class TestChooseFlat:
    def test_symmetric_tie_returns_g1(self):
        # integer symmetric data makes both one-sided norms bitwise equal,
        # so the tie-break is exercised exactly and must pick G1
        E = np.eye(4)[:, :2]
        X = VarietyPoint(FactoredMatrix(E, [2.0, 1.0], E), 3)
        F = np.array(
            [[1.0, 2, 3, 4], [2, 5, 6, 7], [3, 6, 8, 9], [4, 7, 9, 10]]
        )
        g1, g2 = partial_directions(X, F)
        assert np.sum(g1.vp**2) == np.sum(g2.up**2)
        xi = choose_flat_direction(X, F)
        assert not xi.up.any()
        assert xi.vp.any()

    def test_one_sided_input_gives_full_projection(self):
        # F with zero up block: G1 is chosen and equals the full projection
        rng = np.random.default_rng(22)
        X = random_point(rng, 5, 4, 2, 3)
        U, V = X.point.U, X.point.V
        F = U @ rng.standard_normal((2, 4))  # column space inside span(U)
        G, _ = project_cone(X, F)
        xi = choose_flat_direction(X, F)
        assert not xi.up.any()
        assert np.allclose(xi.dense(), G.dense(), atol=1e-12)

    def test_angle_condition_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            X, F = random_instance(rng)
            G, g = project_cone(X, F)
            if g == 0.0:
                continue
            xi = choose_flat_direction(X, F, G)
            n = xi.norm()
            # treating F as the antigradient: <F, xi> >= (1/sqrt(2)) g ||xi||
            inner = np.vdot(F, xi.dense())
            assert inner >= (1 / np.sqrt(2.0)) * g * n - 1e-12 * max(1.0, g * n)
            assert n**2 >= 0.5 * g**2 - 1e-12


class TestMediumScale:
    # the randomized suites stay tiny; this one cross-checks the structured
    # paths against dense oracles at a size where blocking bugs would show
    def test_cone_and_retraction_against_dense(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            s = int(rng.integers(0, 11))
            X = random_point(rng, 40, 30, s, 10)
            F = rng.standard_normal((40, 30))
            G, g = project_cone(X, F)
            oracle = cone_projection_oracle(X, F)
            scale = np.abs(oracle).max() + 1.0
            assert np.allclose(G.dense(), oracle, atol=1e-11 * scale)
            xi = random_cone_vector(rng, X)
            R = retract(X, xi, 0.7)
            dense = truncate(X.dense() + 0.7 * xi.dense(), 10).dense()
            assert np.allclose(R.dense(), dense, atol=1e-11 * (np.abs(dense).max() + 1.0))


class TestVarietyPoint:
    def test_rank_budget_enforced(self):
        with pytest.raises(ValueError):
            VarietyPoint(truncate(np.eye(3), 2), 1)

    def test_zero_sigma_rejected(self):
        F = FactoredMatrix(np.eye(2), [1.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            VarietyPoint(F, 2)
        assert make_point(F, 2).s == 1
