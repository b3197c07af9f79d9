import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings, strategies as st

from rankdescent import core
from rankdescent.core import FactoredMatrix, IndexSet, SparseOnMask, ThinPair, truncate
from rankdescent.geometry import (
    ConeTangentVector,
    VarietyPoint,
    choose_flat_direction,
    g_lower_bound,
    project_cone,
    project_tangent_space,
    random_point,
    retract,
)
from rankdescent.linesearch import angle_check
from rankdescent.objectives import MatrixCompletion, QuadraticDistance
from rankdescent.solvers import VARIANTS
from helpers import (
    ambient_dense,
    count_qr_calls,
    count_svd_calls,
    draw_point_and_gradient,
    partial_directions,
    random_cone_vector,
    random_instance,
    random_perp,
    zero_point,
    zero_tangent,
)


def tangent_projector_oracle(X, F):
    # U U^T F + F V V^T - U U^T F V V^T, written out densely
    U, V = X.point.U, X.point.V
    Pu = U @ U.T
    Pv = V @ V.T
    return Pu @ F + F @ Pv - Pu @ F @ Pv


def cone_projection_oracle(X, F):
    T = tangent_projector_oracle(X, F)
    rest = ambient_dense(truncate(F - T, X.k - X.s))
    return T + rest


class TestTangentSpace:
    def test_zero_input(self):
        X = random_point(np.random.default_rng(0), 4, 3, 2, 3)
        xi = project_tangent_space(X, np.zeros((4, 3)))
        assert xi.norm == 0.0

    def test_hand_example(self):
        # X = e1 e1^T in 2x2, F = I -> projector formula gives diag(1, 0)
        X = VarietyPoint(FactoredMatrix(np.eye(2)[:, :1], [1.0], np.eye(2)[:, :1]), 1)
        xi = project_tangent_space(X, np.eye(2))
        assert np.allclose(ambient_dense(xi), np.diag([1.0, 0.0]), atol=1e-14)

    def test_matches_projector_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            X, F = random_instance(rng)
            xi = project_tangent_space(X, F)
            assert np.allclose(ambient_dense(xi), tangent_projector_oracle(X, F), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            X, F = random_instance(rng)
            once = project_tangent_space(X, F)
            twice = project_tangent_space(X, ambient_dense(once))
            assert np.max(np.abs(ambient_dense(once) - ambient_dense(twice))) <= 1e-13 * (1 + np.abs(F).max())

    def test_dim_mismatch(self):
        X = random_point(np.random.default_rng(3), 4, 3, 2, 3)
        with pytest.raises(ValueError):
            project_tangent_space(X, np.zeros((3, 4)))

    @pytest.mark.parametrize("m, n, s", [(80, 60, 5), (60, 80, 1), (50, 50, 0)])
    def test_csr_products_on_lanes_are_bitwise_the_one_lane_products(self, monkeypatch, m, n, s):
        rng = np.random.default_rng(m + s)
        F = scipy.sparse.random(m, n, density=0.2, format="csr", random_state=rng)
        X = random_point(rng, m, n, s, s + 1)
        results = []
        for threshold in (np.inf, 0):
            monkeypatch.setattr(core, "PARALLEL_MIN_WORK", threshold)
            results.append(project_tangent_space(X, F))
        one, two = results
        for block in ("core", "up", "vp"):
            assert np.array_equal(getattr(one, block), getattr(two, block))


class TestConeProjection:
    def test_zero_input(self):
        X = random_point(np.random.default_rng(4), 5, 4, 1, 3)
        G, g = project_cone(X, np.zeros((5, 4)))
        assert g == 0.0 and G.norm == 0.0

    def test_cone_at_zero_point(self):
        # at X = 0 the cone is all rank <= k matrices: best rank-1 of diag(3,1)
        X = zero_point(2, 2, 1)
        G, g = project_cone(X, np.diag([3.0, 1.0]))
        assert np.allclose(ambient_dense(G), np.diag([3.0, 0.0]), atol=1e-13)
        assert g == pytest.approx(3.0, rel=1e-13)

    def test_full_rank_reduces_to_tangent(self):
        rng = np.random.default_rng(5)
        X, F = random_instance(rng, s=10)  # s clipped to k
        assert X.s == X.k
        G, g = project_cone(X, F)
        assert G.perp.rank == 0
        assert np.allclose(ambient_dense(G), tangent_projector_oracle(X, F), atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            X, F = random_instance(rng)
            G, g = project_cone(X, F)
            oracle = cone_projection_oracle(X, F)
            assert np.allclose(ambient_dense(G), oracle, atol=1e-11)
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
            assert N.perp.rank == H.perp.rank
            if N.perp is not None:
                scale = max(1.0, np.linalg.norm(F))
                assert np.allclose(ambient_dense(N.perp), ambient_dense(H.perp), rtol=0, atol=1e-12 * scale)
        assert seen > 50

    def test_negation_keeps_a_zero_perp_and_negates_a_nonzero_one(self):
        rng = np.random.default_rng(25)
        X = random_point(rng, 7, 6, 3, 3)
        G, _ = project_cone(X, rng.standard_normal((7, 6)))
        assert G.perp.rank == 0
        assert (-G).perp is G.perp
        X = random_point(rng, 7, 6, 2, 4)
        G = random_cone_vector(rng, X)
        N = -G
        assert N.perp.rank == G.perp.rank == 2
        assert np.array_equal(ambient_dense(N.perp), -ambient_dense(G.perp))
        assert np.array_equal(ambient_dense(N), -ambient_dense(G))

    @staticmethod
    def _perp_oracle(X, D):
        # the dense formula: best rank-(k-s) approximation of (I-UU')D(I-VV')
        U, V = X.point.U, X.point.V
        rest = D - U @ (U.T @ D)
        rest = rest - (rest @ V) @ V.T
        return ambient_dense(truncate(rest, X.k - X.s))

    def test_masked_perp_matches_dense_formula(self):
        rng = np.random.default_rng(23)
        for m, n, s, k in ((30, 25, 2, 6), (25, 30, 0, 4), (40, 40, 5, 8), (12, 9, 3, 9)):
            X = random_point(rng, m, n, s, k)
            mask = IndexSet((m, n), *np.nonzero(rng.random((m, n)) < 0.5))
            F = SparseOnMask(mask, rng.standard_normal(len(mask)))
            D = ambient_dense(F)
            G, _ = project_cone(X, F.csr)
            oracle = self._perp_oracle(X, D)
            assert np.linalg.norm(ambient_dense(G.perp) - oracle) <= 1e-10 * np.linalg.norm(oracle)
            dense_G, _ = project_cone(X, D)
            assert np.linalg.norm(ambient_dense(G) - ambient_dense(dense_G)) <= 1e-10 * np.linalg.norm(D)

    def test_factored_perp_matches_dense_formula(self):
        # the last three have s + rank(F) > min(m, n)
        rng = np.random.default_rng(29)
        for m, n, s, k, rank in ((30, 25, 3, 8, 6), (7, 6, 3, 6, 5), (6, 7, 2, 5, 6), (9, 9, 4, 7, 9)):
            X = random_point(rng, m, n, s, k)
            F = truncate(rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)), rank)
            D = ambient_dense(F)
            G, _ = project_cone(X, ThinPair(F.U * F.sigma, F.V))
            oracle = self._perp_oracle(X, D)
            assert np.linalg.norm(ambient_dense(G.perp) - oracle) <= 1e-12 * np.linalg.norm(D)

    def test_pythagoras(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            X, F = random_instance(rng)
            G, g = project_cone(X, F)
            lhs = g**2
            rhs = np.linalg.norm(F) ** 2 - np.linalg.norm(F - ambient_dense(G)) ** 2
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
            best = np.linalg.norm(F - ambient_dense(G))
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

    @pytest.mark.parametrize("s, k", [(3, 3), (2, 5)])
    def test_one_matrix_given_three_ways_projects_alike(self, s, k):
        # a gradient is any operand with shape, T and @: the dense array, its
        # CSR matrix and the ThinPair of its factors give one projection,
        # through the tangent space alone at s = k and with a perp block
        # from LAPACK, ARPACK and thin QRs respectively at s < k
        rng = np.random.default_rng(31)
        L, R = rng.standard_normal((12, 4)), rng.standard_normal((9, 4))
        D = L @ R.T
        X = random_point(rng, 12, 9, s, k)
        forms = (D, scipy.sparse.csr_matrix(D), ThinPair(L, R))
        (G, g), *others = (project_cone(X, F) for F in forms)
        bound = g_lower_bound(X, D)
        assert G.perp.rank == k - s
        for H, h in others:
            assert H.perp.rank == k - s
            assert np.linalg.norm(ambient_dense(H) - ambient_dense(G)) <= 1e-12 * g
            assert h == pytest.approx(g, rel=1e-12, abs=0)
        for F in forms[1:]:
            assert g_lower_bound(X, F) == pytest.approx(bound, rel=1e-12, abs=0)
        assert (bound > 0) == (s < k)

    @staticmethod
    def _perp_drift(X, F):
        G, _ = project_cone(X, F)
        U, V = X.point.U, X.point.V
        drift = max(np.abs(U.T @ G.perp.U).max(initial=0.0), np.abs(V.T @ G.perp.V).max(initial=0.0))
        return drift, G.perp.rank

    def test_perp_factors_stay_orthogonal_to_the_base_near_convergence(self):
        # rank-4 points near a rank-4 target at k = 8, so ||F|| << ||X||: the
        # perp block's factors stay orthogonal to U and V at roundoff, not at
        # roundoff times ||X|| / ||F||, for each kind of gradient
        rng = np.random.default_rng(7)
        A = truncate(rng.standard_normal((60, 4)) @ rng.standard_normal((4, 50)), 4)
        noise = rng.standard_normal((60, 50))
        obj, ranks = QuadraticDistance(A), []
        for eps in 10.0 ** -np.arange(2, 14):
            X = VarietyPoint(truncate(ambient_dense(A) + eps * noise, 4), 8)
            G = obj.gradient(X)
            for F in (G, ambient_dense(G), scipy.sparse.csr_matrix(ambient_dense(G))):
                drift, rank = self._perp_drift(X, F)
                assert drift <= 1e-14
                ranks.append(rank)
        assert max(ranks) == 4

    def test_completion_perp_factors_stay_orthogonal_to_the_base_near_convergence(self):
        # a 40x40 completion problem of rank 2 at s = 2 < k = 5: the CSR
        # gradient's perp block through ARPACK
        rng = np.random.default_rng(11)
        B = ambient_dense(truncate(rng.standard_normal((40, 2)) @ rng.standard_normal((2, 40)), 2))
        mask = IndexSet((40, 40), *np.nonzero(rng.random((40, 40)) < 0.5))
        obj = MatrixCompletion(SparseOnMask(mask, B[mask.rows, mask.cols]))
        noise = rng.standard_normal((40, 40))
        for eps in (1e-2, 1e-6, 1e-10, 1e-13):
            X = VarietyPoint(truncate(B + eps * noise, 2), 5)
            drift, rank = self._perp_drift(X, obj.gradient(X))
            assert rank > 0 and drift <= 1e-14

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(st.data())
    def test_perp_factors_stay_orthogonal_to_the_base_on_generated_inputs(self, data):
        # near-tangent gradients F = U C V' + 10^-e L R' at s < k: the
        # remainder the perp block truncates is up to twelve decades below
        # ||F||, and its factors stay orthogonal to U and V at roundoff for
        # F given dense, as the ThinPair of its factors and on a mask
        X, _, rng = draw_point_and_gradient(data)
        assume(X.s < X.k)
        (m, n), s = X.shape, X.s
        U, V = X.point.U, X.point.V
        e = data.draw(st.integers(0, 12), "e")
        w = data.draw(st.integers(1, 3), "remainder width")
        C = rng.standard_normal((s, s))
        L, R = 10.0**-e * rng.standard_normal((m, w)), rng.standard_normal((n, w))
        F = ThinPair(np.hstack([U @ C, L]), np.hstack([V, R]))
        D = ambient_dense(F)
        form = data.draw(st.sampled_from(["dense", "thin", "masked"]), "form")
        if form == "dense":
            F = D
        elif form == "masked":
            mask = IndexSet((m, n), *np.nonzero(rng.random((m, n)) < 0.5))
            F = SparseOnMask(mask, D[mask.rows, mask.cols]).csr
        drift, _ = self._perp_drift(X, F)
        assert drift <= 1e-14

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(st.data())
    def test_contracts_on_generated_inputs(self, data):
        # X of rank s <= k with singular values generic, all tied or graded
        # over twelve decades; F dense, thin or on a half-density mask. G is
        # orthogonal to F - G, so <F, G> = ||G||^2 and g = ||G|| <= ||F||, and
        # the flat direction chosen from G, a partial projection of -G, meets
        # the angle condition at omega = 1/sqrt(2) with F as the gradient
        X, F, _ = draw_point_and_gradient(data)
        D = ambient_dense(F)
        f_norm = np.linalg.norm(D)
        G, g = project_cone(X, F)
        assert abs(np.vdot(D, ambient_dense(G)) - g**2) <= 1e-10 * max(1.0, f_norm**2)
        assert g <= f_norm * (1 + 1e-12)
        xi = choose_flat_direction(G)
        assert angle_check(np.vdot(D, ambient_dense(xi)), g, xi.norm, 1 / np.sqrt(2.0))


class TestRetraction:
    def test_zero_step(self):
        rng = np.random.default_rng(11)
        X = random_point(rng, 5, 4, 2, 3)
        xi = random_cone_vector(rng, X)
        for Y, distance in (retract(xi, 0.0), retract(zero_tangent(X), 1.0)):
            assert Y is X and distance == 0.0

    def test_step_onto_the_zero_matrix(self):
        # xi = -X is flat with up = vp = 0; at alpha = 1 every mode cancels,
        # so the retraction keeps none and polishes zero-width factors
        rng = np.random.default_rng(13)
        X = random_point(rng, 6, 5, 3, 4)
        xi = ConeTangentVector(X, -np.diag(X.point.sigma), np.zeros((6, 3)), np.zeros((5, 3)))
        assert xi.flat
        Y, distance = retract(xi, 1.0)
        assert Y.s == 0 and Y.point.U.shape == (6, 0) and Y.point.V.shape == (5, 0)
        assert distance == pytest.approx(np.linalg.norm(X.point.sigma), rel=1e-15)

    def test_negative_step_rejected(self):
        rng = np.random.default_rng(12)
        X = random_point(rng, 4, 4, 2, 2)
        xi = random_cone_vector(rng, X)
        with pytest.raises(ValueError):
            retract(xi, -0.5)

    def test_symmetric_2x2_example(self):
        # X = 2 e1 e1^T, k = 1, xi = e1 e2^T + e2 e1^T: X + xi has eigenvalues
        # 1 +- sqrt(2); rank-1 truncation error is sqrt(2) - 1
        X = VarietyPoint(FactoredMatrix(np.eye(2)[:, :1], [2.0], np.eye(2)[:, :1]), 1)
        from rankdescent.geometry import ConeTangentVector

        xi = ConeTangentVector(
            X, np.zeros((1, 1)), np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])
        )
        assert np.allclose(ambient_dense(xi), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)
        R, _ = retract(xi, 1.0)
        err = np.linalg.norm(ambient_dense(R) - (ambient_dense(X) + ambient_dense(xi)))
        assert err == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)
        assert err <= (1 / np.sqrt(2.0)) * xi.norm + 1e-12

    def test_matches_dense_truncation(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            X, _ = random_instance(rng)
            xi = random_cone_vector(rng, X)
            alpha = float(rng.uniform(0.0, 2.0))
            R, _ = retract(xi, alpha)
            oracle = ambient_dense(truncate(ambient_dense(X) + alpha * ambient_dense(xi), X.k))
            assert np.allclose(ambient_dense(R), oracle, atol=1e-12 * (1 + np.abs(oracle).max()))

    def test_distance_matches_dense(self):
        # retract reads ||Y - X|| off the small middle matrix, at s = k and
        # s < k
        rng = np.random.default_rng(19)
        for _ in range(100):
            X, _ = random_instance(rng)
            xi = random_cone_vector(rng, X)
            alpha = float(rng.uniform(0.0, 2.0))
            Y, distance = retract(xi, alpha)
            dense = np.linalg.norm(ambient_dense(Y) - ambient_dense(X))
            assert distance == pytest.approx(dense, rel=1e-10, abs=1e-12)

    def test_stability_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            X, _ = random_instance(rng)
            xi = random_cone_vector(rng, X)
            R, _ = retract(xi, 1.0)
            err = np.linalg.norm(ambient_dense(R) - (ambient_dense(X) + ambient_dense(xi)))
            assert err <= xi.norm / np.sqrt(2.0) + 1e-12

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(st.data())
    def test_contracts_on_generated_inputs(self, data):
        # xi is sd's or rf's direction from a generated gradient, or a random
        # cone vector with a perp block of any rank up to k - s. Each retract
        # has rank <= k, its distance is the dense ||Y - X||, within
        # (1 + 1/sqrt(2)) alpha ||xi|| by the retraction bound; retracting
        # one xi at three step sizes in a drawn order, which shares its
        # cached bases, gives each point bitwise as a fresh copy of xi does.
        # After the trials, xi's norm (from block sums that sd and rf take
        # over from G) and its thin factors (from the kept side that its
        # flat trials shared) equal the fresh copy's bitwise, and the
        # factors give xi's dense embedding
        X, F, rng = draw_point_and_gradient(data)
        source = data.draw(st.sampled_from(["sd", "rf", "random"]), "xi")
        if source == "random":
            xi = random_cone_vector(rng, X, data.draw(st.integers(0, X.k - X.s), "perp rank"))
        else:
            xi = VARIANTS[source](project_cone(X, F)[0])
        alphas = [10.0 ** data.draw(st.floats(-3, 1), "log10 alpha") for _ in range(3)]
        D = ambient_dense(X)
        for alpha in data.draw(st.permutations(alphas), "order"):
            Y, distance = retract(xi, alpha)
            assert Y.k == X.k and Y.s <= X.k
            step = alpha * xi.norm
            tol = 1e-12 * (np.linalg.norm(X.point.sigma) + step)
            assert abs(distance - np.linalg.norm(ambient_dense(Y) - D)) <= tol
            assert distance <= (1 + 1 / np.sqrt(2.0)) * step + tol
            Z, fresh = retract(replace(xi), alpha)
            assert fresh == distance
            for name in ("U", "sigma", "V"):
                assert getattr(Z.point, name).tobytes() == getattr(Y.point, name).tobytes(), name
        copy = replace(xi)
        assert xi.norm == copy.norm
        for mine, theirs in zip(xi.factors(), copy.factors()):
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
        L, R = xi.factors()
        E = ambient_dense(xi)
        assert np.abs(L @ R.T - E).max(initial=0.0) <= 1e-13 * (1 + np.abs(E).max(initial=0.0))

    def test_first_order_property(self):
        # ||R(X, a*xi) - (X + a*xi)|| / a decreases monotonically as a -> 0
        from rankdescent.geometry import ConeTangentVector

        rng = np.random.default_rng(15)
        for _ in range(20):
            m, n, k = 6, 5, 3
            X = random_point(rng, m, n, k, k)
            raw = random_cone_vector(rng, X)  # tangent-space direction (s = k)
            t = 0.5 / raw.norm  # unit-scale step keeps a*xi in the local regime
            xi = ConeTangentVector(X, t * raw.core, t * raw.up, t * raw.vp)
            ratios = []
            for j in range(1, 11):
                a = 2.0**-j
                err = np.linalg.norm(ambient_dense(retract(xi, a)[0]) - (ambient_dense(X) + a * ambient_dense(xi)))
                ratios.append(err / a)
            ratios = np.array(ratios)
            assert np.all(np.diff(ratios) <= 1e-9 + 1e-6 * ratios[:-1])


class TestRetractFlatDirections:
    def test_flat_flag_and_distance(self):
        # the partial projections are flat, the full one is not while both
        # its up and vp blocks carry mass; a flat step's distance is
        # alpha * ||xi|| and matches the dense one
        rng = np.random.default_rng(23)
        for _ in range(50):
            X, F = random_instance(rng)
            G, _ = project_cone(X, F)
            if 0 < X.s < min(X.shape):
                assert not G.flat
            for gi in partial_directions(X, F, G):
                assert gi.flat
                Y, distance = retract(gi, 0.7)
                assert distance == 0.7 * gi.norm
                dense = np.linalg.norm(ambient_dense(Y) - ambient_dense(X))
                assert distance == pytest.approx(dense, rel=1e-10, abs=1e-12)

    def test_exactness_and_rank(self):
        # along a flat direction X + alpha * xi has rank at most s + perp
        # rank <= k, so retract truncates nothing and returns it exactly
        rng = np.random.default_rng(16)
        for _ in range(100):
            X, F = random_instance(rng)
            g1, g2 = partial_directions(X, F)
            for gi in (g1, g2):
                bound = X.s + gi.perp.rank
                for alpha in (0.1, 1.0, 10.0):
                    Y, _ = retract(gi, alpha)
                    target = ambient_dense(X) + alpha * ambient_dense(gi)
                    assert np.allclose(ambient_dense(Y), target, atol=1e-11 * (1 + np.abs(target).max()))
                    assert Y.s <= bound
                    sv = np.linalg.svd(target, compute_uv=False)
                    assert (sv > 1e-10 * max(sv[0], 1e-300)).sum() <= bound

    @pytest.mark.parametrize("s", [5, 3])
    def test_one_qr_per_flat_step(self, monkeypatch, s):
        # a flat step orthogonalizes only the side it changes, a full one
        # both, and either kind takes one SVD; at s = 3 < k = 5 the
        # direction carries a rank-2 perp block
        rng = np.random.default_rng(25 + s)
        X = random_point(rng, 30, 20, s, 5)
        xi = random_cone_vector(rng, X)
        g1, g2 = partial_directions(X, None, xi)
        assert xi.perp.rank == 5 - s and not xi.flat and g1.flat and g2.flat
        calls = count_qr_calls(monkeypatch)
        svds = count_svd_calls(monkeypatch)
        for direction, qrs in ((g1, 1), (g2, 1), (xi, 2)):
            calls.clear()
            svds.clear()
            retract(direction, 0.5)
            assert len(calls) == qrs and len(svds) == 1

    @pytest.mark.parametrize("s", [5, 3])
    def test_zero_up_step_is_the_transposed_zero_vp_step(self, s):
        # an up = 0 step is the vp = 0 step of the transposed point and
        # direction (U and V, up and vp, perp's factors swapped, core
        # transposed), with its factors swapped back: bitwise, at s = k and
        # at s = 3 < k = 5 with a rank-2 perp block
        rng = np.random.default_rng(40 + s)
        X = random_point(rng, 30, 20, s, 5)
        g1, _ = partial_directions(X, None, random_cone_vector(rng, X))
        assert not g1.up.any() and g1.vp.any() and g1.perp.rank == 5 - s
        F, P = X.point, g1.perp
        Xt = VarietyPoint(FactoredMatrix(F.V, F.sigma, F.U), X.k)
        gt = ConeTangentVector(Xt, g1.core.T, g1.vp, g1.up, FactoredMatrix(P.V, P.sigma, P.U))
        for alpha in (0.3, 2.0):
            Y, distance = retract(g1, alpha)
            Yt, distance_t = retract(gt, alpha)
            assert np.array_equal(Y.point.U, Yt.point.V) and np.array_equal(Y.point.V, Yt.point.U)
            assert np.array_equal(Y.point.sigma, Yt.point.sigma) and distance == distance_t

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_step_raises_promptly(self):
        # the matrix that retract decomposes overflows: the middle matrix of
        # xi, the changed side's factor of g1 (zero up) and of g2 (zero vp).
        # Its QR or SVD may not return, so the update refuses it up front.
        # Under the line search's errstate the overflow surfaces as
        # FloatingPointError instead.
        rng = np.random.default_rng(18)
        X = random_point(rng, 30, 20, 3, 5)
        xi = random_cone_vector(rng, X)
        g1, g2 = partial_directions(X, None, xi)
        for direction in (xi, g1, g2):
            for alpha in (1e307, 1e308):
                start = time.perf_counter()
                with pytest.raises(ValueError, match="non-finite"):
                    retract(direction, alpha)
                assert time.perf_counter() - start < 5.0
                with np.errstate(over="raise", invalid="raise"):
                    with pytest.raises(FloatingPointError):
                        retract(direction, alpha)


class TestPartialDirections:
    def test_zero(self):
        rng = np.random.default_rng(18)
        X = random_point(rng, 4, 4, 2, 3)
        g1, g2 = partial_directions(X, np.zeros((4, 4)))
        assert g1.norm == 0.0 and g2.norm == 0.0

    def test_core_only_input(self):
        rng = np.random.default_rng(19)
        X = random_point(rng, 5, 4, 2, 3)
        U, V = X.point.U, X.point.V
        F = U @ rng.standard_normal((2, 2)) @ V.T
        g1, g2 = partial_directions(X, F)
        assert np.allclose(ambient_dense(g1), F, atol=1e-12)
        assert np.allclose(ambient_dense(g2), F, atol=1e-12)

    def test_norm_split(self):
        rng = np.random.default_rng(20)
        X = random_point(rng, 3, 4, 1, 2)
        F = rng.standard_normal((3, 4))
        G, g = project_cone(X, F)
        g1, g2 = partial_directions(X, F, G)
        assert g1.norm ** 2 + np.sum(G.up**2) == pytest.approx(g**2, rel=1e-12)
        assert g2.norm ** 2 + np.sum(G.vp**2) == pytest.approx(g**2, rel=1e-12)
        for gi in (g1, g2):
            sv = np.linalg.svd(ambient_dense(X) + ambient_dense(gi), compute_uv=False)
            assert (sv > 1e-10 * sv[0]).sum() <= 2

    def test_flat_factors_have_width_s(self):
        # G1 and G2 fold their zero block away: width s + perp.rank, while
        # the full projection keeps width 2s + perp.rank
        rng = np.random.default_rng(21)
        for s, k in ((3, 3), (2, 4), (0, 2)):
            X = random_point(rng, 9, 7, s, k)
            F = rng.standard_normal((9, 7))
            G, _ = project_cone(X, F)
            assert G.perp.rank == k - s
            for gi, width in ((G, 2 * s), *((g, s) for g in partial_directions(X, F, G))):
                L, R = gi.factors()
                assert L.shape[1] == R.shape[1] == width + gi.perp.rank
                D = ambient_dense(gi)
                assert np.max(np.abs(L @ R.T - D), initial=0.0) <= 1e-13 * (1 + np.abs(D).max())


class TestChooseFlat:
    @staticmethod
    def _assert_same(xi, ref):
        for name in ("core", "up", "vp"):
            assert np.array_equal(getattr(xi, name), getattr(ref, name)), name
        for name in ("U", "sigma", "V"):
            assert np.array_equal(getattr(xi.perp, name), getattr(ref.perp, name)), name

    @pytest.mark.parametrize("s", [0, 10])  # 10 is clipped to s = k
    def test_equals_larger_partial_direction_bitwise(self, s):
        rng = np.random.default_rng(24 + s)
        for _ in range(100):
            X, F = random_instance(rng, s=s)
            G, _ = project_cone(X, F)
            g1, g2 = partial_directions(X, F, G)
            ref = g1 if np.sum(g1.vp**2) >= np.sum(g2.up**2) else g2
            self._assert_same(choose_flat_direction(G), -ref)

    def test_symmetric_tie_returns_g1(self):
        # integer symmetric data makes both one-sided norms bitwise equal,
        # so the tie-break is exercised exactly and must pick G1
        E = np.eye(4)[:, :2]
        X = VarietyPoint(FactoredMatrix(E, [2.0, 1.0], E), 3)
        F = np.array(
            [[1.0, 2, 3, 4], [2, 5, 6, 7], [3, 6, 8, 9], [4, 7, 9, 10]]
        )
        G, _ = project_cone(X, F)
        g1, g2 = partial_directions(X, F, G)
        assert np.sum(g1.vp**2) == np.sum(g2.up**2)
        xi = choose_flat_direction(G)
        assert not xi.up.any()
        assert xi.vp.any()
        self._assert_same(xi, -g1)

    def test_one_sided_input_gives_full_projection(self):
        # F with zero up block: G1 is chosen and equals the full projection,
        # negated
        rng = np.random.default_rng(22)
        X = random_point(rng, 5, 4, 2, 3)
        U, V = X.point.U, X.point.V
        F = U @ rng.standard_normal((2, 4))  # column space inside span(U)
        G, _ = project_cone(X, F)
        xi = choose_flat_direction(G)
        assert not xi.up.any()
        assert np.allclose(ambient_dense(xi), -ambient_dense(G), atol=1e-12)

    def test_angle_condition_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            X, F = random_instance(rng)
            G, g = project_cone(X, F)
            if g == 0.0:
                continue
            xi = choose_flat_direction(G)
            n = xi.norm
            # treating F as the gradient: <-F, xi> >= (1/sqrt(2)) g ||xi||
            inner = -np.vdot(F, ambient_dense(xi))
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
            assert np.allclose(ambient_dense(G), oracle, atol=1e-11 * scale)
            xi = random_cone_vector(rng, X)
            R, _ = retract(xi, 0.7)
            dense = ambient_dense(truncate(ambient_dense(X) + 0.7 * ambient_dense(xi), 10))
            assert np.allclose(ambient_dense(R), dense, atol=1e-11 * (np.abs(dense).max() + 1.0))


class TestVarietyPoint:
    def test_rank_budget_enforced(self):
        with pytest.raises(ValueError):
            VarietyPoint(truncate(np.eye(3), 2), 1)

    def test_zero_sigma_trimmed(self):
        X = VarietyPoint(FactoredMatrix(np.eye(2), [1.0, 0.0], np.eye(2)), 2)
        assert X.s == 1
        assert np.array_equal(X.point.sigma, [1.0])
        assert np.array_equal(X.point.U, [[1.0], [0.0]])

    def test_trimmed_point_owns_arrays_of_its_rank(self):
        # one numerically zero sigma: the kept columns are copied, so the
        # point pins no wider factor
        rng = np.random.default_rng(2)
        U, V = (np.linalg.qr(rng.standard_normal((d, 3)))[0] for d in (50, 40))
        X = VarietyPoint(FactoredMatrix(U, [2.0, 1.0, 0.0], V), 3)
        assert X.s == 2
        for W, full in ((X.point.U, U), (X.point.V, V)):
            assert W.base is None or W.base.nbytes == W.nbytes
            assert np.array_equal(W, full[:, :2])


@pytest.mark.parametrize(
    "block, make, match",
    [
        pytest.param("up", lambda X: X.point.U, "up is not orthogonal", id="up-along-U"),
        pytest.param(
            "perp", lambda X: random_perp(np.random.default_rng(1), X, 2), "rank budget", id="perp-rank"
        ),
        pytest.param("perp", lambda X: truncate(np.ones((4, 4)), 1), "shape", id="perp-shape"),
        # blocks are stored as given: a flattened core and a transposed up
        # are shape errors, however many entries they hold
        pytest.param("core", lambda X: np.zeros(4), r"core shape \(4,\)", id="core-flattened"),
        pytest.param("up", lambda X: np.ones((2, 5)), r"up shape \(2, 5\)", id="up-transposed"),
    ],
)
def test_cone_tangent_vector_rejects_invalid_blocks(block, make, match):
    # base of rank s = 2 with budget k = 3 in 5 x 4: a perp has rank at most 1
    X = random_point(np.random.default_rng(0), 5, 4, 2, 3)
    blocks = {"core": np.zeros((2, 2)), "up": np.zeros((5, 2)), "vp": np.zeros((4, 2)), "perp": None}
    blocks[block] = make(X)
    with pytest.raises(ValueError, match=match):
        ConeTangentVector(X, **blocks)
