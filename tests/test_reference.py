"""solve against the dense reference of sd and rf (tests/reference.py).

Each case runs both from the same start for a fixed number of steps and
compares them row by row: the backtrack counts exactly, and f, the
projected-antigradient norm g, alpha, the displacement ||X_{n+1} - X_n|| and
the iterate to RTOL, relative. alpha
cannot match bitwise: its start is a quotient of norms, which the reference
takes of dense matrices and solve of thin factors. Within RTOL, and with
equal backtrack counts, both runs accept the same trial of every search,
since consecutive trials differ by the factor beta = 1/2.
"""

from functools import cache

import numpy as np
import pytest

from rankdescent.bench import CompletionSpec, gen_problem
from rankdescent.core import GATHER_BLAS_DENSITY, FactoredMatrix, IndexSet, SparseOnMask, truncate
from rankdescent.geometry import VarietyPoint, project_cone
from rankdescent.linesearch import secant_curvature
from rankdescent.objectives import MatrixCompletion, QuadraticDistance
from rankdescent.solvers import VARIANTS, SolverConfig, solve
from helpers import ambient_dense
from reference import cone_blocks, solve_dense

# Relative tolerance of f, g, alpha, the displacement and the iterate. On one
# BLAS thread and on two, the cases below agree within 3e-11 (f, g, alpha
# and the displacement) and 2e-13 (iterates). The secant start amplifies
# roundoff from step to step, by about 5x in four steps on the completion
# cases, so the runs stop at 20.
RTOL = 1e-9


def completion_case(X0_rank: int, k: int):
    """The 40x40 rank-3 completion problem of gen_problem (seed 1, 693 of
    1600 entries seen), from the best rank-X0_rank fit to the data."""
    problem, _ = gen_problem(CompletionSpec(n=40, r=3, k=3, os_rate=3, seed=1))
    X0 = VarietyPoint(truncate(problem.data.csr, X0_rank), k)
    return problem, masked_dense(problem), X0, 20


def sparse_mask_case():
    """The 200x200 rank-2 completion problem of gen_problem (seed 1) at
    oversampling 1: its 1,060 entries cover 2.65% of the grid, below
    core.GATHER_BLAS_DENSITY, so every gather on its mask takes the
    row-wise path. From the best rank-2 fit to the data, at k = 2."""
    problem, _ = gen_problem(CompletionSpec(n=200, r=2, k=2, os_rate=1, seed=1))
    X0 = VarietyPoint(truncate(problem.data.csr, 2), 2)
    return problem, masked_dense(problem), X0, 20


def zero_start_case():
    """completion_case's problem at k = 3 from the zero matrix: the first
    cone projection is the ARPACK perp block of the masked gradient with
    empty bases, and rf's first step meets its tie of two empty blocks."""
    problem, masked, _, iters = completion_case(3, 3)
    return problem, masked, VarietyPoint(FactoredMatrix.zero(40, 40), 3), iters


def masked_dense(problem: MatrixCompletion):
    """(A, W): the observed values as a dense matrix, zero off the mask,
    and the mask's 0/1 weight."""
    W = SparseOnMask(problem.mask, np.ones(len(problem.mask)))
    return ambient_dense(problem.data), ambient_dense(W)


def quadratic_tie_case():
    """The quadratic distance to a symmetric rank-4 target of dyadic
    factors (columns of a 4x4 Hadamard matrix over 2, padded to 6 rows),
    at k = 2 from the rank-1 point 5 e0 e0^T. Every number of the first
    cone projection is dyadic, so both codes compute it exactly, and the
    up and vp blocks tie with nonzero norms: rf must keep vp. The target
    has rank above k, so the runs tend to f* = 2.5 and are cut at 6 steps,
    before f - f* reaches roundoff."""
    H = np.zeros((6, 4))
    H[:4] = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
    target = FactoredMatrix(H, np.array([4.0, 3.0, 2.0, 1.0]), H)
    e0 = np.eye(6)[:, :1]
    X0 = VarietyPoint(FactoredMatrix(e0, np.array([5.0]), e0), 2)
    return QuadraticDistance(target), (ambient_dense(target), np.ones((6, 6))), X0, 6


def negative_secant_case():
    """A 40x40 completion problem whose rank-3 target lives on the top-left
    20x20 block, seen there in full and on 60% of the other entries. The
    rank-3 start has singular values 1e-3 times the target's, and factors
    that lean 0.05 towards the target's and otherwise lie on the other 20
    rows. sd's first step then truncates away a block that points away from
    the target, f falls by more than the linear model says, and the secant
    curvature of that step is negative: the second search must start from
    the exact curvature."""
    n, r, b, lean = 40, 3, 20, 0.05
    rng = np.random.default_rng(1)
    A = np.zeros((n, n))
    A[:b, :b] = rng.standard_normal((b, r)) @ rng.standard_normal((b, r)).T
    target = truncate(A, r)
    seen = rng.random((n, n)) < 0.6
    seen[:b, :b] = True
    rows, cols = np.nonzero(seen)
    problem = MatrixCompletion(SparseOnMask(IndexSet((n, n), rows, cols), A[rows, cols]))
    factors = []
    for T in (target.U, target.V):
        W = np.zeros((n, r))
        W[b:] = np.linalg.qr(rng.standard_normal((n - b, r)))[0]
        factors.append(lean * T + np.sqrt(1.0 - lean**2) * W)
    X0 = VarietyPoint(FactoredMatrix(factors[0], 1e-3 * target.sigma, factors[1]), r)
    return problem, masked_dense(problem), X0, 20


CASES = {
    "completion-k3": lambda: completion_case(3, 3),
    "completion-k5": lambda: completion_case(5, 5),
    "deficient-start": lambda: completion_case(1, 5),
    "sparse-mask": sparse_mask_case,
    "zero-start": zero_start_case,
    "quadratic-tie": quadratic_tie_case,
    "negative-secant": negative_secant_case,
}


@cache
def runs(case: str, variant: str):
    """(solve's result, the reference's records) for a case and a variant."""
    obj, (A, W), X0, iters = CASES[case]()
    cfg = SolverConfig(k=X0.k, variant=variant, max_iters=iters, tol_g=1e-300, tol_f=1e-300,
                       record_iterates=True)
    result = solve(obj, X0, cfg)
    return result, solve_dense(A, W, ambient_dense(X0), X0.k, variant, iters)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("case", CASES)
def test_solve_matches_the_dense_reference(case, variant):
    result, reference = runs(case, variant)
    assert len(result.trace) == len(reference)
    for rec, ref, X in zip(result.trace, reference, result.iterates):
        assert rec.backtracks == ref["backtracks"], rec.n
        for name in ("f", "g_minus", "alpha", "displacement"):
            assert getattr(rec, name) == pytest.approx(ref[name], rel=RTOL, abs=0), (rec.n, name)
        assert np.linalg.norm(ambient_dense(X) - ref["X"]) <= RTOL * np.linalg.norm(ref["X"]), rec.n


def test_quadratic_case_starts_on_a_tie():
    # both codes see the tie exactly, so it decides the first rf step
    obj, (A, _), X0, _ = quadratic_tie_case()
    G, _ = project_cone(X0, obj.gradient(X0))
    assert np.sum(G.up**2) == np.sum(G.vp**2) > 0
    U, V = X0.point.U, X0.point.V
    _, up, vp, _ = cone_blocks(A - ambient_dense(X0), U, V, X0.k)
    assert np.sum(up**2) == np.sum(vp**2) > 0


def test_negative_secant_case_falls_back_to_the_exact_curvature():
    result, _ = runs("negative-secant", "sd")
    first, second = result.trace[:2]
    kappa = secant_curvature(first.f, second.f, first.alpha, -first.xi_norm**2, first.xi_norm)
    assert kappa < 0
    # the exact start of the second search lies clearly above the ratio g/||xi|| = 1
    assert second.backtracks == 0 and second.alpha > 1.01


def test_sparse_mask_case_gathers_row_wise():
    problem, _, X0, _ = sparse_mask_case()
    assert len(problem.mask) == 1060 < GATHER_BLAS_DENSITY * 200 * 200
    assert X0.s == 2


def test_zero_start_case_starts_on_the_perp_block():
    # with empty bases the whole first projection is the rank-3 perp block
    obj, _, X0, _ = zero_start_case()
    G, g = project_cone(X0, obj.gradient(X0))
    assert X0.s == 0 and G.perp.rank == 3 and g == pytest.approx(np.linalg.norm(G.perp.sigma), rel=1e-15)


def test_rf_backtracks_in_a_completion_case():
    # a kept residual after a backtrack is the accepted trial's
    result, _ = runs("completion-k3", "rf")
    assert any(rec.backtracks for rec in result.trace)
