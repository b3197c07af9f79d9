import math
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from rankdescent.bench import (
    CompletionSpec,
    PRESETS,
    SUMMARY_KEYS,
    gen_problem,
    initial_guess,
    missing_percent,
    omega_size,
    read_kv,
    rel_errors,
    run_experiment,
    write_kv,
)
from rankdescent.core import FactoredMatrix, IndexSet, SparseOnMask, truncate
from rankdescent.geometry import VarietyPoint
from rankdescent.objectives import MatrixCompletion
from rankdescent.solvers import SolverConfig
from helpers import ambient_dense, same_index_set, zero_point


class TestOmegaSize:
    def test_reference_sizes(self):
        assert omega_size(CompletionSpec(2000, 20, 20, 3, 0)) == 238800
        assert omega_size(CompletionSpec(2000, 80, 80, 3, 0)) == 940800

    def test_reference_missing_percentages(self):
        assert missing_percent(CompletionSpec(2000, 20, 20, 3, 0)) == 94.03
        assert missing_percent(CompletionSpec(2000, 80, 80, 3, 0)) == 76.48

    def test_fully_observed_boundary(self):
        # n=100, k=100, OS=1: max(10000, 461) = 10000 = n^2
        assert omega_size(CompletionSpec(100, 100, 100, 1, 0)) == 10000

    def test_log_term_dominates_for_tiny_rank(self):
        # n=1000, k=1, OS=1: 2kn - k^2 = 1999 < n ln n = 6908
        assert omega_size(CompletionSpec(1000, 1, 1, 1, 0)) == round(1000 * math.log(1000))

    def test_infeasible_spec(self):
        # a mask larger than n^2 cannot be sampled, so the spec itself is bad
        with pytest.raises(ValueError, match=r"exceeds n\^2"):
            CompletionSpec(10, 10, 10, 2, 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CompletionSpec(10, 11, 5, 3, 0)
        with pytest.raises(ValueError):
            CompletionSpec(10, 5, 5, 0.5, 0)


class TestGenProblem:
    def test_sizes_and_rank(self):
        spec = CompletionSpec(50, 3, 3, 3, 7)
        problem, target = gen_problem(spec)
        assert len(problem.mask) == omega_size(spec)
        assert target.rank == 3
        assert target.shape == (50, 50)

    def test_data_matches_target_on_mask(self):
        spec = CompletionSpec(40, 2, 2, 3, 8)
        problem, target = gen_problem(spec)
        dense = ambient_dense(target)
        assert np.allclose(
            problem.data.values, dense[problem.mask.rows, problem.mask.cols], atol=1e-12
        )

    def test_deterministic(self):
        spec = CompletionSpec(30, 2, 2, 3, 9)
        p1, t1 = gen_problem(spec)
        p2, t2 = gen_problem(spec)
        assert np.array_equal(p1.data.values, p2.data.values)
        assert np.array_equal(t1.U, t2.U)
        assert same_index_set(p1.mask, p2.mask)

    def test_mask_sampling_uniform(self):
        # 1e4 resamples of a 10x10 grid with |mask| = 20: per-cell inclusion
        # frequency stays within 5 standard deviations of 0.2
        rng = np.random.default_rng(0)
        counts = np.zeros(100)
        trials = 10**4
        for _ in range(trials):
            counts[rng.choice(100, size=20, replace=False)] += 1
        freq = counts / trials
        sigma = math.sqrt(0.2 * 0.8 / trials)
        assert np.all(np.abs(freq - 0.2) <= 5 * sigma)


class TestInitialGuess:
    def test_fully_observed_recovers_truncation(self):
        spec = CompletionSpec(20, 20, 20, 1, 1)  # |mask| = n^2
        problem, target = gen_problem(spec)
        X0 = initial_guess(problem, 4)
        oracle = truncate(ambient_dense(target), 4)
        assert np.allclose(ambient_dense(X0), ambient_dense(oracle), atol=1e-10)

    def test_rank_bounded(self):
        spec = CompletionSpec(30, 3, 3, 3, 2)
        problem, _ = gen_problem(spec)
        assert initial_guess(problem, 3).s <= 3

    def test_matches_dense_oracle(self):
        spec = CompletionSpec(25, 2, 2, 3, 3)
        problem, _ = gen_problem(spec)
        X0 = initial_guess(problem, 2)
        oracle = truncate(ambient_dense(problem.data), 2)
        assert np.allclose(ambient_dense(X0), ambient_dense(oracle), atol=1e-12)

    @staticmethod
    def _rel_to_dense(problem, k):
        oracle = ambient_dense(truncate(ambient_dense(problem.data), k))
        return np.linalg.norm(ambient_dense(initial_guess(problem, k)) - oracle) / np.linalg.norm(oracle)

    def test_matches_dense_truncation_on_preset_seeds(self):
        for seed in (42, 43, 44):
            spec = replace(PRESETS["fig1-small"], seed=seed)
            problem, _ = gen_problem(spec)
            assert self._rel_to_dense(problem, spec.k) <= 1e-10

    def test_matches_dense_truncation_on_degenerate_masks(self):
        rng = np.random.default_rng(11)
        U, _ = np.linalg.qr(rng.standard_normal((40, 4)))
        V, _ = np.linalg.qr(rng.standard_normal((30, 4)))
        full = np.ones((40, 30), dtype=bool)
        sparse = rng.random((40, 30)) < 0.4
        sparse[::3] = False  # empty rows
        sparse[:, 5:9] = False  # and empty columns
        cases = [
            ((U[:, :2] * [3.0, 1.0]) @ V[:, :2].T, full, 5),  # rank 2 < k
            (rng.standard_normal((40, 30)), sparse, 4),
            ((U * [2.0, 2.0, 2.0, 0.5]) @ V.T, full, 3),  # repeated singular values
            ((U * [2.0, 2.0, 2.0, 0.5]) @ V.T, full, 4),
        ]
        for D, keep, k in cases:
            rows, cols = np.nonzero(keep)
            problem = MatrixCompletion(SparseOnMask(IndexSet(D.shape, rows, cols), D[rows, cols]))
            assert self._rel_to_dense(problem, k) <= 1e-10

    def test_repeated_calls_are_bitwise_equal(self):
        problem, _ = gen_problem(CompletionSpec(60, 3, 3, 3, 5))
        first, second = initial_guess(problem, 3).point, initial_guess(problem, 3).point
        for name in ("U", "sigma", "V"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_one_transpose_per_call(self, monkeypatch):
        # every product with P(A).T in the Lanczos run goes through one
        # transposed view, taken once
        problem, _ = gen_problem(CompletionSpec(60, 3, 3, 3, 5))
        calls = []
        transpose = scipy.sparse.csr_matrix.transpose

        def counted(self, *args, **kwargs):
            calls.append(self.shape)
            return transpose(self, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.csr_matrix, "transpose", counted)
        initial_guess(problem, 3)
        assert calls == [(60, 60)]


class TestRelErrors:
    def setup_method(self):
        self.spec = CompletionSpec(30, 2, 2, 3, 4)
        self.problem, self.target = gen_problem(self.spec)

    def test_exact_recovery(self):
        X = VarietyPoint(self.target, 2)
        rel_full, rel_mask = rel_errors(self.target, self.problem)(X)
        assert rel_full <= 1e-12
        assert rel_mask <= 1e-12

    def test_zero_point(self):
        X = zero_point(30, 30, 2)
        rel_full, rel_mask = rel_errors(self.target, self.problem)(X)
        assert rel_full == 1.0
        assert rel_mask == 1.0

    def test_zero_target_rejected(self):
        # checked once, when the run's metric is made, before any point
        with pytest.raises(ValueError, match="zero target"):
            rel_errors(FactoredMatrix.zero(30, 30), self.problem)

    def test_mask_error_identity(self):
        # definition ||P(A - X)|| / ||P A|| equals sqrt(2 f) / ||P A||
        rng = np.random.default_rng(5)
        X = VarietyPoint(truncate(rng.standard_normal((30, 30)), 2), 2)
        _, rel_mask = rel_errors(self.target, self.problem)(X)
        dense = ambient_dense(X)
        num = np.linalg.norm(
            self.problem.data.values
            - dense[self.problem.mask.rows, self.problem.mask.cols]
        )
        direct = num / np.linalg.norm(self.problem.data.values)
        assert rel_mask == pytest.approx(direct, rel=1e-12)

    def test_masked_error_reads_the_f_passed(self, monkeypatch):
        # with f given, the masked error is sqrt(2 f) / ||P A|| and X is not
        # valued; without it, problem.value(X) gives f
        errors = rel_errors(self.target, self.problem)
        X = zero_point(30, 30, 2)
        p_norm = np.linalg.norm(self.problem.data.values)
        valued = []
        monkeypatch.setattr(self.problem, "value", lambda Y: valued.append(Y) or 0.5 * p_norm**2)
        assert errors(X, 0.0) == (1.0, 0.0)
        assert valued == []
        assert errors(X) == (1.0, 1.0)
        assert valued == [X]


class TestRunExperiment:
    def test_small_run_writes_everything(self, tmp_path):
        spec = CompletionSpec(40, 3, 3, 3, 11)
        cfg = SolverConfig(k=3, max_iters=150, record_iterates=True)
        runs = run_experiment(spec, ("sd", "rf"), cfg, out_dir=tmp_path, timing=False)
        assert all(run.error is None for run in runs.values())
        for alg in ("sd", "rf"):
            run = runs[alg]
            assert run.error is None
            assert list(run.summary) == list(SUMMARY_KEYS)
            assert run.summary["status"] == run.result.status.value
            assert os.path.exists(tmp_path / f"{alg}_trace.csv")
            assert os.path.exists(tmp_path / f"{alg}_summary.txt")
            fs = [r.f for r in run.result.trace]
            assert all(b <= a for a, b in zip(fs, fs[1:]))

    def test_summary_counts_the_trace_backtracks(self, tmp_path):
        # fig1-small's secant starts overshoot now and then, so sd backtracks
        spec = PRESETS["fig1-small"]
        cfg = SolverConfig(k=spec.k, max_iters=40)
        runs = run_experiment(spec, ("sd", "rf"), cfg, out_dir=tmp_path, timing=False)
        for alg in ("sd", "rf"):
            trace = runs[alg].result.trace
            written = read_kv(tmp_path / f"{alg}_summary.txt")["backtracks"]
            assert int(written) == sum(r.backtracks for r in trace)
        assert int(read_kv(tmp_path / "sd_summary.txt")["backtracks"]) > 0

    def test_byte_identical_without_timing(self, tmp_path):
        spec = CompletionSpec(30, 2, 2, 3, 12)
        cfg = SolverConfig(k=2, max_iters=60, record_iterates=True)
        run_experiment(spec, ("sd",), cfg, out_dir=tmp_path / "a", timing=False)
        run_experiment(spec, ("sd",), cfg, out_dir=tmp_path / "b", timing=False)
        for name in ("sd_trace.csv", "sd_summary.txt", "sd_distances.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_every_run_writes_its_distances_and_rate_fit(self, tmp_path):
        # run_experiment records iterates whatever the config says
        spec = CompletionSpec(30, 2, 2, 3, 12)
        cfg = SolverConfig(k=2, max_iters=60)
        runs = run_experiment(spec, ("sd", "rf"), cfg, out_dir=tmp_path, timing=False)
        for alg in ("sd", "rf"):
            distances = np.loadtxt(tmp_path / f"{alg}_distances.csv", delimiter=",")
            assert distances.size == len(runs[alg].result.trace)
            assert read_kv(tmp_path / f"{alg}_summary.txt")["rate_model"] != "unavailable"
            assert runs[alg].summary["rate_model"] != "unavailable"

    def test_distances_computed_once_per_variant(self, tmp_path, monkeypatch):
        from rankdescent import bench

        calls = []
        real = bench.iterate_distances
        monkeypatch.setattr(bench, "iterate_distances", lambda it: calls.append(it) or real(it))
        spec = CompletionSpec(30, 2, 2, 3, 12)
        cfg = SolverConfig(k=2, max_iters=60, record_iterates=True)
        runs = run_experiment(spec, ("sd", "rf"), cfg, out_dir=tmp_path, timing=False)
        assert len(calls) == 2
        for alg, iterates in zip(("sd", "rf"), calls):
            written = np.loadtxt(tmp_path / f"{alg}_distances.csv", delimiter=",")
            assert np.array_equal(written, real(iterates))
            # the history is dropped once its distances are taken
            assert runs[alg].result.iterates is None

    def test_presets_table(self):
        small = PRESETS["fig1-small"]
        assert (small.n, small.r, small.k, small.os_rate, small.seed) == (300, 8, 8, 3, 42)
        deficient = PRESETS["fig2-small"]
        assert (deficient.r, deficient.k) == (4, 8)
        assert PRESETS["fig1-full-k20"].n == 2000


class TestStartingGuessQuality:
    def test_initial_guess_no_worse_than_zero(self):
        # the truncated observed matrix fits the data at least as well as 0
        spec = CompletionSpec(40, 3, 3, 3, 13)
        problem, _ = gen_problem(spec)
        X0 = initial_guess(problem, 3)
        assert problem.value(X0) <= problem.value(zero_point(40, 40, 3))
        _, rel_mask = rel_errors(gen_problem(spec)[1], problem)(X0)
        assert rel_mask <= 1.0


class TestErrorCapture:
    def test_solver_failure_recorded_not_raised(self, tmp_path, monkeypatch):
        from rankdescent import bench
        from rankdescent.linesearch import LineSearchError

        calls = []

        def failing_solve(obj, X0, cfg, metrics=None):
            calls.append(cfg.variant)
            if cfg.variant == "sd":
                raise LineSearchError("injected", [])
            return real_solve(obj, X0, cfg, metrics=metrics)

        real_solve = bench.solve
        monkeypatch.setattr(bench, "solve", failing_solve)
        spec = CompletionSpec(30, 2, 2, 3, 14)
        cfg = SolverConfig(k=2, max_iters=30)
        runs = run_experiment(spec, ("sd", "rf"), cfg, out_dir=tmp_path)
        assert any(run.error is not None for run in runs.values())
        assert runs["sd"].error is not None
        assert runs["rf"].error is None  # second algorithm still ran
        assert runs["sd"].summary["status"] == ""
        assert runs["sd"].summary["backtracks"] == ""
        assert list(runs["sd"].summary) == list(SUMMARY_KEYS)
        assert runs["sd"].summary["spec.seed"] == 14 and runs["sd"].summary["alg"] == "sd"
        assert read_kv(tmp_path / "rf_summary.txt")["status"] == runs["rf"].result.status.value
        assert calls == ["sd", "rf"]


class TestKvFiles:
    def test_roundtrip(self, tmp_path):
        data = {"spec.n": 300, "alg": "sd", "final_f": 1.25e-9}
        path = tmp_path / "summary.txt"
        write_kv(path, data)
        back = read_kv(path)
        assert back["spec.n"] == "300"
        assert back["alg"] == "sd"
        assert float(back["final_f"]) == 1.25e-9
