import os

import numpy as np

from rankdescent.cli import main
from rankdescent.core import save_factored, truncate
from rankdescent.solvers import read_trace_csv


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_writes_problem(self, tmp_path, capsys):
        out = tmp_path / "prob"
        code = run_cli(
            "gen", "--n", "30", "--rank", "2", "--budget", "2",
            "--os", "3", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        for name in ("dims.txt", "mask.csv", "values.csv"):
            assert (out / name).exists()
        assert (out / "target_factors" / "U.csv").exists()
        assert "missing" in capsys.readouterr().out

    def test_infeasible_exits_2(self, tmp_path):
        code = run_cli(
            "gen", "--n", "10", "--rank", "10", "--budget", "10",
            "--os", "2", "--seed", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 2


class TestRun:
    def test_explicit_spec_both_algorithms(self, tmp_path):
        out = tmp_path / "runs"
        code = run_cli(
            "run", "--n", "30", "--rank", "2", "--budget", "2", "--seed", "3",
            "--alg", "both", "--out", str(out), "--max-iters", "80", "--no-timing",
        )
        assert code == 0
        for alg in ("sd", "rf"):
            trace = read_trace_csv(out / f"{alg}_trace.csv")
            assert trace[0].n == 0
            assert all(r.wall_ms == 0.0 for r in trace)

    def test_preset_run(self, tmp_path):
        # presets are desk scale; shrink the budget via config to stay quick
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 30\nrank = 2\nbudget = 2\nseed = 4\nmax_iters = 50\n")
        code = run_cli("run", "--config", str(cfg), "--alg", "sd", "--out", str(tmp_path / "o"))
        assert code == 0
        assert (tmp_path / "o" / "sd_summary.txt").exists()

    def test_infeasible_run_exits_2(self, tmp_path):
        code = run_cli(
            "run", "--n", "10", "--rank", "10", "--budget", "10", "--os", "2",
            "--alg", "sd", "--out", str(tmp_path / "bad"),
        )
        assert code == 2

    def test_explicit_flag_overrides_preset(self, tmp_path):
        # shrink a preset down with explicit flags, including --os
        out = tmp_path / "small"
        code = run_cli(
            "run", "--preset", "fig1-small", "--n", "30", "--rank", "2",
            "--budget", "2", "--os", "3", "--max-iters", "40",
            "--alg", "sd", "--out", str(out), "--no-timing",
        )
        assert code == 0
        from rankdescent.bench import read_kv

        summary = read_kv(out / "sd_summary.txt")
        assert summary["spec.n"] == "30"
        assert summary["spec.os"] == "3.0"

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch):
        from rankdescent import bench
        from rankdescent.linesearch import LineSearchError

        def failing_solve(obj, X0, cfg, metrics=None):
            raise LineSearchError("injected", [])

        monkeypatch.setattr(bench, "solve", failing_solve)
        code = run_cli(
            "run", "--n", "30", "--rank", "2", "--budget", "2",
            "--alg", "sd", "--out", str(tmp_path / "f"),
        )
        assert code == 3

    def test_no_timing_output_is_reproducible(self, tmp_path):
        # the starting point comes from a seeded ARPACK run, so two runs of
        # the same spec write byte-identical files
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = run_cli(
                "run", "--n", "40", "--rank", "3", "--budget", "3", "--seed", "8",
                "--alg", "both", "--out", str(out), "--max-iters", "30", "--no-timing",
            )
            assert code == 0
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1])) and "sd_trace.csv" in names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestErrors:
    def test_reports_errors(self, tmp_path, capsys):
        prob = tmp_path / "prob"
        run_cli(
            "gen", "--n", "25", "--rank", "2", "--budget", "2",
            "--seed", "6", "--out", str(prob),
        )
        rng = np.random.default_rng(0)
        point = truncate(rng.standard_normal((25, 25)), 2)
        save_factored(tmp_path / "pt", point)
        code = run_cli("errors", "--problem", str(prob), "--point", str(tmp_path / "pt"))
        assert code == 0
        out = capsys.readouterr().out
        assert "rel_full" in out and "rel_mask" in out

    def _problem_and_point(self, tmp_path):
        prob = tmp_path / "prob"
        run_cli(
            "gen", "--n", "20", "--rank", "2", "--budget", "2",
            "--seed", "7", "--out", str(prob),
        )
        save_factored(tmp_path / "pt", truncate(np.random.default_rng(1).standard_normal((20, 20)), 2))
        return prob, tmp_path / "pt"

    def _assert_clean_exit(self, capsys, code, needle):
        # exit code 4 with one line on stderr, no traceback
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err
        assert "Traceback" not in err

    def test_missing_dims_exits_4(self, tmp_path, capsys):
        prob, pt = self._problem_and_point(tmp_path)
        (prob / "dims.txt").unlink()
        capsys.readouterr()
        code = run_cli("errors", "--problem", str(prob), "--point", str(pt))
        self._assert_clean_exit(capsys, code, "dims.txt")

    def test_values_mask_mismatch_exits_4(self, tmp_path, capsys):
        prob, pt = self._problem_and_point(tmp_path)
        values = (prob / "values.csv").read_text().splitlines()
        (prob / "values.csv").write_text("\n".join(values[:-1]) + "\n")
        capsys.readouterr()
        code = run_cli("errors", "--problem", str(prob), "--point", str(pt))
        self._assert_clean_exit(capsys, code, "values not aligned with mask")

    def test_missing_target_exits_4(self, tmp_path, capsys):
        prob, pt = self._problem_and_point(tmp_path)
        for name in ("U.csv", "sigma.csv", "V.csv"):
            (prob / "target_factors" / name).unlink()
        (prob / "target_factors").rmdir()
        capsys.readouterr()
        code = run_cli("errors", "--problem", str(prob), "--point", str(pt))
        self._assert_clean_exit(capsys, code, "no target factors")


class TestRateFit:
    def test_exponential_trace(self, tmp_path, capsys):
        n = np.arange(80)
        path = tmp_path / "d.csv"
        np.savetxt(path, 3.0 * 2.0**-n, delimiter=",")
        code = run_cli("ratefit", "--distances", str(path))
        assert code == 0
        out = capsys.readouterr().out
        assert "model = exp" in out

    def test_insufficient(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        np.savetxt(path, np.ones(5), delimiter=",")
        code = run_cli("ratefit", "--distances", str(path))
        assert code == 0
        assert "unavailable" in capsys.readouterr().out
