import os

import numpy as np
import pytest

from rankdescent.cli import main
from rankdescent.bench import save_factored
from rankdescent.core import FactoredMatrix, truncate
from helpers import read_trace_csv


def run_cli(*argv):
    return main(list(argv))


def assert_input_error(capsys, code, expected_code, command, needle=""):
    # the expected exit code with one line on stderr, no traceback
    assert code == expected_code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{command}: invalid input")
    assert needle in err and "Traceback" not in err


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

    @pytest.mark.parametrize(
        "flags",
        [
            ("--n", "10", "--rank", "20", "--budget", "5"),
            ("--n", "30", "--rank", "2", "--budget", "2", "--os", "0.5"),
            # out-of-range spec values are input errors, not tracebacks
            ("--n", "30", "--rank", "2", "--budget", "2", "--os", "inf"),
            ("--n", "30", "--rank", "2", "--budget", "2", "--os", "nan"),
            ("--n", "30", "--rank", "2", "--budget", "2", "--seed", "-1"),
            # finite, but the mask size OS * (2kn - k^2) overflows
            ("--n", "30", "--rank", "2", "--budget", "2", "--os", "1e308"),
        ],
    )
    def test_invalid_spec_exits_2(self, tmp_path, capsys, flags):
        code = run_cli("gen", *flags, "--out", str(tmp_path / "x"))
        assert_input_error(capsys, code, 2, "gen")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_out_not_a_directory_exits_2(self, tmp_path, capsys, under):
        # an existing file, or a path under one
        (tmp_path / "file").write_text("keep\n")
        out = tmp_path / "file" / "sub" if under else tmp_path / "file"
        code = run_cli("gen", "--n", "30", "--rank", "2", "--budget", "2", "--out", str(out))
        assert_input_error(capsys, code, 2, "gen", needle="Error")
        assert (tmp_path / "file").read_text() == "keep\n"


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

    def test_config_comments_and_blank_lines_are_skipped(self, tmp_path):
        from rankdescent.bench import read_kv

        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "# a small spec\n\nn = 30\nrank = 2\n   # indented comment\n"
            "budget = 3\n\nseed = 4\nmax_iters = 7\n"
        )
        code = run_cli("run", "--config", str(cfg), "--alg", "sd", "--out", str(tmp_path / "o"))
        assert code == 0
        summary = read_kv(tmp_path / "o" / "sd_summary.txt")
        assert (summary["spec.n"], summary["spec.r"], summary["spec.k"]) == ("30", "2", "3")
        assert (summary["spec.seed"], summary["iters"]) == ("4", "7")

    def test_infeasible_run_exits_2(self, tmp_path):
        code = run_cli(
            "run", "--n", "10", "--rank", "10", "--budget", "10", "--os", "2",
            "--alg", "sd", "--out", str(tmp_path / "bad"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, config",
        [
            (("--n", "10", "--rank", "20", "--budget", "5"), None),
            (("--rank", "2", "--budget", "2"), None),
            (("--n", "30", "--rank", "2", "--budget", "2", "--max-iters", "0"), None),
            (("--n", "30", "--rank", "2", "--budget", "2", "--tol-g", "-1"), None),
            ((), "missing"),
            ((), "n = abc\nrank = 2\nbudget = 2\n"),
            ((), "n = 30\nrank = 2\nbudget = 2\nmax_iters = many\n"),
            ((), "n = 30\nrank = 2\nbudget = 2\nmax_iter = 5\n"),
            ((), "n = 30\nrank = 2\nbudget = 2\nmax_iters 5\n"),
            (("--n", "30", "--rank", "2", "--budget", "2", "--os", "inf"), None),
            (("--n", "30", "--rank", "2", "--budget", "2", "--os", "nan"), None),
            (("--n", "30", "--rank", "2", "--budget", "2", "--seed", "-1"), None),
            # a NaN tolerance never converges or stalls; an infinite one stops at once
            (("--n", "30", "--rank", "2", "--budget", "2", "--tol-g", "nan"), None),
            (("--n", "30", "--rank", "2", "--budget", "2", "--tol-f", "nan"), None),
            (("--n", "30", "--rank", "2", "--budget", "2", "--tol-g", "inf"), None),
        ],
    )
    def test_invalid_input_exits_2(self, tmp_path, capsys, flags, config):
        argv = ["run", *flags, "--alg", "sd", "--out", str(tmp_path / "o")]
        if config is not None:
            path = tmp_path / "cfg.txt"
            if config != "missing":
                path.write_text(config)
            argv += ["--config", str(path)]
        assert_input_error(capsys, run_cli(*argv), 2, "run")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_out_not_a_directory_exits_2(self, tmp_path, capsys, under):
        (tmp_path / "file").write_text("keep\n")
        out = tmp_path / "file" / "sub" if under else tmp_path / "file"
        code = run_cli(
            "run", "--n", "30", "--rank", "2", "--budget", "2", "--alg", "sd", "--out", str(out),
        )
        assert_input_error(capsys, code, 2, "run", needle="Error")
        assert (tmp_path / "file").read_text() == "keep\n"

    @pytest.mark.parametrize("n, rank", [(4, 1), (5, 1), (6, 2)])
    def test_fully_observed_run_stalls(self, tmp_path, capsys, n, rank):
        # k = n and oversampling 1 observe every entry: f is flat to roundoff
        # from the start, and the run stalls instead of failing its line search
        from rankdescent.bench import read_kv

        out = tmp_path / "full"
        code = run_cli(
            "run", "--n", str(n), "--rank", str(rank), "--budget", str(n), "--os", "1",
            "--alg", "both", "--out", str(out),
        )
        assert code == 0
        assert "FAILED" not in capsys.readouterr().out
        for alg in ("sd", "rf"):
            assert read_kv(out / f"{alg}_summary.txt")["status"] == "stalled_f"

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        # a misspelt key (max_iter for max_iters) used to be ignored silently
        path = tmp_path / "cfg.txt"
        path.write_text("n = 30\nrank = 2\nbudget = 2\nmax_iter = 5\n")
        code = run_cli("run", "--config", str(path), "--alg", "sd", "--out", str(tmp_path / "o"))
        assert_input_error(capsys, code, 2, "run", needle="'max_iter'")

    @pytest.mark.parametrize(
        "line, key", [("n = abc", "n"), ("n", "n"), ("max_iters = 1e3", "max_iters")]
    )
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, line, key):
        # the cast's own message quotes the value, not the key
        path = tmp_path / "cfg.txt"
        path.write_text(f"n = 30\nrank = 2\nbudget = 2\n{line}\n")
        code = run_cli("run", "--config", str(path), "--alg", "sd", "--out", str(tmp_path / "o"))
        assert_input_error(capsys, code, 2, "run", needle=f"config key '{key}': ")

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

    @pytest.mark.parametrize("flags", [False, True])
    def test_flag_beats_config_beats_preset(self, tmp_path, flags):
        # the config file shrinks fig1-small (n = 300, seed = 42) and sets a
        # solver key; flags, when given, override the config's seed and
        # max_iters in turn
        from rankdescent.bench import read_kv

        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 30\nrank = 2\nbudget = 2\nseed = 5\nmax_iters = 7\n")
        argv = ["run", "--preset", "fig1-small", "--config", str(cfg)]
        if flags:
            argv += ["--seed", "9", "--max-iters", "4"]
        code = run_cli(*argv, "--alg", "sd", "--out", str(tmp_path / "o"), "--no-timing")
        assert code == 0
        summary = read_kv(tmp_path / "o" / "sd_summary.txt")
        assert summary["spec.n"] == "30"
        assert (summary["spec.seed"], summary["iters"]) == (("9", "4") if flags else ("5", "7"))

    def test_variants_run_together_write_what_each_writes_alone(self, tmp_path):
        # run_experiment hands one objective, with its one-point residual
        # slot, to every variant; no variant may see another's state there
        spec = ("--n", "40", "--rank", "2", "--budget", "4", "--seed", "3", "--max-iters", "60")
        for alg in ("both", "sd", "rf"):
            code = run_cli("run", *spec, "--alg", alg, "--out", str(tmp_path / alg), "--no-timing")
            assert code == 0
        for alg in ("sd", "rf"):
            for kind in ("trace.csv", "distances.csv", "summary.txt"):
                name = f"{alg}_{kind}"
                assert (tmp_path / "both" / name).read_bytes() == (tmp_path / alg / name).read_bytes(), name

    def test_alg_both_runs_sd_and_rf_alone(self, tmp_path, monkeypatch, capsys):
        # a variant added to the package does not join --alg both
        from rankdescent import solvers

        monkeypatch.setitem(solvers.VARIANTS, "extra", solvers.VARIANTS["sd"])
        out = tmp_path / "both"
        code = run_cli(
            "run", "--n", "30", "--rank", "2", "--budget", "2", "--seed", "3",
            "--alg", "both", "--out", str(out), "--max-iters", "20", "--no-timing",
        )
        assert code == 0
        assert sorted(os.listdir(out)) == [
            f"{alg}_{kind}" for alg in ("rf", "sd") for kind in ("distances.csv", "summary.txt", "trace.csv")
        ]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["sd", "rf"]

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

    def test_a_zero_singular_value_is_trimmed(self, tmp_path, capsys):
        # a stored point whose sigma.csv ends in 0.0 reads as the point
        # without that mode
        prob = tmp_path / "prob"
        run_cli("gen", "--n", "25", "--rank", "2", "--budget", "2", "--seed", "6", "--out", str(prob))
        F = truncate(np.random.default_rng(0).standard_normal((25, 25)), 3)
        save_factored(tmp_path / "kept", FactoredMatrix(F.U[:, :2], F.sigma[:2], F.V[:, :2]))
        save_factored(tmp_path / "zero", F)
        sigma = (tmp_path / "zero" / "sigma.csv").read_text().splitlines()
        (tmp_path / "zero" / "sigma.csv").write_text("\n".join(sigma[:2] + ["0.0"]) + "\n")
        capsys.readouterr()
        assert run_cli("errors", "--problem", str(prob), "--point", str(tmp_path / "kept")) == 0
        kept = capsys.readouterr().out
        assert run_cli("errors", "--problem", str(prob), "--point", str(tmp_path / "zero")) == 0
        assert capsys.readouterr().out == kept
        assert "rel_full" in kept and "rel_mask" in kept

    def _problem_and_point(self, tmp_path):
        prob = tmp_path / "prob"
        run_cli(
            "gen", "--n", "20", "--rank", "2", "--budget", "2",
            "--seed", "7", "--out", str(prob),
        )
        save_factored(tmp_path / "pt", truncate(np.random.default_rng(1).standard_normal((20, 20)), 2))
        return prob, tmp_path / "pt"

    def test_missing_dims_exits_4(self, tmp_path, capsys):
        prob, pt = self._problem_and_point(tmp_path)
        (prob / "dims.txt").unlink()
        capsys.readouterr()
        code = run_cli("errors", "--problem", str(prob), "--point", str(pt))
        assert_input_error(capsys, code, 4, "errors", "dims.txt")

    def test_dims_reads_like_a_config(self, tmp_path, capsys):
        # dims.txt is a key = value file: comments and blank lines are skipped
        prob, pt = self._problem_and_point(tmp_path)
        capsys.readouterr()
        assert run_cli("errors", "--problem", str(prob), "--point", str(pt)) == 0
        untouched = capsys.readouterr().out
        (prob / "dims.txt").write_text("# hand-edited\nm = 20\n\nn = 20\n")
        assert run_cli("errors", "--problem", str(prob), "--point", str(pt)) == 0
        assert capsys.readouterr().out == untouched

    @pytest.mark.parametrize("dims, needle", [("m = 20\n", "'n'"), ("m = 20\nn = 20.5\n", "20.5")])
    def test_unusable_dims_exits_4(self, tmp_path, capsys, dims, needle):
        # a missing key and a non-integer value
        prob, pt = self._problem_and_point(tmp_path)
        (prob / "dims.txt").write_text(dims)
        capsys.readouterr()
        code = run_cli("errors", "--problem", str(prob), "--point", str(pt))
        assert_input_error(capsys, code, 4, "errors", needle)

    def test_values_mask_mismatch_exits_4(self, tmp_path, capsys):
        prob, pt = self._problem_and_point(tmp_path)
        values = (prob / "values.csv").read_text().splitlines()
        (prob / "values.csv").write_text("\n".join(values[:-1]) + "\n")
        capsys.readouterr()
        code = run_cli("errors", "--problem", str(prob), "--point", str(pt))
        assert_input_error(capsys, code, 4, "errors", "values not aligned with mask")

    @pytest.mark.parametrize(
        "mask, values, needle",
        [
            ("1\n2\n", None, "two columns"),
            ("", "", "zero observation"),
            (None, "zeros", "zero observation"),
        ],
    )
    def test_unusable_mask_or_observation_exits_4(self, tmp_path, capsys, mask, values, needle):
        # a one-column mask, an empty one and an all-zero observation are
        # input errors: one stderr line, no traceback or numpy warning
        prob, pt = self._problem_and_point(tmp_path)
        if mask is not None:
            (prob / "mask.csv").write_text(mask)
        if values == "zeros":
            count = len((prob / "values.csv").read_text().splitlines())
            values = "0\n" * count
        if values is not None:
            (prob / "values.csv").write_text(values)
        capsys.readouterr()
        code = run_cli("errors", "--problem", str(prob), "--point", str(pt))
        assert_input_error(capsys, code, 4, "errors", needle)

    def test_empty_point_factors_exit_4_with_one_line(self, tmp_path, capsys):
        # empty U/sigma/V files: the factor mismatch alone, no numpy warning
        prob, pt = self._problem_and_point(tmp_path)
        for name in ("U.csv", "sigma.csv", "V.csv"):
            (pt / name).write_text("")
        capsys.readouterr()
        code = run_cli("errors", "--problem", str(prob), "--point", str(pt))
        assert_input_error(capsys, code, 4, "errors")

    def test_missing_target_exits_4(self, tmp_path, capsys):
        prob, pt = self._problem_and_point(tmp_path)
        for name in ("U.csv", "sigma.csv", "V.csv"):
            (prob / "target_factors" / name).unlink()
        (prob / "target_factors").rmdir()
        capsys.readouterr()
        code = run_cli("errors", "--problem", str(prob), "--point", str(pt))
        assert_input_error(capsys, code, 4, "errors", "no target factors")

    def test_zero_target_exits_4(self, tmp_path, capsys):
        prob, pt = self._problem_and_point(tmp_path)
        (prob / "target_factors" / "sigma.csv").write_text("0\n0\n")
        capsys.readouterr()
        code = run_cli("errors", "--problem", str(prob), "--point", str(pt))
        assert_input_error(capsys, code, 4, "errors", "relative error undefined for a zero target")


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

    def test_empty_distances_file_is_insufficient(self, tmp_path, capsys):
        # no data is too short a trace, not a numpy warning
        path = tmp_path / "d.csv"
        np.savetxt(path, np.ones(0), delimiter=",")
        code = run_cli("ratefit", "--distances", str(path))
        assert code == 0
        captured = capsys.readouterr()
        assert "unavailable" in captured.out and captured.err == ""

    @pytest.mark.parametrize("content", [None, "1.0\nabc\n0.5\n", "1.0\ninf\n0.5\n"])
    def test_invalid_distances_exit_4(self, tmp_path, capsys, content):
        # a missing file, a non-numeric row and a non-finite row
        path = tmp_path / "d.csv"
        if content is not None:
            path.write_text(content)
        assert_input_error(capsys, run_cli("ratefit", "--distances", str(path)), 4, "ratefit")

    def test_two_column_distances_exit_4(self, tmp_path, capsys):
        # a second column is not flattened into one interleaved trace
        path = tmp_path / "d.csv"
        np.savetxt(path, np.column_stack([2.0 ** -np.arange(40), 3.0 ** -np.arange(40)]), delimiter=",")
        code = run_cli("ratefit", "--distances", str(path))
        assert_input_error(capsys, code, 4, "ratefit", "one column")

    @pytest.mark.parametrize("tail", ["-1", "0", "2"])
    def test_tail_outside_unit_interval_exits_4(self, tmp_path, capsys, tail):
        path = tmp_path / "d.csv"
        np.savetxt(path, 3.0 * 2.0 ** -np.arange(80), delimiter=",")
        code = run_cli("ratefit", "--distances", str(path), f"--tail={tail}")
        assert_input_error(capsys, code, 4, "ratefit")
