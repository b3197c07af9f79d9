"""The file comparison of tools/equiv.py, on synthetic output trees, and one
step of its standard set run in this process: no process is started and no
revision is exported."""

import importlib.util
import threading
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("equiv", Path(__file__).resolve().parents[1] / "tools" / "equiv.py")
equiv = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(equiv)

TRACE = "n,f,g_minus,status\n0,2.5,1.0,ok\n1,0.125,0.5,ok\n"
SUMMARY = "alg = sd\niters = 60\nfinal_f = 1.8579032739709356e-16\n"


def tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_equal_trees_pass_bitwise(tmp_path):
    files = {"run/sd_trace.csv": TRACE, "run/sd_summary.txt": SUMMARY}
    ok, lines = equiv.compare_trees(tree(tmp_path / "a", files), tree(tmp_path / "b", files))
    assert ok
    assert lines == ["ok   run/sd_summary.txt: bitwise equal", "ok   run/sd_trace.csv: bitwise equal"]


def test_a_number_off_by_roundoff_fails_bitwise():
    head = TRACE.replace("0.125", "0.12500000000000003")
    ok, report = equiv.compare_file(TRACE.encode(), head.encode())
    assert not ok
    assert report == "first differing row 2; largest relative difference: f 2.2e-16; column-scaled: f 1.1e-17"


def test_a_key_value_line_is_named_by_its_key():
    head = SUMMARY.replace("1.8579032739709356e-16", "1.9e-16")
    _, report = equiv.compare_file(SUMMARY.encode(), head.encode())
    assert report == "first differing row 2; largest relative difference: final_f 2.2e-02; column-scaled: final_f 2.2e-02"


def test_a_converging_column_reads_its_roundoff_scaled_by_its_largest_value():
    # f falls to 1e-32; a change of 1e-30 there is a relative difference of ~1
    # per entry, and ~1e-17 of the column's largest value
    base = "n,f\n0,1e-13\n1,1e-22\n2,1e-32\n"
    head = base.replace("1e-32", "1.01e-30")
    _, report = equiv.compare_file(base.encode(), head.encode())
    assert report == "first differing row 3; largest relative difference: f 9.9e-01; column-scaled: f 1.0e-17"


@pytest.mark.parametrize(
    "head, note",
    [
        (TRACE.replace("1,0.125,0.5,ok", "1,0.125,0.5,stalled"), "status inf"),
        (TRACE + "2,0.0625,0.25,ok\n", "3 rows against 4"),
        (TRACE.replace("1,0.125,0.5,ok", "1,0.125,0.5"), "fields do not line up"),
        (TRACE.replace("0.125", "nan"), "f inf"),
    ],
    ids=["text-field", "extra-row", "missing-field", "nan"],
)
def test_a_difference_other_than_in_numbers_fails_any_tolerance(head, note):
    _, report = equiv.compare_file(TRACE.encode(), head.encode())
    assert note in report


def test_a_file_on_one_side_only_fails(tmp_path):
    a = tree(tmp_path / "a", {"x.csv": TRACE})
    b = tree(tmp_path / "b", {"x.csv": TRACE, "y.csv": TRACE})
    ok, lines = equiv.compare_trees(a, b)
    assert not ok
    assert lines == ["ok   x.csv: bitwise equal", "FAIL y.csv: only in HEAD"]


def test_src_lines_counts_the_packages_newlines_as_wc_does(tmp_path):
    # wc -l counts newline bytes: a last line without one is not counted;
    # files outside src/rankdescent/*.py are not counted at all
    root = tree(tmp_path, {
        "src/rankdescent/a.py": "x = 1\n\ny = 2\n",
        "src/rankdescent/b.py": '"""doc\n"""\nz = 3',
        "src/rankdescent/notes.txt": "one\ntwo\n",
        "src/rankdescent/sub/c.py": "w = 4\n",
        "tools/d.py": "v = 5\n",
    })
    assert equiv.src_lines(root) == 3 + 2


def test_deficient_completion_traces_start_below_the_budget(tmp_path):
    # every run's first record is at rank < k = 5, so its first cone
    # projection truncates the CSR gradient against the base spaces
    out = tmp_path / "deficient-completion"
    equiv.write_deficient_completion_traces(str(out))
    names = sorted(p.name for p in out.iterdir())
    assert names == ["rank2-rf.csv", "rank2-sd.csv", "zero-rf.csv", "zero-sd.csv"]
    for name in names:
        header, first, *rest = (line.split(",") for line in (out / name).read_text().splitlines())
        assert int(first[header.index("rank")]) == (2 if name.startswith("rank2") else 0)
        assert rest and int(rest[-1][header.index("rank")]) == 5


def test_solve_writers_run_sd_and_rf_alone(tmp_path, monkeypatch):
    # a variant added to the package must add no file that an older revision
    # cannot write, or the comparison fails on a HEAD-only file
    from rankdescent import solvers

    monkeypatch.setitem(solvers.VARIANTS, "extra", solvers.VARIANTS["sd"])
    monkeypatch.setattr(equiv, "QUADRATIC", [(60, 50, 4, 2, 8, 1, 1)])
    equiv.write_quadratic_traces(str(tmp_path / "quadratic"))
    equiv.write_deficient_completion_traces(str(tmp_path / "deficient-completion"))
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.csv"))
    assert written == [
        "deficient-completion/rank2-rf.csv", "deficient-completion/rank2-sd.csv",
        "deficient-completion/zero-rf.csv", "deficient-completion/zero-sd.csv",
        "quadratic/60x50-seed1-0-rf.csv", "quadratic/60x50-seed1-0-sd.csv",
    ]


def test_the_standard_set_runs_the_row_wise_mask_gather():
    # every preset samples more than GATHER_BLAS_DENSITY of the entries, so
    # one run of the set must sample fewer for that path to be compared
    from rankdescent.bench import omega_size
    from rankdescent.cli import _spec_from_args, build_parser
    from rankdescent.core import GATHER_BLAS_DENSITY

    sparse = []
    for args in equiv.RUNS.values():
        spec = _spec_from_args(build_parser().parse_args(["run", *args, "--out", "unused"]), {})
        if omega_size(spec) < GATHER_BLAS_DENSITY * spec.n**2:
            sparse.append(spec)
    assert sparse


def test_main_writes_the_two_standard_sets_side_by_side(monkeypatch, capsys):
    # each writer waits at the barrier for the other: written in turn, the
    # first would time out and break it
    both = threading.Barrier(2, timeout=10)

    def write_outputs(src_tree, out):
        both.wait()
        tree(out, {"stdout/gen.txt": "n = 40\n"})

    monkeypatch.setattr(equiv, "export", lambda rev, dest: dest)
    monkeypatch.setattr(equiv, "write_outputs", write_outputs)
    assert equiv.main(["base-rev", "head-rev"]) == 0
    assert "1 of 1 files pass (bitwise)" in capsys.readouterr().out


def test_a_failing_writer_raises_out_of_main(monkeypatch):
    def write_outputs(src_tree, out):
        if out.name == "HEAD":
            raise RuntimeError(f"run-fig1-small in {src_tree} exited with 1")
        out.mkdir()

    monkeypatch.setattr(equiv, "export", lambda rev, dest: dest)
    monkeypatch.setattr(equiv, "write_outputs", write_outputs)
    with pytest.raises(RuntimeError, match="run-fig1-small in .*head-tree exited with 1"):
        equiv.main(["base-rev", "head-rev"])
