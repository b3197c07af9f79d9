"""The file comparison of tools/equiv.py, on synthetic output trees: no
process is started and no revision is exported."""

import importlib.util
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


def test_a_number_off_by_roundoff_fails_bitwise_and_passes_a_tolerance():
    head = TRACE.replace("0.125", "0.12500000000000003")
    ok, report = equiv.compare_file(TRACE.encode(), head.encode(), None)
    assert not ok
    assert report == "first differing row 2; largest relative difference: f 2.2e-16"
    assert equiv.compare_file(TRACE.encode(), head.encode(), 1e-15)[0]
    assert not equiv.compare_file(TRACE.encode(), head.encode(), 1e-17)[0]


def test_a_key_value_line_is_named_by_its_key():
    head = SUMMARY.replace("1.8579032739709356e-16", "1.9e-16")
    ok, report = equiv.compare_file(SUMMARY.encode(), head.encode(), 0.1)
    assert ok
    assert report == "first differing row 2; largest relative difference: final_f 2.2e-02"


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
    ok, report = equiv.compare_file(TRACE.encode(), head.encode(), 1e6)
    assert not ok
    assert note in report


def test_a_file_on_one_side_only_fails(tmp_path):
    a = tree(tmp_path / "a", {"x.csv": TRACE})
    b = tree(tmp_path / "b", {"x.csv": TRACE, "y.csv": TRACE})
    ok, lines = equiv.compare_trees(a, b, rtol=1.0)
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
