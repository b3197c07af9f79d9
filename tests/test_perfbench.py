"""perfbench's workloads, shrunk, run in this process against this package.

The benchmark reads more of the package than its names, which
test_layering checks: cfg.armijo_config().c, solve's metrics keyword,
SparseOnMask._csr and the trace record's fields. A pass of each workload
here, untraced and traced, fails when any of them changes, and its ops
must pass the benchmark's own correctness gate (Op.breach). No process is
started.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED = 3


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return {name: importlib.import_module(name) for name in ("workloads", "speed", "tracing")}


def shrunk(workloads, name):
    """The named workload on one instance, with fewer iterations."""
    if name == "quad-deficient-start":
        quadratic = workloads.Quadratic()
        quadratic.instances = 1
        return quadratic
    return {
        "fig1-small": workloads.Completion("fig1-small", tol=1e-2, instances=1, max_iters=60),
        "fig1-full-k20": workloads.Completion("fig1-full-k20", tol=1e-1, instances=1, max_iters=12),
    }[name]


def run_pass(perfbench, name, tracer, workdir):
    workload = shrunk(perfbench["workloads"], name)
    p = workload.run_pass(SEED, tracer, perfbench["speed"].Speed(sampling=False), workdir)
    # one op per variant; a solve that cannot start records none
    assert [op.variant for op in p.ops] == ["sd", "rf"]
    assert [op.breach() for op in p.ops] == [None, None]
    return p


@pytest.mark.parametrize("name", ["fig1-small", "fig1-full-k20", "quad-deficient-start"])
def test_an_untraced_pass_meets_the_gate(perfbench, name, tmp_path):
    run_pass(perfbench, name, None, tmp_path)


@pytest.mark.parametrize("name", ["fig1-small", "quad-deficient-start"])
def test_a_traced_pass_meets_the_gate_and_reports_every_layer(perfbench, name, tmp_path):
    p = run_pass(perfbench, name, perfbench["tracing"].Tracer(), tmp_path)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # run.py adds the two trace.* keys from the untraced passes' times
    assert set(perfbench["workloads"].layer_metrics(p)) | {"trace.overhead_s", "trace.overhead_pct"} == declared
