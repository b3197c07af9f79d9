"""The benchmark's workloads, driven through the library's public entry points.

An operation is one variant's `solve` on one problem instance. The two
completion workloads call `rankdescent.cli.main(["run", ...])`, the path
`rankbench run` takes; the quadratic workload calls `solvers.solve`. Every
operation passes through a SolveLog, which times it to its first
per-iterate metrics callback at or below the workload's tolerance and keeps
its trace for the correctness gate.
"""

from __future__ import annotations

import contextlib
import io
import math
import tempfile
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from rankdescent import bench, cli, core, geometry, objectives, solvers
from rankdescent.core import FactoredMatrix, SparseOnMask
from rankdescent.linesearch import LineSearchError, angle_check, descent_monitors
from rankdescent.objectives import MatrixCompletion, QuadraticDistance

from speed import Speed
from tracing import INFO, SpanStats, Tracer, patched

VARIANTS = ("sd", "rf")
# the rf direction is the larger flat partial projection, which keeps
# this much of the projected antigradient's norm
RF_OMEGA = 1.0 / math.sqrt(2.0)


@dataclass
class Op:
    """One variant's solve on one instance, as the gate sees it."""

    variant: str
    tol: float
    k: int = 0
    c: float = 0.0
    trace: list | None = None
    time_to_tol: float | None = None  # nominal seconds (see speed.py)
    wall_to_tol: float | None = None
    iterates_mb: float = 0.0
    error: str | None = None

    @property
    def iters_to_tol(self) -> int | None:
        if self.trace is None:
            return None
        return next((r.n for r in self.trace if r.rel_err_full <= self.tol), None)

    def breach(self) -> str | None:
        """The first way this operation failed, or None when it passed.

        Contracts: sufficient decrease on every step (with the slack of
        acceptance criterion 6), the sd primary descent ratio, the rf angle
        condition at omega = 1/sqrt(2), and rank <= k on every row.
        """
        if self.error is not None:
            return self.error
        trace = self.trace
        if trace is None:
            return "not run"
        if not all(math.isfinite(r.f) for r in trace):
            return "non-finite f"
        if self.iters_to_tol is None:
            return f"rel_err_full never <= {self.tol:g} in {len(trace) - 1} iterations"
        if any(r.rank > self.k for r in trace):
            return "rank above k"
        for rec, nxt in zip(trace, trace[1:]):
            rhs = self.c * rec.alpha * -(rec.xi_norm**2)
            if nxt.f - rec.f > rhs + 1e-12 * max(1.0, abs(rhs)):
                return f"no sufficient decrease at iteration {rec.n}"
        if self.variant == "sd" and len(trace) >= 2:
            low = descent_monitors(trace, omega=1.0, c=self.c).a1_violations
            if low:
                return f"sd primary descent ratio below threshold at iteration {low[0]}"
        if self.variant == "rf":
            for rec in trace[:-1]:
                if not angle_check(-(rec.xi_norm**2), rec.g_minus, rec.xi_norm, RF_OMEGA):
                    return f"rf angle condition fails at iteration {rec.n}"
        return None


class SolveLog:
    """Stands in front of `solve` and records one Op per call.

    It samples the host's speed before, during and after each solve.
    """

    def __init__(self, tol: float, tracer: Tracer | None, speed: Speed):
        self.tol = tol
        self.tracer = tracer
        self.speed = speed
        self.ops: list[Op] = []

    def solve(self, solve, obj, X0, cfg, metrics):
        op = Op(cfg.variant, self.tol, k=cfg.k, c=cfg.armijo_config().c)
        self.ops.append(op)
        if self.tracer is not None:
            metrics = self.tracer.wrap(metrics, "bench.metrics")
        speed = self.speed
        speed.maybe_sample()
        start = speed.mark()

        def tapped(X, f):
            errors = metrics(X, f)
            if op.time_to_tol is None and errors[0] <= self.tol:
                op.time_to_tol, op.wall_to_tol = speed.elapsed(start)
            speed.maybe_sample()
            return errors

        try:
            result = solve(obj, X0, cfg, metrics=tapped)
        except Exception as err:
            op.error = f"{type(err).__name__}: {err}"
            raise
        finally:
            speed.maybe_sample()
        op.trace = result.trace
        if self.tracer is not None and result.iterates is not None:
            held = sum(X.point.U.nbytes + X.point.sigma.nbytes + X.point.V.nbytes for X in result.iterates)
            op.iterates_mb = held / 1e6
        return result


@dataclass
class Pass:
    """One run of a workload's whole instance set, in nominal seconds."""

    run_s: float
    setup_s: float
    ops: list
    wall_s: float
    tracer: Tracer | None = None


def layer_patches(t: Tracer) -> list:
    """Wrappers for each layer, installed where the calling module looks them up.

    A name the program no longer defines is skipped, and its layer reads 0.
    """
    out = []

    def wrap(owner, attr, name, **kw):
        if attr in vars(owner):
            out.append((owner, attr, t.wrap(vars(owner)[attr], name, **kw)))

    def variant(result, args):  # solve(obj, X0, cfg, ...)
        return args[2].variant

    wrap(objectives, "mask_apply", "core.mask_apply",
         info=lambda result, args: len(args[1]) * 2 * args[0].rank * 8)
    csr = vars(SparseOnMask).get("csr")
    if isinstance(csr, property):
        # only the first access of a gradient's CSR view builds it
        built = t.wrap(csr.fget, "core.csr_build", when=lambda args: args[0]._csr is None)
        out.append((SparseOnMask, "csr", property(built)))
    wrap(FactoredMatrix, "__post_init__", "core.factored_init")
    for module in (core, objectives, solvers, bench):
        wrap(module, "factored_diff_norm", "core.factored_diff_norm")
    for module in (bench, geometry):
        wrap(module, "truncate", "core.truncate")
    for attr in ("ambient_matmul", "ambient_rmatmul"):
        wrap(geometry, attr, "core.ambient_products")
    wrap(solvers, "project_cone", "geometry.project_cone",
         info=lambda result, args: args[0].s < args[0].k)
    wrap(geometry, "project_tangent_space", "geometry.project_tangent_space")
    wrap(solvers, "choose_flat_direction", "geometry.choose_flat_direction")
    wrap(solvers, "retract", "geometry.retract")
    wrap(solvers, "affine_update", "geometry.affine_update")
    for cls in (MatrixCompletion, QuadraticDistance):
        wrap(cls, "value", "objectives.value")
        wrap(cls, "gradient", "objectives.gradient")
    wrap(solvers, "armijo", "linesearch.armijo", info=lambda result, args: result.backtracks)
    wrap(solvers, "_point_distance", "solvers.point_distance")
    wrap(solvers, "solve", "solvers.solve", info=variant)
    wrap(bench, "solve", "solvers.solve", info=variant)
    for attr in ("gen_problem", "initial_guess", "iterate_distances", "rate_fit"):
        wrap(bench, attr, f"bench.{attr}")
    wrap(cli, "run_experiment", "bench.run_experiment")
    return out


def layer_metrics(p: Pass) -> dict:
    """Per-layer counts and times of one traced pass."""
    s = SpanStats(p.tracer.spans)
    steps = s.infos("linesearch.armijo")
    accepted = [b for b in steps if isinstance(b, int)]
    errors = [e for e in steps if isinstance(e, LineSearchError)]
    trials = sum(b + 1 for b in accepted) + sum(len(e.trials) for e in errors)
    out = {
        "core.mask_apply.calls": s.calls("core.mask_apply"),
        "core.mask_apply.total_s": s.total("core.mask_apply"),
        "core.mask_apply.gathered_mb": sum(b for b in s.infos("core.mask_apply") if isinstance(b, int)) / 1e6,
        "core.csr_build.calls": s.calls("core.csr_build"),
        "core.csr_build.total_s": s.total("core.csr_build"),
        "core.factored_init.calls": s.calls("core.factored_init"),
        "core.factored_init.total_s": s.total("core.factored_init"),
        "core.factored_diff_norm.calls": s.calls("core.factored_diff_norm"),
        "core.factored_diff_norm.total_s": s.total("core.factored_diff_norm"),
        "core.truncate.calls": s.calls("core.truncate"),
        "core.truncate.total_s": s.total("core.truncate"),
        "core.ambient_products.total_s": s.total("core.ambient_products"),
        "geometry.project_cone.calls": s.calls("geometry.project_cone"),
        "geometry.project_cone.total_s": s.total("geometry.project_cone"),
        "geometry.project_cone.self_s": s.self_time("geometry.project_cone"),
        "geometry.project_cone.deficient_calls": sum(1 for d in s.infos("geometry.project_cone") if d is True),
        "geometry.project_tangent_space.total_s": s.total("geometry.project_tangent_space"),
        "geometry.choose_flat_direction.total_s": s.total("geometry.choose_flat_direction"),
        "geometry.retract.calls": s.calls("geometry.retract"),
        "geometry.retract.total_s": s.total("geometry.retract"),
        "geometry.affine_update.calls": s.calls("geometry.affine_update"),
        "geometry.affine_update.total_s": s.total("geometry.affine_update"),
        "objectives.value.calls": s.calls("objectives.value"),
        "objectives.value.total_s": s.total("objectives.value"),
        "objectives.value.self_s": s.self_time("objectives.value"),
        "objectives.gradient.calls": s.calls("objectives.gradient"),
        "objectives.gradient.total_s": s.total("objectives.gradient"),
        "objectives.gradient.self_s": s.self_time("objectives.gradient"),
        "linesearch.armijo.calls": s.calls("linesearch.armijo"),
        "linesearch.armijo.total_s": s.total("linesearch.armijo"),
        "linesearch.armijo.self_s": s.self_time("linesearch.armijo"),
        "linesearch.trials": trials,
        "linesearch.backtracks": sum(accepted),
        "linesearch.accept_ratio": len(accepted) / trials if trials else 0.0,
        "linesearch.errors": len(errors),
        "solvers.solve.calls": s.calls("solvers.solve"),
        "solvers.solve.total_s": s.total("solvers.solve"),
        "solvers.solve.self_s": s.self_time("solvers.solve"),
        # a distance taken by solve itself is the per-step displacement; one
        # taken under iterate_distances is post-processing
        "solvers.displacement.total_s": sum(
            s.total(name, where=lambda i: s.parent_name(i) == "solvers.solve")
            for name in ("solvers.point_distance", "core.factored_diff_norm")
        ),
        "solvers.iterates_held_mb": sum(op.iterates_mb for op in p.ops),
        "bench.gen_problem.total_s": s.total("bench.gen_problem"),
        "bench.initial_guess.total_s": s.total("bench.initial_guess"),
        "bench.metrics.calls": s.calls("bench.metrics"),
        "bench.metrics.total_s": s.total("bench.metrics"),
        "bench.iterate_distances.calls": s.calls("bench.iterate_distances"),
        "bench.iterate_distances.total_s": s.total("bench.iterate_distances"),
        "bench.rate_fit.total_s": s.total("bench.rate_fit"),
        "bench.run_experiment.self_s": s.self_time("bench.run_experiment"),
    }
    for v in VARIANTS:
        iters = sum(len(op.trace) - 1 for op in p.ops if op.variant == v and op.trace)
        solve_s = s.total("solvers.solve", where=lambda i: s.spans[i][INFO] == v)
        out[f"solvers.{v}.iters"] = iters
        out[f"solvers.{v}.ms_per_iter"] = 1e3 * solve_s / iters if iters else 0.0
    return out


class Completion:
    """`rankbench run --preset <preset> --alg both` on `instances` seeds.

    Instance i of a run with seed s uses spec.seed = s * instances + i, so
    runs with different seeds share no instance.
    """

    def __init__(self, preset: str, tol: float, instances: int, max_iters: int | None = None):
        self.preset = preset
        self.tol = tol
        self.instances = instances
        self.budget = [] if max_iters is None else ["--max-iters", str(max_iters)]

    def seeds(self, seed: int) -> list[int]:
        return [seed * self.instances + i for i in range(self.instances)]

    def setup(self, seed: int) -> None:
        """One set-up of every instance: problem generation plus starting point."""
        for s in self.seeds(seed):
            spec = replace(bench.PRESETS[self.preset], seed=s)
            problem, _ = bench.gen_problem(spec)
            bench.initial_guess(problem, spec.k)

    def run_pass(self, seed: int, tracer: Tracer | None, speed: Speed, workdir) -> Pass:
        """One `rankbench run` per instance."""
        log = SolveLog(self.tol, tracer, speed)
        setup_s = 0.0

        def timed(fn):
            def call(*args, **kwargs):
                nonlocal setup_s
                start = speed.mark()
                try:
                    return fn(*args, **kwargs)
                finally:
                    setup_s += speed.elapsed(start)[0]
            return call

        run_s = wall_s = 0.0
        with patched(layer_patches(tracer) if tracer else []):
            probes = [
                (bench, "solve", partial(log.solve, vars(bench)["solve"])),
                (bench, "gen_problem", timed(vars(bench)["gen_problem"])),
                (bench, "initial_guess", timed(vars(bench)["initial_guess"])),
            ]
            with patched(probes):
                for s in self.seeds(seed):
                    first = len(log.ops)
                    argv = ["run", "--preset", self.preset, "--alg", "both", "--seed", str(s),
                            *self.budget]
                    error = None
                    with tempfile.TemporaryDirectory(dir=workdir) as out:
                        start = speed.mark()
                        try:
                            with contextlib.redirect_stdout(io.StringIO()):
                                code = cli.main(argv + ["--out", out])
                        except Exception as err:  # the gate counts it; the run goes on
                            code, error = None, f"{type(err).__name__}: {err}"
                        nominal, wall = speed.elapsed(start)
                        run_s, wall_s = run_s + nominal, wall_s + wall
                    _account(log, first, code, error)
        return Pass(run_s=run_s, setup_s=setup_s, ops=log.ops, wall_s=wall_s, tracer=tracer)


def _account(log: SolveLog, first: int, code, error) -> None:
    """Fail every variant of an instance whose `rankbench run` did not finish.

    run_experiment catches only LineSearchError, which fails one variant and
    gives exit code 3. Any other exception aborts the whole run and fails
    both variants, the one already solved included.
    """
    ran = {op.variant for op in log.ops[first:]}
    log.ops += [Op(v, log.tol) for v in VARIANTS if v not in ran]
    if error is None and (code == 0 or any(op.error for op in log.ops[first:])):
        return
    for op in log.ops[first:]:
        op.error = op.error or f"rankbench run failed: {error or f'exit code {code}'}"


class Quadratic:
    """Half squared distance to random m-by-n rank-r targets, from rank-s starts.

    Targets and starting points of one run all come from one generator
    seeded with the run's seed. r = k keeps both variants convergent.
    """

    m, n, r, start_rank = 500, 400, 12, 6
    instances = 20
    max_iters = 500
    tol = 1e-8

    def make(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(self.instances):
            A = core.truncate(rng.standard_normal((self.m, self.r)) @ rng.standard_normal((self.r, self.n)), self.r)
            out.append((A, geometry.random_point(rng, self.m, self.n, self.start_rank, self.r)))
        return out

    def setup(self, seed: int) -> None:
        self.make(seed)

    def run_pass(self, seed: int, tracer: Tracer | None, speed: Speed, workdir) -> Pass:
        """Every instance with both variants."""
        log = SolveLog(self.tol, tracer, speed)
        with patched(layer_patches(tracer) if tracer else []):
            start = speed.mark()
            instances = self.make(seed)
            setup_s = speed.elapsed(start)[0]
            for A, X0 in instances:
                obj = QuadraticDistance(A)
                a_norm = float(np.linalg.norm(A.sigma))

                def metrics(X, f, A=A, a_norm=a_norm):
                    return core.factored_diff_norm(X.point, A) / a_norm, None

                for v in VARIANTS:
                    cfg = solvers.SolverConfig(k=self.r, variant=v, max_iters=self.max_iters)
                    try:
                        log.solve(solvers.solve, obj, X0, cfg, metrics)
                    except Exception:  # recorded in the log; the gate counts it
                        pass
            run_s, wall_s = speed.elapsed(start)
        return Pass(run_s=run_s, setup_s=setup_s, ops=log.ops, wall_s=wall_s, tracer=tracer)


WORKLOADS = {
    # over 24 seeds sd crossed 1e-2 at iterations 107-126 and rf at 134-161
    "fig1-small": Completion("fig1-small", tol=1e-2, instances=8, max_iters=250),
    # sd crosses 1e-1 at iteration 97-98 and rf at 116-117 on every seed tried
    "fig1-full-k20": Completion("fig1-full-k20", tol=1e-1, instances=1, max_iters=130),
    "quad-deficient-start": Quadratic(),
}
