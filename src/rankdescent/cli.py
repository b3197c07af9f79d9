"""rankbench: generate completion problems, run the solvers, inspect results.

Exit codes: 0 on success; 2 when `gen` or `run` gets an invalid or
infeasible problem spec, an invalid solver setting, or a `--config` file it
cannot read or parse or with a key outside CONFIG_KEYS; 3 on solver failure;
4 when `errors` cannot use its problem or point directory (a missing file, a
values/mask length mismatch, no target factors, factors that do not form a
point of the problem's shape), or `ratefit` its distances file (missing,
non-numeric or non-finite) or a `--tail` outside (0, 1]. Codes 2 and 4 come
with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (
    CompletionSpec,
    PRESETS,
    gen_problem,
    missing_percent,
    omega_size,
    read_kv,
    rel_errors,
    run_experiment,
)
from .core import load_factored
from .geometry import make_point
from .objectives import load_completion, save_completion
from .solvers import SolverConfig, VARIANTS, rate_fit

# keys a `run --config` file may set: spec flag names, then solver settings
CONFIG_KEYS = ("n", "rank", "budget", "os", "seed", "max_iters", "tol_g", "tol_f")


def _add_spec_flags(p: argparse.ArgumentParser, require: bool) -> None:
    # for `run` the flags default to None so presets/config stay overridable
    p.add_argument("--n", type=int, required=require, help="matrix size (square)")
    p.add_argument("--rank", type=int, required=require, help="true rank of the target")
    p.add_argument("--budget", type=int, required=require, help="optimization rank budget k")
    p.add_argument(
        "--os", dest="os_rate", type=float, default=3.0 if require else None,
        help="oversampling rate",
    )
    p.add_argument("--seed", type=int, default=42 if require else None, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate and serialize a completion problem")
    _add_spec_flags(gen, require=True)
    gen.add_argument("--out", required=True, help="output directory")

    run = sub.add_parser("run", help="run the solvers on a preset or explicit spec")
    run.add_argument("--preset", choices=sorted(PRESETS), help="named experiment preset")
    _add_spec_flags(run, require=False)
    run.add_argument("--alg", choices=[*VARIANTS, "both"], default="both")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--config", help="key = value file with spec/solver fields")
    run.add_argument("--max-iters", type=int, default=None)
    run.add_argument("--tol-g", type=float, default=None)
    run.add_argument("--tol-f", type=float, default=None)
    run.add_argument("--no-timing", action="store_true", help="zero the wall_ms column (reproducible output)")

    err = sub.add_parser("errors", help="relative errors of a stored point on a stored problem")
    err.add_argument("--problem", required=True, help="problem directory written by gen")
    err.add_argument("--point", required=True, help="factored-matrix directory (U.csv, sigma.csv, V.csv)")

    rf = sub.add_parser("ratefit", help="fit exponential vs power decay to a distance trace")
    rf.add_argument("--distances", required=True, help="one-column CSV of distances to the limit")
    rf.add_argument("--tail", type=float, default=0.5, help="tail fraction used for the fit, in (0, 1]")

    return parser


def _spec_from_args(args, config: dict) -> CompletionSpec:
    # precedence: explicit flags > config file > preset > defaults
    if args.preset:
        base = PRESETS[args.preset]
        fields = {
            "n": base.n, "r": base.r, "k": base.k,
            "os_rate": base.os_rate, "seed": base.seed,
        }
    else:
        fields = {"n": None, "r": None, "k": None, "os_rate": 3.0, "seed": 42}
    for key, name in (("n", "n"), ("r", "rank"), ("k", "budget"), ("os_rate", "os"), ("seed", "seed")):
        if name in config:
            cast = float if key == "os_rate" else int
            fields[key] = cast(config[name])
    for key, value in (
        ("n", args.n), ("r", args.rank), ("k", args.budget),
        ("os_rate", args.os_rate), ("seed", args.seed),
    ):
        if value is not None:
            fields[key] = value
    if None in (fields["n"], fields["r"], fields["k"]):
        raise ValueError("need --preset or all of --n/--rank/--budget")
    return CompletionSpec(**fields)


def _solver_cfg(args, config: dict, k: int) -> SolverConfig:
    kwargs = {"k": k, "record_iterates": True}
    for key, cast in (("max_iters", int), ("tol_g", float), ("tol_f", float)):
        if key in config:
            kwargs[key] = cast(config[key])
        cli_val = getattr(args, key)
        if cli_val is not None:
            kwargs[key] = cli_val
    return SolverConfig(**kwargs)


def _input_error(command: str, err: Exception, code: int) -> int:
    message = " ".join(str(err).split())
    print(f"{command}: invalid input: {type(err).__name__}: {message}", file=sys.stderr)
    return code


def cmd_gen(args) -> int:
    try:
        spec = CompletionSpec(n=args.n, r=args.rank, k=args.budget, os_rate=args.os_rate, seed=args.seed)
        size = omega_size(spec)
    except ValueError as err:
        return _input_error("gen", err, 2)
    problem, target = gen_problem(spec)
    save_completion(args.out, problem, target)
    print(f"|mask| = {size} ({missing_percent(spec):.2f}% missing), written to {args.out}")
    return 0


def cmd_run(args) -> int:
    try:
        config = read_kv(args.config) if args.config else {}
        unknown = [key for key in config if key not in CONFIG_KEYS]
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
        spec = _spec_from_args(args, config)
        omega_size(spec)  # validates feasibility up front
        cfg = _solver_cfg(args, config, spec.k)
    except (OSError, ValueError) as err:
        return _input_error("run", err, 2)
    algorithms = list(VARIANTS) if args.alg == "both" else [args.alg]
    report = run_experiment(
        spec, algorithms=algorithms, solver_cfg=cfg, out_dir=args.out,
        timing=not args.no_timing,
    )
    for alg, run in report.runs.items():
        if run.error is not None:
            print(f"{alg}: FAILED ({run.error})")
        else:
            s = run.summary
            print(
                f"{alg}: iters={s['iters']} final_f={s['final_f']:.3e} "
                f"rel_mask={float(s['final_rel_mask']):.3e} status={s['status']}"
            )
    return 3 if report.failed else 0


def cmd_errors(args) -> int:
    try:
        problem, target = load_completion(args.problem)
        if target is None:
            raise ValueError("problem directory carries no target factors")
        fm = load_factored(args.point)
        rel_full, rel_mask = rel_errors(make_point(fm, k=fm.rank), target, problem)
    except (OSError, ValueError, KeyError) as err:
        return _input_error("errors", err, 4)
    print(f"rel_full = {rel_full:.12e}")
    print(f"rel_mask = {rel_mask:.12e}")
    return 0


def cmd_ratefit(args) -> int:
    try:
        distances = np.loadtxt(args.distances, delimiter=",").ravel()
        fit = rate_fit(distances, tail_fraction=args.tail)
    except (OSError, ValueError) as err:
        return _input_error("ratefit", err, 4)
    if fit is None:
        print("rate fit unavailable (insufficient tail)")
        return 0
    print(f"model = {fit.model}")
    print(f"parameter = {fit.parameter:.12g}")
    print(f"residual = {fit.residual:.12g}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"gen": cmd_gen, "run": cmd_run, "errors": cmd_errors, "ratefit": cmd_ratefit}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
