"""rankbench: generate completion problems, run the solvers, inspect results.

Exit codes: 0 on success; 2 when `gen` or `run` gets an invalid or
infeasible problem spec, an invalid solver setting, a `--config` file it
cannot read or parse or with a key outside CONFIG_KEYS, or an `--out` it
cannot create as a directory (an existing file, or a path under one); 3 on
solver failure; 4 when `errors` cannot use its problem or point directory
(a missing file, a dims.txt without an integer m or n, a mask file that
is not two columns, a values or sigma file of more than one column, a
values/mask length mismatch, an observation of zero norm, no target
factors or a zero target, factors that do not form a point of the
problem's shape), or `ratefit` its distances file (missing, non-numeric,
non-finite or of more than one column) or a `--tail` outside (0, 1].
Codes 2 and 4 come with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from .bench import (
    CompletionSpec,
    PRESETS,
    gen_problem,
    load_column,
    load_completion,
    load_factored,
    missing_percent,
    omega_size,
    read_kv,
    rel_errors,
    run_experiment,
    save_completion,
)
from .geometry import VarietyPoint
from .solvers import SolverConfig, VARIANTS, rate_fit

# (field, name, type, help) of each setting `run` takes from a flag or a
# `--config` key: the CompletionSpec fields, then the SolverConfig ones. name
# is the config key and, with "-" for "_", the flag.
SPEC_SETTINGS = (
    ("n", "n", int, "matrix size (square)"),
    ("r", "rank", int, "true rank of the target"),
    ("k", "budget", int, "optimization rank budget k"),
    ("os_rate", "os", float, "oversampling rate"),
    ("seed", "seed", int, "RNG seed"),
)
SOLVER_SETTINGS = (
    ("max_iters", "max_iters", int, "iteration cap"),
    ("tol_g", "tol_g", float, "relative projected-antigradient tolerance"),
    ("tol_f", "tol_f", float, "stall tolerance on the decrease of f"),
)
CONFIG_KEYS = tuple(name for _, name, _, _ in SPEC_SETTINGS + SOLVER_SETTINGS)
# the spec fields that have a default; n, rank and budget have none
SPEC_DEFAULTS = {"os_rate": 3.0, "seed": 42}


def _add_flags(p: argparse.ArgumentParser, settings, defaults=None) -> None:
    # without defaults (for `run`) every flag defaults to None, so presets and
    # config stay overridable; with them (for `gen`) a flag without one is required
    for field, name, cast, text in settings:
        default = defaults.get(field) if defaults is not None else None
        p.add_argument(
            "--" + name.replace("_", "-"), dest=field, metavar=name.upper(), type=cast,
            default=default, required=defaults is not None and default is None, help=text,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate and serialize a completion problem")
    _add_flags(gen, SPEC_SETTINGS, SPEC_DEFAULTS)
    gen.add_argument("--out", required=True, help="output directory")

    run = sub.add_parser("run", help="run the solvers on a preset or explicit spec")
    run.add_argument("--preset", choices=sorted(PRESETS), help="named experiment preset")
    _add_flags(run, SPEC_SETTINGS)
    run.add_argument("--alg", choices=[*VARIANTS, "both"], default="both")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--config", help="key = value file with spec/solver fields")
    _add_flags(run, SOLVER_SETTINGS)
    run.add_argument("--no-timing", action="store_true", help="zero the wall_ms column (reproducible output)")

    err = sub.add_parser("errors", help="relative errors of a stored point on a stored problem")
    err.add_argument("--problem", required=True, help="problem directory written by gen")
    err.add_argument("--point", required=True, help="factored-matrix directory (U.csv, sigma.csv, V.csv)")

    rf = sub.add_parser("ratefit", help="fit exponential vs power decay to a distance trace")
    rf.add_argument("--distances", required=True, help="one-column CSV of distances to the limit")
    rf.add_argument("--tail", type=float, default=0.5, help="tail fraction used for the fit, in (0, 1]")

    return parser


def _settings(args, config: dict, settings, fields: dict) -> dict:
    """fields, each set from its config key if present, then from its flag if given."""
    for field, name, cast, _ in settings:
        if name in config:
            try:
                fields[field] = cast(config[name])
            except ValueError as err:
                raise ValueError(f"config key {name!r}: {err}") from err
        if getattr(args, field) is not None:
            fields[field] = getattr(args, field)
    return fields


def _spec_from_args(args, config: dict) -> CompletionSpec:
    # precedence: explicit flags > config file > preset > defaults
    if args.preset:
        fields = asdict(PRESETS[args.preset])
    else:
        fields = {field: SPEC_DEFAULTS.get(field) for field, _, _, _ in SPEC_SETTINGS}
    fields = _settings(args, config, SPEC_SETTINGS, fields)
    if None in (fields["n"], fields["r"], fields["k"]):
        raise ValueError("need --preset or all of --n/--rank/--budget")
    return CompletionSpec(**fields)


def _input_error(command: str, err: Exception, code: int) -> int:
    message = " ".join(str(err).split())
    print(f"{command}: invalid input: {type(err).__name__}: {message}", file=sys.stderr)
    return code


def cmd_gen(args) -> int:
    try:
        spec = CompletionSpec(**_settings(args, {}, SPEC_SETTINGS, {}))
        size = omega_size(spec)
        os.makedirs(args.out, exist_ok=True)
    except (OSError, ValueError) as err:
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
        cfg = SolverConfig(k=spec.k, **_settings(args, config, SOLVER_SETTINGS, {}))
        os.makedirs(args.out, exist_ok=True)
    except (OSError, ValueError) as err:
        return _input_error("run", err, 2)
    algorithms = ["sd", "rf"] if args.alg == "both" else [args.alg]
    runs = run_experiment(
        spec, algorithms=algorithms, solver_cfg=cfg, out_dir=args.out,
        timing=not args.no_timing,
    )
    for alg, run in runs.items():
        if run.error is not None:
            print(f"{alg}: FAILED ({run.error})")
        else:
            s = run.summary
            print(
                f"{alg}: iters={s['iters']} final_f={s['final_f']:.3e} "
                f"rel_mask={float(s['final_rel_mask']):.3e} status={s['status']}"
            )
    return 3 if any(run.error is not None for run in runs.values()) else 0


def cmd_errors(args) -> int:
    try:
        problem, target = load_completion(args.problem)
        if target is None:
            raise ValueError("problem directory carries no target factors")
        fm = load_factored(args.point)
        X = VarietyPoint(fm, k=fm.rank)
        rel_full, rel_mask = rel_errors(target, problem)(X)
    except (OSError, ValueError, KeyError) as err:
        return _input_error("errors", err, 4)
    print(f"rel_full = {rel_full:.12e}")
    print(f"rel_mask = {rel_mask:.12e}")
    return 0


def cmd_ratefit(args) -> int:
    try:
        distances = load_column(args.distances)
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
