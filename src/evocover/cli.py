"""Command-line front end.

Subcommands: generate, lp, exact, run, experiment.
Exit codes: 0 success, 1 target missed, 2 usage error, 3 instance error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import exact as exact_mod
from . import experiment as expmod
from .engine import ALGORITHMS, Termination, run
from .graph import (
    GENERATOR_KINDS,
    GraphFormatError,
    gen_instance,
    genotype_from_string,
    genotype_to_string,
    load_instance,
    residual,
    serialize_instance,
)
from .lp import InstanceTooLargeError, solve_lp


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _at_least(low, parse):
    """Argument type: ``parse`` the text and reject values below ``low``."""
    def check(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value
    return check


_count = _at_least(0, int)


def _half_units_decimal(value2: int) -> str:
    return str(value2 // 2) if value2 % 2 == 0 else f"{value2 // 2}.5"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evocover",
        description="Evolutionary multi-objective search for weighted minimum vertex cover.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an instance file")
    p.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p.add_argument("--n", type=int, help="vertex count (gnp, path)")
    p.add_argument("--p", type=float, help="edge probability (gnp)")
    p.add_argument("--k", type=int, help="leaf count (star)")
    p.add_argument("--a", type=int, help="left side size (complete-bipartite)")
    p.add_argument("--b", type=int, help="right side size (complete-bipartite)")
    p.add_argument("--wmax", type=int, default=1, help="weights drawn uniformly from [1, wmax]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("lp", help="exact fractional cover of an instance (or its residual)")
    p.add_argument("--instance", required=True)
    p.add_argument("--selection", help="0/1 string; LP is solved for the residual graph")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("exact", help="exact minimum-weight vertex cover")
    p.add_argument("--instance", required=True)
    p.add_argument("--node-cap", type=int, default=exact_mod.DEFAULT_NODE_CAP)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("run", help="one run of a search algorithm")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=_count)
    p.add_argument("--target-ratio", type=_at_least(1, _fraction),
                   help="stop once a cover of cost <= ratio * OPT is found")
    p.add_argument("--target-cover", action="store_true",
                   help="stop once any cover is found")
    p.add_argument("--epsilon", type=_at_least(0, _fraction),
                   help="record/stop at the (1+epsilon) ratio target")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--opt", type=_count, help="known optimum (else computed when needed)")
    p.add_argument("--check-bounds", action="store_true")
    p.add_argument("--series", action="store_true", help="include the per-iteration series")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", help="also write the JSON record to this path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("experiment", help="batch of runs; CSV rows plus JSON summary")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--instance", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--budget", type=_count)
    p.add_argument("--target-ratio", type=_at_least(1, _fraction))
    p.add_argument("--epsilon", type=_at_least(0, _fraction))
    p.add_argument("--seed", type=_count, default=0, help="base seed; trial i uses seed + i")
    p.add_argument("--opt", type=_count)
    p.add_argument("--check-bounds", action="store_true")
    p.add_argument("--until-zero-string", action="store_true",
                   help="keep each run going until the all-zeros genotype was seen")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_experiment)

    return parser


def _resolve_target(args) -> Fraction | None:
    if args.epsilon is not None:
        if args.target_ratio is not None:
            raise expmod.ConfigError("give either --epsilon or --target-ratio, not both")
        return 1 + args.epsilon
    return args.target_ratio


def cmd_generate(args) -> int:
    params = {"n": args.n, "p": args.p, "k": args.k, "a": args.a, "b": args.b}
    need = {"gnp": ("n", "p"), "path": ("n",), "star": ("k",), "complete-bipartite": ("a", "b")}
    missing = [f"--{name}" for name in need[args.kind] if params[name] is None]
    if missing:
        raise expmod.ConfigError(f"{args.kind} needs {' '.join(missing)}")
    try:
        g = gen_instance(args.kind, params, w_max=args.wmax, seed=args.seed)
    except ValueError as exc:
        raise expmod.ConfigError(str(exc)) from exc
    text = serialize_instance(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_lp(args) -> int:
    g = load_instance(args.instance)
    bits = (genotype_from_string(args.selection, g.n)
            if args.selection is not None else [0] * g.n)
    rg = residual(g, bits)
    sol = solve_lp(rg, g.weights)
    if args.format == "json":
        doc = {
            "value2": sol.value2,
            "lp": _half_units_decimal(sol.value2),
            "assignment": [
                {"vertex": rg.kept[i], "y2": a} for i, a in enumerate(sol.assign2)
            ],
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        print(f"value2 = {sol.value2}")
        print(f"lp = {_half_units_decimal(sol.value2)}")
        for i, a in enumerate(sol.assign2):
            y = ("0", "1/2", "1")[a]
            print(f"y[{rg.kept[i]}] = {y}")
    return 0


def cmd_exact(args) -> int:
    g = load_instance(args.instance)
    result = exact_mod.opt_branch_bound(g, node_cap=args.node_cap)
    witness = genotype_to_string(result.witness)
    if args.format == "json":
        doc = {"opt": result.opt_cost, "witness": witness}
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        print(f"opt = {result.opt_cost}")
        print(f"witness = {witness}")
    return 0


def _run_json(trace, record) -> str:
    doc = {
        "algorithm": trace.algorithm,
        "seed": trace.seed,
        "n": trace.n,
        "iterations": trace.iterations,
        "max_archive": trace.max_archive,
        "best_cost": trace.best_cost,
        "best_cover": None if trace.best_cover is None
        else "".join(str(b) for b in trace.best_cover),
        "iters_to_zero_string": trace.iters_to_zero_string,
        "iters_to_cover": trace.iters_to_cover,
        "iters_to_target": trace.iters_to_target,
        "opt": record.opt,
        "ratio": record.ratio,
        "censored": record.censored,
        "bound_violations": trace.bound_violations,
        "series": trace.series,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_run(args) -> int:
    g = load_instance(args.instance)
    target = _resolve_target(args)
    if args.budget is None and target is None and not args.target_cover:
        raise expmod.ConfigError("run needs --budget and/or a target")
    opt = args.opt
    if opt is not None or target is not None:
        cfg = expmod.ExperimentConfig(algorithm=args.algo, trials=1, target_ratio=target,
                                      opt=opt)
        opt = expmod.resolve_opt(g, cfg)
    termination = Termination(budget=args.budget, any_cover=args.target_cover,
                              target_ratio=target, opt=opt)
    trace = run(args.algo, g, args.seed, termination,
                check_bounds=args.check_bounds, record_series=args.series)
    record = expmod.trial_record(trace, opt)
    text = _run_json(trace, record)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if args.format == "json":
        sys.stdout.write(text)
    elif args.format == "csv":
        sys.stdout.write(expmod.records_to_csv([record]))
    else:
        print(f"algorithm {trace.algorithm} seed {trace.seed} on n={trace.n}")
        print(f"iterations = {trace.iterations}")
        print(f"max archive = {trace.max_archive}")
        best = "none" if trace.best_cost is None else str(trace.best_cost)
        print(f"best cover cost = {best}")
        if record.opt is not None:
            print(f"opt = {record.opt} ratio = {record.ratio}")
        print(f"milestones: zero-string {trace.iters_to_zero_string}, "
              f"cover {trace.iters_to_cover}, target {trace.iters_to_target}")
        if trace.target_kind is not None:
            print("censored" if record.censored else "target met")
    return 1 if (trace.target_kind is not None and record.censored) else 0


def cmd_experiment(args) -> int:
    g = load_instance(args.instance)
    target = _resolve_target(args)
    cfg = expmod.ExperimentConfig(
        algorithm=args.algo,
        trials=args.trials,
        seed_base=args.seed,
        budget=args.budget,
        target_ratio=target,
        epsilon=args.epsilon,
        opt=args.opt,
        check_bounds=args.check_bounds,
        until_zero_string=args.until_zero_string,
        workers=args.workers,
    )
    result = expmod.run_experiment(g, cfg)
    expmod.write_records_csv(result.records, args.out)
    sys.stdout.write(expmod.summary_json(result.summary))
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except expmod.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, InstanceTooLargeError,
            exact_mod.SearchBudgetExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
