"""Batch trial driver: records, CSV/JSON emission, and summaries.

Trials are independent runs with seeds seed_base, seed_base + 1, ... so any
row of an experiment can be reproduced in isolation by a single run with
that seed. Trials may execute in parallel; rows are sorted by seed before
writing, so the emitted files do not depend on the degree of parallelism.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import exact
from .engine import ALGORITHMS, Evaluator, RunTrace, Termination, run
from .graph import WeightedGraph
from .lp import lp_value2

CSV_COLUMNS = (
    "seed",
    "iters_to_zero_string",
    "iters_to_cover",
    "iters_to_target",
    "max_archive",
    "best_cost",
    "opt",
    "ratio",
    "censored",
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class TrialRecord:
    """One CSV row; milestone fields are None when never hit."""

    seed: int
    iters_to_zero_string: int | None
    iters_to_cover: int | None
    iters_to_target: int | None
    max_archive: int
    best_cost: int | None
    opt: int | None
    ratio: float | None
    censored: bool


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    trials: int
    seed_base: int = 0
    budget: int | None = None
    target_ratio: Fraction | None = None
    epsilon: Fraction | None = None  # informational; CLI folds it into target_ratio
    opt: int | None = None  # None: computed by the exact oracle when needed
    check_bounds: bool = False
    until_zero_string: bool = False
    workers: int = 1

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.budget is None and self.target_ratio is None:
            raise ConfigError("experiment needs a budget or a target ratio")


@dataclass
class ExperimentResult:
    records: list[TrialRecord]
    summary: dict
    traces_bound_violations: int


def _ratio(best: int | None, opt: int | None) -> float | None:
    if best is None or opt is None:
        return None
    if opt == 0:
        return 1.0 if best == 0 else math.inf
    return best / opt


def trial_record(trace: RunTrace, opt: int | None) -> TrialRecord:
    return TrialRecord(
        seed=trace.seed,
        iters_to_zero_string=trace.iters_to_zero_string,
        iters_to_cover=trace.iters_to_cover,
        iters_to_target=trace.iters_to_target,
        max_archive=trace.max_archive,
        best_cost=trace.best_cost,
        opt=opt,
        ratio=_ratio(trace.best_cost, opt),
        censored=trace.censored,
    )


def run_trial(g: WeightedGraph, algorithm: str, seed: int, termination: Termination,
              *, check_bounds: bool = False, evaluator: Evaluator | None = None,
              ) -> tuple[TrialRecord, RunTrace]:
    trace = run(algorithm, g, seed, termination,
                evaluator=evaluator, check_bounds=check_bounds)
    return trial_record(trace, termination.opt), trace


def _trial_batch(args) -> list[tuple[TrialRecord, int]]:
    g, algorithm, seeds, termination, check_bounds = args
    ev = Evaluator(g)
    out = []
    for seed in seeds:
        rec, trace = run_trial(g, algorithm, seed, termination,
                               check_bounds=check_bounds, evaluator=ev)
        out.append((rec, trace.bound_violations))
    return out


def resolve_opt(g: WeightedGraph, cfg: ExperimentConfig) -> int | None:
    """Supplied OPT wins; otherwise the exact oracle is consulted when feasible.

    A supplied OPT below the LP lower bound ceil(LP(0^n)) is provably wrong
    and rejected.
    """
    if cfg.opt is not None:
        bound = -(-lp_value2(g, [0] * g.n) // 2)
        if cfg.opt < bound:
            raise ConfigError(f"opt {cfg.opt} is below the LP lower bound {bound}")
        return cfg.opt
    if g.n > exact.BRANCH_BOUND_LIMIT:
        if cfg.target_ratio is not None:
            raise ConfigError(
                f"ratio target needs OPT, but n={g.n} exceeds the exact oracle; pass opt")
        return None
    try:
        return exact.opt_branch_bound(g).opt_cost
    except exact.SearchBudgetExceeded:
        if cfg.target_ratio is not None:
            raise ConfigError("ratio target needs OPT, but the exact oracle gave up; pass opt")
        return None


def run_experiment(g: WeightedGraph, cfg: ExperimentConfig) -> ExperimentResult:
    cfg.validate()
    opt = resolve_opt(g, cfg)
    termination = Termination(
        budget=cfg.budget,
        target_ratio=cfg.target_ratio,
        opt=opt,
        until_zero_string=cfg.until_zero_string,
    )
    seeds = [cfg.seed_base + i for i in range(cfg.trials)]
    pairs: list[tuple[TrialRecord, int]] = []
    interrupted = False
    if cfg.workers > 1:
        chunk = max(1, math.ceil(cfg.trials / (cfg.workers * 4)))
        batches = [
            (g, cfg.algorithm, seeds[i:i + chunk], termination, cfg.check_bounds)
            for i in range(0, len(seeds), chunk)
        ]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_trial_batch, b) for b in batches]
            try:
                for f in futures:
                    pairs.extend(f.result())
            except KeyboardInterrupt:
                interrupted = True
                pool.shutdown(cancel_futures=True)
                for f in futures:
                    if f.done() and not f.cancelled() and f.exception() is None:
                        pairs.extend(f.result())
    else:
        ev = Evaluator(g)
        try:
            for seed in seeds:
                rec, trace = run_trial(g, cfg.algorithm, seed, termination,
                                       check_bounds=cfg.check_bounds, evaluator=ev)
                pairs.append((rec, trace.bound_violations))
        except KeyboardInterrupt:
            interrupted = True  # keep the finished trials, flush partial results
    pairs.sort(key=lambda p: p[0].seed)
    records = [p[0] for p in pairs]
    violations = sum(p[1] for p in pairs)
    summary = summarize(g, cfg, opt, records, violations)
    summary["interrupted"] = interrupted
    return ExperimentResult(records=records, summary=summary, traces_bound_violations=violations)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def nearest_rank(sorted_vals: list, q: float):
    """Nearest-rank quantile of an ascending list, q in (0, 1]."""
    idx = max(1, math.ceil(q * len(sorted_vals))) - 1
    return sorted_vals[idx]


def _milestone_quantiles(values: list[int | None]) -> dict:
    finite = sorted(v for v in values if v is not None)
    out: dict = {"count": len(finite)}
    if finite:
        out.update(
            q10=nearest_rank(finite, 0.10),
            q50=nearest_rank(finite, 0.50),
            q90=nearest_rank(finite, 0.90),
            max=finite[-1],
        )
    return out


def expected_time_reference(algorithm: str, n: int, w_max: int, opt: int | None,
                      epsilon: Fraction | None) -> dict | None:
    """The algorithm's expected-time bound shape with all hidden constants set to 1.

    Reference magnitude only, never a pass/fail threshold.
    """
    log_n = math.log2(n) if n > 1 else 0.0
    log_w = math.log2(w_max) if w_max > 1 else 0.0
    if algorithm == "gsemo":
        if opt is None:
            return None
        return {
            "expression": "OPT*n*(log2(Wmax)+log2(n))",
            "value": opt * n * (log_w + log_n),
        }
    if algorithm == "gsemo-alt":
        if opt is None or epsilon is None:
            return None
        exp = min(n, 2 * (1 - float(epsilon)) * opt)
        return {
            "expression": "OPT*2^min(n,2(1-eps)OPT)+OPT*n*(log2(Wmax)+log2(n)+OPT)",
            "value": opt * 2.0 ** exp + opt * n * (log_w + log_n + opt),
        }
    if algorithm == "demo":
        return {
            "expression": "n^3*(log2(n)+log2(Wmax))^2",
            "value": n ** 3 * (log_n + log_w) ** 2,
        }
    if algorithm == "dpbea":
        if opt is None or epsilon is None:
            return None
        exp = min(n, 2 * (1 - float(epsilon)) * opt)
        return {
            "expression": "n*2^min(n,2(1-eps)OPT)+n^3",
            "value": n * 2.0 ** exp + n ** 3,
        }
    return None


def summarize(g: WeightedGraph, cfg: ExperimentConfig, opt: int | None,
              records: list[TrialRecord], bound_violations: int) -> dict:
    censored = sum(1 for r in records if r.censored)
    summary = {
        "algorithm": cfg.algorithm,
        "instance": {"n": g.n, "m": g.m, "w_max": g.w_max},
        "trials": len(records),
        "seed_base": cfg.seed_base,
        "budget": cfg.budget,
        "target_ratio": None if cfg.target_ratio is None else str(cfg.target_ratio),
        "epsilon": None if cfg.epsilon is None else str(cfg.epsilon),
        "opt": opt,
        "censored": censored,
        "success_rate": (
            None if cfg.target_ratio is None
            else (len(records) - censored) / len(records) if records else None
        ),
        "bound_violations": bound_violations if cfg.check_bounds else None,
        "hitting_quantiles": {
            "iters_to_zero_string": _milestone_quantiles(
                [r.iters_to_zero_string for r in records]),
            "iters_to_cover": _milestone_quantiles([r.iters_to_cover for r in records]),
            "iters_to_target": _milestone_quantiles([r.iters_to_target for r in records]),
        },
        "ratio": _milestone_quantiles(
            [r.ratio for r in records if r.ratio is not None and math.isfinite(r.ratio)]),
        "expected_time_reference": expected_time_reference(
            cfg.algorithm, g.n, g.w_max, opt, cfg.epsilon),
    }
    return summary


def summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _opt_int(cell: str) -> int | None:
    return None if cell == "" else int(cell)


def records_to_csv(records: Iterable[TrialRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([
            _cell(r.seed),
            _cell(r.iters_to_zero_string),
            _cell(r.iters_to_cover),
            _cell(r.iters_to_target),
            _cell(r.max_archive),
            _cell(r.best_cost),
            _cell(r.opt),
            _cell(r.ratio),
            _cell(r.censored),
        ])
    return buf.getvalue()


def records_from_csv(text: str) -> list[TrialRecord]:
    rows = list(csv.reader(text.splitlines()))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header, want {','.join(CSV_COLUMNS)}")
    out = []
    for row in rows[1:]:
        if not row:
            continue
        out.append(TrialRecord(
            seed=int(row[0]),
            iters_to_zero_string=_opt_int(row[1]),
            iters_to_cover=_opt_int(row[2]),
            iters_to_target=_opt_int(row[3]),
            max_archive=int(row[4]),
            best_cost=_opt_int(row[5]),
            opt=_opt_int(row[6]),
            ratio=None if row[7] == "" else float(row[7]),
            censored={"true": True, "false": False}[row[8]],
        ))
    return out


def write_records_csv(records: Iterable[TrialRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(records_to_csv(records))


def read_records_csv(path: str) -> list[TrialRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return records_from_csv(fh.read())
