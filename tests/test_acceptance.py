"""Acceptance suite: one test per criterion, numbered and in order.

Run with ``pytest -v tests/test_acceptance.py`` to get the per-criterion
pass/fail lines; each test also prints a one-line PASS summary with the
measured quantities (visible with -s or -rA).

The hitting-time criteria are statistical: they use the generous explicit
budgets below, derived from the expected-time bounds with small constant
factors, and require high success rates rather than exact reproduction.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import evocover as ec
from evocover import experiment as expmod
from evocover.cli import main
from conftest import all_graphs_up_to, np_rng, opt_exhaustive, random_genotype, tiny_lp_value2


def ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def check_lp_output(rg, weights, sol):
    assert all(a in (0, 1, 2) for a in sol.assign2), "assignment not half-integral"
    for u, v in rg.edges:
        assert sol.assign2[u] + sol.assign2[v] >= 2, "assignment infeasible"
    w = [weights[i] for i in rg.kept]
    assert sum(a * wi for a, wi in zip(sol.assign2, w)) == sol.value2


# ---------------------------------------------------------------------------
# Shared experiment fixtures (criteria 5, 6, 7, 8, 9 draw on these runs)
# ---------------------------------------------------------------------------

SEEDS_PER_INSTANCE = 100


@pytest.fixture(scope="module")
def hitting_instances():
    """20 deterministic gnp instances, n <= 12, W_max <= 16, with OPT."""
    grid = itertools.cycle(itertools.product(range(6, 13), (0.3, 0.6), (1, 4, 16)))
    out = []
    seed = 60_000
    while len(out) < 20:
        n, p, w_max = next(grid)
        g = ec.gnp(n, p, w_max=w_max, seed=seed)
        seed += 1
        if g.m == 0:
            continue
        out.append((g, ec.opt_branch_bound(g).opt_cost))
    return out


def _hitting_runs(instances, algorithm, budget_fn):
    traces = []
    for idx, (g, opt) in enumerate(instances):
        ev = ec.Evaluator(g)
        budget = budget_fn(g, opt)
        term = ec.Termination(budget=budget, target_ratio=Fraction(2), opt=opt,
                              until_zero_string=True)
        for s in range(SEEDS_PER_INSTANCE):
            traces.append(ec.run(algorithm, g, 10_000 * idx + s, term,
                                 evaluator=ev, check_bounds=True))
    return traces


@pytest.fixture(scope="module")
def gsemo_runs(hitting_instances):
    def budget(g, opt):
        return 200 * opt * g.n * (ceil_log2(g.w_max) + ceil_log2(g.n) + 1)
    return _hitting_runs(hitting_instances, "gsemo", budget)


@pytest.fixture(scope="module")
def demo_runs(hitting_instances):
    def budget(g, opt):
        return 100 * g.n ** 3 * (ceil_log2(g.n) + ceil_log2(g.w_max) + 1) ** 2
    return _hitting_runs(hitting_instances, "demo", budget)


@pytest.fixture(scope="module")
def epsilon_runs():
    """gsemo-alt and dpbea on small-OPT instances at epsilon = 1/2."""
    eps = Fraction(1, 2)
    instances = []
    seed = 80_000
    sizes = itertools.cycle((8, 10, 12))
    while len(instances) < 4:
        n = next(sizes)
        g = ec.gnp(n, 0.15, w_max=1, seed=seed)
        seed += 1
        if g.m == 0:
            continue
        opt = ec.opt_branch_bound(g).opt_cost
        if 1 <= opt <= 5:
            instances.append((g, opt))
    traces = {"gsemo-alt": [], "dpbea": []}
    for idx, (g, opt) in enumerate(instances):
        # 2(1-eps)OPT = OPT at eps = 1/2
        exponent = min(g.n, int(2 * (1 - eps) * opt))
        budget = 100 * (g.n * 2 ** exponent + g.n ** 3)
        term = ec.Termination(budget=budget, target_ratio=1 + eps, opt=opt)
        for algorithm in traces:
            ev = ec.Evaluator(g)
            for s in range(50):
                traces[algorithm].append(
                    (ec.run(algorithm, g, 20_000 * idx + s, term,
                            evaluator=ev, check_bounds=True), opt))
    return traces


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_lp_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    grid = itertools.cycle(itertools.product(range(1, 11), (0.3, 0.6), (1, 8)))
    for i in range(500):
        n, p, w_max = next(grid)
        g = ec.gnp(n, p, w_max=w_max, seed=1000 + i)
        rg = ec.residual(g, [0] * g.n)
        fast = ec.solve_lp(rg, g.weights)
        brute = ec.brute_force_lp(rg, g.weights)
        assert fast.value2 == brute.value2, (i, g)
        check_lp_output(rg, g.weights, fast)
        check_lp_output(rg, g.weights, brute)
        checked += 1
    for weights_for in (lambda n: [1] * n, lambda n: [2, 1, 3, 1][:n]):
        for g in all_graphs_up_to(4, weights_for):
            rg = ec.residual(g, [0] * g.n)
            fast = ec.solve_lp(rg, g.weights)
            brute = ec.brute_force_lp(rg, g.weights)
            assert fast.value2 == brute.value2, g
            check_lp_output(rg, g.weights, fast)
            check_lp_output(rg, g.weights, brute)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion demands < 1 min, took {elapsed:.1f}s"
    print(f"[criterion 1] PASS: {checked} instances, LP solver == brute force, "
          f"all outputs feasible half-integral, {elapsed:.1f}s")


def test_criterion_02_lp_sandwich_bounds():
    rng = np_rng(29)
    grid = itertools.cycle(itertools.product(range(3, 13), (0.3, 0.6), (1, 8)))
    checked = 0
    for i in range(200):
        n, p, w_max = next(grid)
        g = ec.gnp(n, p, w_max=w_max, seed=2000 + i)
        base = ec.lp_value2(g, [0] * g.n)
        opt2 = 2 * ec.opt_branch_bound(g).opt_cost
        assert base <= opt2, (i, g)
        for _ in range(50):
            x = random_genotype(g.n, rng)
            assert ec.lp_value2(g, x) <= base <= opt2, (i, g, x)
            checked += 1
    print(f"[criterion 2] PASS: lp2(x) <= lp2(zeros) <= 2*OPT on {checked} "
          "instance/selection pairs, zero violations")


def test_criterion_03_flip_reduces_lp():
    rng = np_rng(31)
    grid = itertools.cycle(itertools.product(range(3, 13), (0.3, 0.6), (1, 8)))
    flips = 0
    for i in range(200):
        n, p, w_max = next(grid)
        g = ec.gnp(n, p, w_max=w_max, seed=3000 + i)
        selections = [np.zeros(g.n, dtype=np.uint8)] + [
            random_genotype(g.n, rng) for _ in range(3)]
        for x in selections:
            rg = ec.residual(g, x)
            sol = ec.solve_lp(rg, g.weights)
            for ridx, a in enumerate(sol.assign2):
                if a >= 1:
                    orig = rg.kept[ridx]
                    x2 = x.copy()
                    x2[orig] = 1
                    drop = sol.value2 - ec.lp_value2(g, x2)
                    assert drop >= a * g.weights[orig], (i, orig)
                    flips += 1
    print(f"[criterion 3] PASS: {flips} covered 0->1 flips each lowered lp2 "
          "by at least assign2 * weight, zero violations")


def test_criterion_04_exact_oracle_equivalence():
    grid = itertools.cycle(itertools.product(range(2, 15), (0.3, 0.6), (1, 8)))
    for i in range(300):
        n, p, w_max = next(grid)
        g = ec.gnp(n, p, w_max=w_max, seed=4000 + i)
        bb = ec.opt_branch_bound(g)
        ex = opt_exhaustive(g)
        assert bb == ex, (i, g, bb, ex)
        assert (ec.lp_value2(g, [0] * g.n) + 1) // 2 <= bb.opt_cost, (i, g)
    print("[criterion 4] PASS: branch-and-bound == exhaustive on 300 instances "
          "(cost and witness), LP pruning bound never exceeded OPT")


def test_criterion_05_archive_bounds(gsemo_runs, demo_runs, epsilon_runs):
    pools = [
        ("gsemo <= 2*OPT+1", sum(t.bound_violations for t in gsemo_runs)),
        ("demo <= 2k-1", sum(t.bound_violations for t in demo_runs)),
        ("gsemo-alt <= 2*OPT+1",
         sum(t.bound_violations for t, _ in epsilon_runs["gsemo-alt"])),
        ("dpbea <= 2/ones-count",
         sum(t.bound_violations for t, _ in epsilon_runs["dpbea"])),
    ]
    for name, violations in pools:
        assert violations == 0, f"{name}: {violations} violations"
    total_runs = (len(gsemo_runs) + len(demo_runs)
                  + len(epsilon_runs["gsemo-alt"]) + len(epsilon_runs["dpbea"]))
    print(f"[criterion 5] PASS: zero archive-bound violations across "
          f"{total_runs} runs monitored every iteration")


def test_criterion_06_gsemo_two_approx_hitting(gsemo_runs):
    hits = sum(1 for t in gsemo_runs if t.iters_to_target is not None)
    rate = hits / len(gsemo_runs)
    assert rate >= 0.95, f"gsemo 2-approx success rate {rate:.3f} < 0.95"
    print(f"[criterion 6] PASS: gsemo reached cost <= 2*OPT within budget in "
          f"{hits}/{len(gsemo_runs)} runs ({rate:.1%})")


def test_criterion_07_demo_two_approx_hitting(demo_runs):
    hits = sum(1 for t in demo_runs if t.iters_to_target is not None)
    rate = hits / len(demo_runs)
    assert rate >= 0.95, f"demo 2-approx success rate {rate:.3f} < 0.95"
    print(f"[criterion 7] PASS: demo reached cost <= 2*OPT within budget in "
          f"{hits}/{len(demo_runs)} runs ({rate:.1%})")


def test_criterion_08_epsilon_statistical(epsilon_runs):
    eps = 0.5
    for algorithm, pairs in epsilon_runs.items():
        assert len(pairs) >= 200
        ratios = []
        for trace, opt in pairs:
            assert trace.best_cost is not None, f"{algorithm}: run found no cover"
            ratio = trace.best_cost / opt
            assert ratio <= 2.0, f"{algorithm}: per-run ratio {ratio} > 2"
            ratios.append(ratio)
        mean = sum(ratios) / len(ratios)
        assert mean <= (1 + eps) * 1.10, f"{algorithm}: mean ratio {mean:.3f}"
        print(f"[criterion 8] PASS: {algorithm} mean ratio "
              f"{mean:.3f} <= {(1 + eps) * 1.1:.2f} over {len(ratios)} runs, "
              f"max {max(ratios):.3f} <= 2")


def test_criterion_09_zero_string_inclusion(gsemo_runs, demo_runs):
    traces = gsemo_runs + demo_runs
    hits = sum(1 for t in traces if t.iters_to_zero_string is not None)
    rate = hits / len(traces)
    assert rate >= 0.99, f"zero-string inclusion rate {rate:.4f} < 0.99"
    print(f"[criterion 9] PASS: the all-zeros genotype entered the archive in "
          f"{hits}/{len(traces)} runs ({rate:.2%}) before the budget elapsed")


def test_criterion_10_determinism(tmp_path, capsys, hitting_instances):
    g, _ = hitting_instances[0]
    inst = tmp_path / "det.wvc"
    ec.save_instance(g, str(inst))
    argv = ["run", "--algo", "dpbea", "--instance", str(inst), "--budget", "4000",
            "--target-ratio", "2", "--seed", "99", "--series", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second and first, "cmd_run JSON not byte-identical"

    cfg1 = expmod.ExperimentConfig(algorithm="gsemo", trials=12, seed_base=7,
                                   budget=4000, target_ratio=Fraction(2),
                                   check_bounds=True, workers=1)
    cfg2 = expmod.ExperimentConfig(algorithm="gsemo", trials=12, seed_base=7,
                                   budget=4000, target_ratio=Fraction(2),
                                   check_bounds=True, workers=3)
    seq = expmod.run_experiment(g, cfg1)
    par = expmod.run_experiment(g, cfg2)
    assert expmod.records_to_csv(seq.records) == expmod.records_to_csv(par.records)
    assert expmod.summary_json(seq.summary) == expmod.summary_json(par.summary)
    print("[criterion 10] PASS: cmd_run JSON byte-identical on repeat; "
          "experiment output invariant under trial-level parallelism")
