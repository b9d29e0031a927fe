"""Correctness checks run after the timed phase.

Each check is one attempted item; a failed item counts in ``failed``:

* every trial: not censored, ``best_cover`` is a cover of cost
  ``best_cost``, and ``best_cost`` is not below OPT;
* the set-up OPT equals the golden OPT (where branch and bound ran);
* the golden trials, replayed at the default seed, have the golden
  ``RunTrace`` digests;
* sampled genotypes, evaluated with the workload's Evaluators, have the
  ``lp2`` of an independent oracle: ``brute_force_lp`` for residual graphs
  of at most 14 vertices, else a cold SciPy max-flow on the double cover.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from workloads import ALGOS, DEFAULT_SEED, Instance, run_timed, trace_digest

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
BRUTE_FORCE_MAX = 14
SAMPLES_PER_ALGO = 6


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def trial_problem(g, opt: int, trial) -> str | None:
    """What is wrong with one trial's result, or None."""
    tr = trial.trace
    where = f"{trial.algo} seed {trial.seed}"
    if trial.record.censored:
        return f"{where}: censored after {tr.iterations} iterations"
    cover = tr.best_cover
    if cover is None:
        return None if tr.best_cost is None else f"{where}: best_cost without a cover"
    if any(not (cover[u] or cover[v]) for u, v in g.edges):
        return f"{where}: best_cover leaves an edge uncovered"
    if sum(w for w, b in zip(g.weights, cover) if b) != tr.best_cost:
        return f"{where}: best_cover does not cost best_cost={tr.best_cost}"
    if tr.best_cost < opt:
        return f"{where}: best_cost {tr.best_cost} below OPT {opt}"
    return None


def replay_golden(inst: Instance, golden: dict) -> tuple[int, list[str]]:
    """Replay the golden units at the default seed, on fresh Evaluators as
    ``make_golden.py`` ran them, and compare digests."""
    inst.fresh_evaluators()
    units, _ = run_timed(inst, DEFAULT_SEED, golden["opt"], units=inst.workload.golden_units)
    want = golden["digests"]
    got = {f"{t.algo}:{t.seed}": trace_digest(t.trace) for unit in units for t in unit}
    problems = [f"golden {k}: digest {got.get(k)} != {v}" for k, v in want.items()
                if got.get(k) != v]
    problems += [f"golden {k}: trial not in the golden file" for k in got if k not in want]
    return len(want.keys() | got.keys()), problems


def scipy_lp2(g, bits) -> int:
    """2*LP of the residual graph via a cold SciPy max-flow on the double cover."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    kept = [i for i in range(g.n) if not bits[i]]
    pos = {v: i for i, v in enumerate(kept)}
    k = len(kept)
    big = sum(g.weights) + 1
    rows, cols, caps = [], [], []
    for i, v in enumerate(kept):  # 0 = source, 1 = sink, 2+i left, 2+k+i right
        rows += [0, 2 + k + i]
        cols += [2 + i, 1]
        caps += [g.weights[v], g.weights[v]]
    for u, v in g.edges:
        if not bits[u] and not bits[v]:
            rows += [2 + pos[u], 2 + pos[v]]
            cols += [2 + k + pos[v], 2 + k + pos[u]]
            caps += [big, big]
    mat = csr_matrix((np.asarray(caps, dtype=np.int32), (rows, cols)), shape=(2 + 2 * k,) * 2)
    return int(maximum_flow(mat, 0, 1).flow_value)


def oracle_lp2(ec, g, bits) -> int:
    if g.n - int(np.sum(bits)) <= BRUTE_FORCE_MAX:
        return ec.lp.brute_force_lp(ec.graph.residual(g, bits), g.weights).value2
    return scipy_lp2(g, bits)


def sample_genotypes(g, trials, seed: int, algo: str) -> list[np.ndarray]:
    """Genotypes near the trials' best covers (small residuals, likely in the
    memo) and uniform random ones (large residuals)."""
    rnd = random.Random(f"{seed}:{algo}")
    covers = [t.trace.best_cover for t in trials if t.algo == algo and t.trace.best_cover]
    out = []
    for i in range(SAMPLES_PER_ALGO):
        if covers and i % 2 == 0:
            bits = np.array(rnd.choice(covers), dtype=np.uint8)
            ones = np.flatnonzero(bits)
            for v in rnd.sample(list(ones), min(len(ones), rnd.randint(1, 3))):
                bits[v] = 0
        else:
            density = rnd.uniform(0.2, 0.8)
            bits = np.array([rnd.random() < density for _ in range(g.n)], dtype=np.uint8)
        out.append(bits)
    return out


def lp_spot_check(inst: Instance, trials, seed: int) -> tuple[int, list[str]]:
    ec, g = inst.ec, inst.graph
    attempted, problems = 0, []
    for algo in ALGOS:
        ev = inst.evaluators[algo]
        for bits in sample_genotypes(g, trials, seed, algo):
            attempted += 1
            got = ev.evaluate(bits).lp2
            want = oracle_lp2(ec, g, bits)
            if got != want:
                problems.append(f"lp2 of {''.join(map(str, bits))} ({algo}): {got} != {want}")
    return attempted, problems


def check_all(inst: Instance, trials, seed: int, golden: dict) -> tuple[int, list[str]]:
    """Run every check; returns (items attempted, one problem per failed item).

    The LP spot-check goes first: it samples the Evaluators the timed phase
    left behind, which the golden replay then replaces.
    """
    g, opt = inst.graph, golden["opt"]
    attempted = len(trials) + 1
    problems = [p for p in (trial_problem(g, opt, t) for t in trials) if p]
    if inst.opt is not None and inst.opt != opt:
        problems.append(f"set-up OPT {inst.opt} != golden OPT {opt}")
    for n_items, found in (lp_spot_check(inst, trials, seed), replay_golden(inst, golden)):
        attempted += n_items
        problems += found
    return attempted, problems
