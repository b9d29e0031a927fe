"""Regenerate ``golden.json``: each workload's instance, OPT and golden digests.

    python3 bench/make_golden.py

OPT comes from an integer program solved by SciPy's ``milp``, independent
of the package's own exact oracles. The digests are those of the golden
units at the default seed, run by the code under test: regenerate only when
a change is meant to alter fixed-seed output, and say so.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from checks import GOLDEN_PATH
from run import import_evocover
from workloads import DEFAULT_SEED, W_MAX, WORKLOADS, run_timed, set_up, trace_digest


def milp_opt(g) -> int:
    a = np.zeros((g.m, g.n))
    for i, (u, v) in enumerate(g.edges):
        a[i, u] = a[i, v] = 1
    res = milp(np.asarray(g.weights, dtype=float), integrality=np.ones(g.n),
               bounds=Bounds(0, 1), constraints=LinearConstraint(a, lb=1))
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return int(round(res.fun))


def main() -> None:
    ec = import_evocover()
    out = {}
    for name, wl in WORKLOADS.items():
        inst = set_up(ec, wl)
        opt = milp_opt(inst.graph)
        if inst.opt is not None and inst.opt != opt:
            raise RuntimeError(f"{name}: branch and bound {inst.opt} != milp {opt}")
        trials = [t for unit in run_timed(inst, DEFAULT_SEED, opt, units=wl.golden_units)[0]
                  for t in unit]
        out[name] = {
            "instance": {"kind": "gnp", "n": wl.n, "p": wl.p, "w_max": W_MAX,
                         "seed": wl.instance_seed, "m": inst.graph.m},
            "opt": opt,
            "digests": {f"{t.algo}:{t.seed}": trace_digest(t.trace) for t in trials},
        }
        print(f"{name}: m={inst.graph.m} opt={opt} golden trials={len(trials)}")
    GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
