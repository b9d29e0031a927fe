"""A literal transcription of the four search loops, as the whole-engine oracle.

Each iteration picks a parent, mutates its genotype, evaluates the whole
child from scratch (cost, ones and ``lp_value2``) and inserts it with the
plain list rules of ``conftest``: no memo, threshold, bound, stored flow,
delta evaluation, skipped insert or batch. Only the exact values are kept,
one record per genotype, so a genotype proposed again is the same object,
as it is in the engine's memo. The random stream is drawn one row per
iteration, with ``uniform`` for the pick and the coin and ``uniforms`` for
the flip draws, the values ``engine.run`` decodes; ``rows`` is never called.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

import evocover as ec
from conftest import (bits_of, code_of, dpbea_reference_insert, focused_pvec,
                      front_reference_insert)


def reference_run(algorithm, g, seed, termination, *, check_bounds=False,
                  record_series=False, callback=None, known=None):
    """The ``RunTrace`` of ``engine.run`` with the same arguments, and the
    same ``callback(it, cand, accepted, archive)`` calls, where ``archive``
    lists the members as ``members``. ``known`` maps genotype bytes to
    records with exact values; runs on one graph may share it."""
    n = g.n
    rng = ec.RngStream(seed)
    known = {} if known is None else known

    def evaluate(bits):
        key = bytes(bits)
        if key not in known:
            known[key] = ec.Individual(code_of(key),
                                       sum(w for w, b in zip(g.weights, key) if b),
                                       ec.lp_value2(g, list(key)), sum(key), None, g)
        return known[key]

    archive = SimpleNamespace(members=[])  # the front by cost, or dpbea's groups by ones
    groups = {}  # dpbea: ones -> group
    max_group = 0

    def insert(cand):
        nonlocal max_group
        if algorithm == "dpbea":
            accepted = dpbea_reference_insert(groups, cand)
            archive.members = [m for k in sorted(groups) for m in groups[k]]
            max_group = max(max_group, *map(len, groups.values()))
            return accepted
        return front_reference_insert(archive.members, cand, g.n if algorithm == "demo" else None)

    opt, ratio, budget = termination.opt, termination.target_ratio, termination.budget
    cap = None
    if check_bounds:
        if algorithm == "demo":
            cap = ec.demo_archive_capacity(n, g.w_max)
        elif algorithm == "dpbea":
            cap = 2 * (n + 1)
        elif opt is not None:
            cap = 2 * opt + 1

    best = hit0 = hitc = hitt = None
    violations = max_arch = 0
    series = [] if record_series else None
    it = 0
    bits = (rng.uniforms(n) < 0.5).astype(np.uint8)
    while True:
        cand = evaluate(bits)
        accepted = insert(cand)
        size = len(archive.members)
        max_arch = max(max_arch, size)
        if cand.cost == 0 and hit0 is None:
            hit0 = it
        if cand.lp2 == 0 and (best is None or cand.cost < best.cost):
            best = cand
            if hitc is None:
                hitc = it
            if ratio is not None and hitt is None and best.cost <= ratio * opt:
                hitt = it
        if cap is not None and (size > cap or max_group > 2):
            violations += 1
        if record_series:
            series.append((it, size, None if best is None else best.cost))
        if callback is not None and it:
            callback(it, cand, accepted, archive)
        hit = hitt if ratio is not None else hitc if termination.any_cover else None
        if (hit is not None and (not termination.until_zero_string or hit0 is not None)
                or it == budget):
            break
        it += 1
        parent = archive.members[int(rng.uniform() * len(archive.members))]
        if algorithm in ("gsemo-alt", "dpbea") and rng.uniform() < 0.5:
            flips = rng.uniforms(n) < focused_pvec(g, bits_of(parent.code, n))
        else:
            flips = rng.uniforms(n) < 1.0 / n
        bits = bits_of(parent.code, n) ^ flips

    return ec.RunTrace(
        algorithm=algorithm, seed=seed, n=n, iterations=it, max_archive=max_arch,
        best_cost=None if best is None else best.cost,
        best_cover=None if best is None else tuple(bits_of(best.code, n).tolist()),
        iters_to_zero_string=hit0, iters_to_cover=hitc, iters_to_target=hitt,
        target_kind=termination.target_kind, bound_violations=violations, series=series)
