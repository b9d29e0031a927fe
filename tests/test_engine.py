"""Dominance, boxing, mutation operators, archive disciplines, and runs."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evocover as ec
from evocover.lp import DoubleCover
from conftest import dinic_lp2, make_instances, tiny_box_coord


def mk(cost, lp2, ones=0):
    """Fabricated individual for archive-level tests."""
    return ec.Individual(np.zeros(1, dtype=np.uint8), b"", cost, lp2, ones, 0, None)


# ---------------------------------------------------------------------------
# Dominance and boxing
# ---------------------------------------------------------------------------

def test_dominance_examples():
    assert ec.dominates_weak(ec.Fitness(3, 4), ec.Fitness(3, 4))
    assert not ec.dominates_strong(ec.Fitness(3, 4), ec.Fitness(3, 4))
    assert ec.dominates_weak(ec.Fitness(2, 4), ec.Fitness(3, 4))
    assert ec.dominates_strong(ec.Fitness(2, 4), ec.Fitness(3, 4))
    assert not ec.dominates_weak(ec.Fitness(2, 5), ec.Fitness(3, 4))
    assert not ec.dominates_weak(ec.Fitness(3, 4), ec.Fitness(2, 5))


def test_box_index_examples():
    assert ec.box_index(ec.Fitness(0, 0), 5) == ec.BoxIndex(0, 0)
    # n = 4, delta = 1/8: smallest k with (9/8)^k >= 2 is 6
    assert ec.box_index(ec.Fitness(1, 0), 4).b1 == 6
    # lp2 = 3 means LP = 3/2: smallest k with (9/8)^k >= 5/2 is 8
    assert ec.box_index(ec.Fitness(0, 3), 4).b2 == 8


def test_box_index_against_fraction_oracle():
    # the tables grow from float powers, floored exactly near an integer;
    # n = 1000 reaches powers (2n+1)^k of about 200 000 bits
    for n in (1, 2, 4, 7, 12, 33, 100, 300, 1000):
        for cost in (0, 1, 2, 5, 17, 100, 12345):
            assert ec.box_index(ec.Fitness(cost, 0), n).b1 == tiny_box_coord(Fraction(cost), n)
        for lp2 in (0, 1, 2, 3, 7, 16, 99, 1001):
            assert ec.box_index(ec.Fitness(0, lp2), n).b2 == tiny_box_coord(Fraction(lp2, 2), n)
        # every cost up to n * w_max and every lp2 up to 2 * n * w_max at
        # w_max = 16, against exact powers r^k = num / den taken in one
        # increasing pass: r^k < 1 + lp2 / 2 iff 2 num < (2 + lp2) den
        top = n * 16
        num, den, k = 1, 1, 0
        for lp2 in range(2 * top + 1):
            while 2 * num < (2 + lp2) * den:
                num *= 2 * n + 1
                den *= 2 * n
                k += 1
            assert ec.box_index(ec.Fitness(0, lp2), n).b2 == k
            if lp2 % 2 == 0:
                assert ec.box_index(ec.Fitness(lp2 // 2, 0), n).b1 == k


def test_demo_archive_capacity_matches_oracle():
    for n, w_max in [(1, 1), (4, 3), (10, 16), (12, 1)]:
        k = 1 + tiny_box_coord(Fraction(n * w_max), n)
        assert ec.demo_archive_capacity(n, w_max) == 2 * k - 1


# ---------------------------------------------------------------------------
# RngStream
# ---------------------------------------------------------------------------

def test_rng_stream_deterministic_across_block_refills():
    a = ec.RngStream(99)
    b = ec.RngStream(99)
    for i in range(3000):  # mixed draw shapes crossing the 4096 block boundary
        if i % 3 == 0:
            assert a.uniform() == b.uniform()
        else:
            assert np.array_equal(a.uniforms(7), b.uniforms(7))
    assert ec.RngStream(99).uniform() != ec.RngStream(100).uniform()


def test_rng_stream_range_and_oversize():
    rng = ec.RngStream(5)
    u = rng.uniforms(10000)  # larger than one block
    assert u.size == 10000
    assert (u >= 0).all() and (u < 1).all()


def test_rng_below_matches_uniforms_on_a_twin_stream():
    # below(k, p) consumes the stream as uniforms(k) does, beyond one block
    # (k = 5000) too. Calls with one p share a block's hit list, so calls
    # with p follow ones with another p in the same block, and follow
    # uniform() or uniforms(m) that may have replaced the block (the first
    # call, below(4096, p), fills the first block exactly).
    a, b = ec.RngStream(7), ec.RngStream(7)
    for k, p, m in itertools.product((4096, 1, 12, 100, 5000), (1 / 12, 1 / 100, 0.5),
                                     (0, 1, 37, 4000, 4096)):
        for k2, p2 in ((k, p), (12, p), (12, p / 2), (12, p), (1, p)):
            assert a.below(k2, p2) == np.flatnonzero(b.uniforms(k2) < p2).tolist(), (k2, p2)
            assert a.uniform() == b.uniform()
        assert np.array_equal(a.uniforms(m), b.uniforms(m))
        assert a.uniform() == b.uniform()


# ---------------------------------------------------------------------------
# Mutation operators
# ---------------------------------------------------------------------------

def test_mutations_draw_as_the_uniform_formulas():
    # each operator flips exactly the bits a twin stream's uniforms select,
    # coin first for the alternative one, and leaves its input unchanged
    g = ec.gnp(12, 0.4, w_max=16, seed=1)
    n = g.n
    a, b = ec.RngStream(3), ec.RngStream(3)
    x = np.zeros(n, dtype=np.uint8)
    for _ in range(3000):
        before = x.copy()
        y = ec.standard_mutation(x, a)
        assert np.array_equal(y, x ^ (b.uniforms(n) < 1 / n))
        pvec = 1 / n
        if b.uniform() < 0.5:
            pvec = ec.engine._focused_pvec(g, x)
        z = ec.alternative_mutation(g, x, a)
        assert np.array_equal(z, x ^ (b.uniforms(n) < pvec))
        assert np.array_equal(x, before)
        x = z


def test_standard_mutation_n1_is_complement():
    rng = ec.RngStream(0)
    assert ec.standard_mutation(np.array([0], dtype=np.uint8), rng).tolist() == [1]
    assert ec.standard_mutation(np.array([1], dtype=np.uint8), rng).tolist() == [0]


def test_standard_mutation_deterministic():
    x = np.zeros(8, dtype=np.uint8)
    got = [ec.standard_mutation(x, ec.RngStream(123)).tolist() for _ in range(3)]
    assert got[0] == got[1] == got[2]


def test_standard_mutation_flip_rate():
    # 1e6 draws at n = 10: per-bit flip frequency 0.1 +- 0.002
    n, draws = 10, 1_000_000
    rng = ec.RngStream(2024)
    x = np.zeros(n, dtype=np.uint8)
    counts = np.zeros(n, dtype=np.int64)
    for _ in range(draws):
        counts += ec.standard_mutation(x, rng)
    freq = counts / draws
    assert np.all(np.abs(freq - 0.1) < 0.002), freq


def test_alternative_mutation_flip_rate_uncovered_clique():
    # n = 10 clique, nothing selected: every vertex is uncovered-incident,
    # so the unconditional per-bit flip rate is 1/2 * 1/2 + 1/2 * 1/10 = 0.3
    n, draws = 10, 1_000_000
    g = ec.build_graph(n, [1] * n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    rng = ec.RngStream(777)
    x = np.zeros(n, dtype=np.uint8)
    counts = np.zeros(n, dtype=np.int64)
    for _ in range(draws):
        counts += ec.alternative_mutation(g, x, rng)
    freq = counts / draws
    assert np.all(np.abs(freq - 0.3) < 0.005), freq


def test_alternative_mutation_single_edge_endpoints():
    # single edge, x = 00: each endpoint flips with probability 1/2 in both
    # branches (1/n = 1/2 here), so the observed rate must sit at 1/2
    g = ec.build_graph(2, [1, 1], [(0, 1)])
    rng = ec.RngStream(31)
    x = np.zeros(2, dtype=np.uint8)
    draws = 200_000
    counts = np.zeros(2, dtype=np.int64)
    for _ in range(draws):
        counts += ec.alternative_mutation(g, x, rng)
    freq = counts / draws
    assert np.all(np.abs(freq - 0.5) < 0.01), freq


def test_alternative_mutation_mixed_rates():
    # one uncovered edge plus two isolated vertices at n = 4:
    # incident bits 1/2*1/2 + 1/2*1/4 = 0.375, others 1/4
    g = ec.build_graph(4, [1] * 4, [(0, 1)])
    rng = ec.RngStream(32)
    x = np.zeros(4, dtype=np.uint8)
    draws = 200_000
    counts = np.zeros(4, dtype=np.int64)
    for _ in range(draws):
        counts += ec.alternative_mutation(g, x, rng)
    freq = counts / draws
    assert abs(freq[0] - 0.375) < 0.01 and abs(freq[1] - 0.375) < 0.01, freq
    assert abs(freq[2] - 0.25) < 0.01 and abs(freq[3] - 0.25) < 0.01, freq


def test_alternative_mutation_full_cover_degenerates():
    # covered instance: both branches flip every bit with probability 1/n
    g = ec.path(3)
    rng = ec.RngStream(33)
    x = np.array([0, 1, 0], dtype=np.uint8)  # middle vertex covers both edges
    draws = 200_000
    counts = np.zeros(3, dtype=np.int64)
    for _ in range(draws):
        counts += ec.alternative_mutation(g, x, rng) != x
    freq = counts / draws
    assert np.all(np.abs(freq - 1 / 3) < 0.01), freq


def test_incident_mask_excludes_selected_vertices():
    # the focused branch flips with 1/2 exactly the ends of uncovered edges;
    # at n = 3 every other vertex gets 1/3
    g = ec.path(3)
    ev = ec.Evaluator(g)

    def mask(bits):
        return (ev.evaluate(np.array(bits, dtype=np.uint8)).focused_pvec() == 0.5).tolist()

    assert mask([0, 0, 0]) == [True, True, True]
    # selecting vertex 0 covers edge (0,1); only (1,2) stays uncovered
    assert mask([1, 0, 0]) == [False, True, True]
    assert mask([0, 1, 0]) == [False, False, False]
    assert mask([1, 0, 1]) == [False, False, False]


# ---------------------------------------------------------------------------
# Archive disciplines
# ---------------------------------------------------------------------------

def test_semo_insert_examples():
    arch = ec.SemoArchive()
    assert arch.insert(mk(3, 4))  # empty archive accepts
    assert not arch.insert(mk(3, 4))  # equal fitness is weakly dominated
    assert len(arch.members) == 1

    assert arch.insert(mk(2, 4))  # strictly better

    assert [m.fitness for m in arch.members] == [(2, 4)]  # dominated member removed
    assert arch.insert(mk(3, 3))  # incomparable joins
    assert [m.fitness for m in arch.members] == [(2, 4), (3, 3)]
    assert not arch.insert(mk(4, 4))  # dominated by both


def test_semo_archive_sorted_and_unique_lp2():
    arch = ec.SemoArchive()
    for c, l in [(5, 9), (2, 20), (9, 1), (4, 11), (3, 12)]:
        arch.insert(mk(c, l))
    costs = [m.cost for m in arch.members]
    lp2s = [m.lp2 for m in arch.members]
    assert costs == sorted(costs)
    assert lp2s == sorted(lp2s, reverse=True)
    assert len(set(lp2s)) == len(lp2s)


def test_demo_insert_box_tie_rules():
    # n = 1 (delta = 1/2) box arithmetic: fitness (3,4) and (4,3) share box
    # (4,3); fitness (3,3) sits in the same box with a smaller cost+lp2 sum
    n = 1
    assert ec.box_index(ec.Fitness(3, 4), n) == ec.box_index(ec.Fitness(4, 3), n)
    assert ec.box_index(ec.Fitness(3, 3), n) == ec.box_index(ec.Fitness(3, 4), n)

    arch = ec.DemoArchive(n)
    assert arch.insert(mk(3, 4))
    assert not arch.insert(mk(4, 3))  # same box, equal sum: incumbent wins
    assert [m.fitness for m in arch.members] == [(3, 4)]

    assert arch.insert(mk(3, 3))  # same box, strictly smaller sum
    assert [m.fitness for m in arch.members] == [(3, 3)]


def test_demo_insert_equal_fitness_rejected():
    arch = ec.DemoArchive(4)
    assert arch.insert(mk(7, 2))
    assert not arch.insert(mk(7, 2))  # same fitness, same box, ties to incumbent
    assert len(arch.members) == 1


def test_demo_insert_strong_dominance_and_eviction():
    arch = ec.DemoArchive(1)
    assert arch.insert(mk(3, 4))
    assert not arch.insert(mk(5, 6))  # strongly dominated
    assert arch.insert(mk(9, 1))  # incomparable, different box
    assert arch.insert(mk(2, 2))  # dominates (3,4) but not (9,1)
    fits = [m.fitness for m in arch.members]
    assert (3, 4) not in fits and (2, 2) in fits and (9, 1) in fits


def test_demo_one_member_per_box():
    arch = ec.DemoArchive(2)
    for c, l in [(50, 3), (51, 2), (49, 4), (60, 1), (1, 90)]:
        arch.insert(mk(c, l))
    boxes = [m.box for m in arch.members]
    assert len(set(boxes)) == len(boxes)


def test_dpbea_insert_examples():
    arch = ec.DpbeaArchive()
    first = mk(4, 0, ones=2)
    assert arch.insert(first)  # empty group keeps the candidate
    assert arch.members == [first]

    # (0,7) minimizes Cost+LP (2c+lp2: 7 < 8) but not Cost+2LP (7 > 4)
    cand = mk(0, 7, ones=2)
    assert arch.insert(cand)
    assert set(m.fitness for m in arch.members) == {(4, 0), (0, 7)}

    # a third same-ones candidate: the group collapses back to <= 2
    assert not arch.insert(mk(3, 3, ones=2))  # 2c+l = 9, c+l = 6: loses both
    assert len(arch.members) == 2
    better = mk(1, 1, ones=2)  # wins both comparators
    assert arch.insert(better)
    assert arch.members == [better]


def test_dpbea_groups_are_independent():
    arch = ec.DpbeaArchive()
    arch.insert(mk(4, 0, ones=1))
    arch.insert(mk(9, 9, ones=3))  # dominated, but a different ones-count
    assert len(arch.members) == 2
    assert arch.max_group_size <= 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ec.ALGORITHMS),
       st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 3)),
                max_size=12),
       st.integers(0, 30), st.integers(0, 3))
def test_archive_threshold_is_sure_to_reject(algorithm, fits, cost, ones):
    # every lp2 at or above the threshold is rejected; for semo and dpbea the
    # threshold is also the least such lp2 (a demo box mate may reject below)
    def build():
        arch = ec.engine.make_archive(algorithm, 3)
        for c, l, o in fits:
            arch.insert(mk(c, l, ones=o))
        return arch

    t = build().threshold(cost, ones)
    if t is None:
        assert algorithm == "demo" or all(build().insert(mk(cost, l, ones)) for l in range(64))
        return
    for lp2 in range(max(t, 0), t + 40):
        arch = build()
        before = list(arch.members)
        assert not arch.insert(mk(cost, lp2, ones))
        if algorithm != "dpbea":
            assert arch.members == before
    if algorithm != "demo" and t >= 1:
        assert build().insert(mk(cost, t - 1, ones))


def test_dpbea_rejected_bounded_candidate_leaves_the_exact_group():
    # b joined first, then a tied it on cost+lp2 and beat it on 2*cost+lp2,
    # so the group is [a, b]; any further insert that a wins re-picks a as
    # the first cost+lp2 minimizer and evicts b, accepted or not
    def build():
        arch = ec.DpbeaArchive()
        a, b = mk(2, 8, ones=2), mk(5, 5, ones=2)
        assert arch.insert(b) and arch.insert(a)
        assert arch.members == [a, b]
        return arch, a

    exact_arch, a = build()
    bound_arch, a2 = build()
    t = exact_arch.threshold(4, 2)
    assert t == max(12 - 8, 10 - 4)
    assert not exact_arch.insert(mk(4, 20, ones=2))  # the exact lp2
    assert not bound_arch.insert(mk(4, t, ones=2))  # a search stopped at the threshold
    assert exact_arch.members == [a] and bound_arch.members == [a2]
    assert exact_arch.max_group_size == bound_arch.max_group_size == 2


def test_dpbea_ties_favor_incumbent():
    arch = ec.DpbeaArchive()
    first = mk(2, 2, ones=1)
    arch.insert(first)
    assert not arch.insert(mk(2, 2, ones=1))  # equal on both comparators
    assert arch.members == [first]
    assert not arch.insert(first)  # proposing the member itself is a no-op
    assert arch.members == [first]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class ScriptedRng:
    """Feeds predetermined uniforms; fails loudly if the loop draws more."""

    def __init__(self, values):
        self.values = values  # shared by reference so tests can assert exhaustion

    def uniform(self):
        return self.values.pop(0)

    def uniforms(self, k):
        return np.array([self.values.pop(0) for _ in range(k)])

    def below(self, k, p):  # the plain mutation branch draws through this
        return np.flatnonzero(self.uniforms(k) < p).tolist()


def test_gsemo_loop_structure(monkeypatch):
    # one iteration = parent draw, then n flip draws; initialization draws n
    g = ec.build_graph(2, [1, 1], [(0, 1)])
    script = [0.9, 0.9,        # init genotype (0,0): fitness (0, 2)
              0.0, 0.3, 0.9,   # it 1: parent 0, flip bit 0 only -> (1,0), a cover
              0.6, 0.6, 0.6]   # it 2: parent (1,0), no flips, duplicate rejected
    monkeypatch.setattr(ec.engine, "RngStream", lambda seed: ScriptedRng(script))
    tr = ec.run("gsemo", g, 0, ec.Termination(budget=2), record_series=True)
    assert tr.iters_to_cover == 1 and tr.best_cost == 1
    assert tr.series == [(0, 1, None), (1, 2, 1), (2, 2, 1)]
    assert not script, "loop drew fewer values than scripted"


def test_alt_loop_draws_branch_coin(monkeypatch):
    # gsemo-alt draws parent, branch coin, then n flips each iteration
    g = ec.build_graph(2, [1, 1], [(0, 1)])
    script = [0.9, 0.9,              # init (0,0)
              0.0, 0.2, 0.4, 0.9]    # parent 0, b=focused, flip incident bit 0
    monkeypatch.setattr(ec.engine, "RngStream", lambda seed: ScriptedRng(script))
    tr = ec.run("gsemo-alt", g, 0, ec.Termination(budget=1))
    # bit 0 is uncovered-incident: 0.4 < 1/2 flips it; 0.9 leaves bit 1
    assert tr.best_cost == 1 and tr.iters_to_cover == 1
    assert not script


def test_termination_validation():
    with pytest.raises(ValueError):
        ec.Termination()
    with pytest.raises(ValueError):
        ec.Termination(budget=-1)
    with pytest.raises(ValueError):
        ec.Termination(target_ratio=Fraction(2))  # needs opt
    with pytest.raises(ValueError):
        ec.Termination(target_ratio=Fraction(1, 2), opt=3)
    for ratio in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ec.Termination(target_ratio=ratio, opt=3, budget=5)
    g = ec.path(3)
    with pytest.raises(ValueError):
        ec.run("annealing", g, 0, ec.Termination(budget=10))


def test_float_ratio_target_runs_as_the_equal_fraction():
    g = ec.gnp(12, 0.4, w_max=16, seed=1)
    opt = ec.opt_exhaustive(g).opt_cost
    hits = 0
    for ratio, exact in ((1.5, Fraction(3, 2)), (1.25, Fraction(5, 4)), (2, Fraction(2))):
        term = ec.Termination(budget=2000, target_ratio=ratio, opt=opt)
        assert type(term.target_ratio) is Fraction and term.target_ratio == exact
        for algorithm in ec.ALGORITHMS:
            tr = ec.run(algorithm, g, 3, term, record_series=True)
            assert tr == ec.run(algorithm, g, 3, ec.Termination(budget=2000, target_ratio=exact,
                                                                 opt=opt), record_series=True)
            hits += tr.iters_to_target is not None
    assert hits >= 8


def test_run_deterministic_for_fixed_seed(triangle):
    term = ec.Termination(budget=500)
    a = ec.run("demo", triangle, 42, term, record_series=True)
    b = ec.run("demo", triangle, 42, term, record_series=True)
    assert a == b
    # warm evaluator cache must not change observable behavior
    ev = ec.Evaluator(triangle)
    warm1 = ec.run("gsemo", triangle, 7, term, evaluator=ev, record_series=True)
    warm2 = ec.run("gsemo", triangle, 7, term, evaluator=ev, record_series=True)
    cold = ec.run("gsemo", triangle, 7, term, record_series=True)
    assert warm1 == warm2 == cold


def test_run_budget_zero_executes_no_iterations(triangle):
    tr = ec.run("gsemo", triangle, 11, ec.Termination(budget=0))
    assert tr.iterations == 0
    assert tr.max_archive == 1


def test_run_edgeless_ratio_one_hits_at_zero_string():
    g = ec.build_graph(4, [2, 1, 1, 3], [])
    term = ec.Termination(budget=5000, target_ratio=Fraction(1), opt=0)
    for algorithm in ec.ALGORITHMS:
        tr = ec.run(algorithm, g, 5, term)
        assert tr.iters_to_target is not None
        assert tr.iters_to_zero_string is not None
        assert tr.iters_to_target <= tr.iters_to_zero_string
        assert tr.best_cost == 0


def test_run_single_edge_all_seeds_find_optimum():
    g = ec.build_graph(2, [1, 1], [(0, 1)])
    ev = ec.Evaluator(g)
    term = ec.Termination(budget=10_000, target_ratio=Fraction(1), opt=1)
    for seed in range(100):
        tr = ec.run("gsemo", g, seed, term, evaluator=ev)
        assert tr.best_cost == 1, seed
        assert not tr.censored


def test_run_any_cover_target(triangle):
    tr = ec.run("gsemo", triangle, 3, ec.Termination(budget=5000, any_cover=True))
    assert tr.iters_to_cover is not None
    assert tr.iterations == tr.iters_to_cover
    assert tr.target_kind == "cover"


def test_run_until_zero_string_keeps_going(triangle):
    term = ec.Termination(budget=5000, target_ratio=Fraction(2), opt=2,
                          until_zero_string=True)
    tr = ec.run("gsemo", triangle, 9, term)
    assert tr.iters_to_target is not None
    assert tr.iters_to_zero_string is not None
    assert tr.iterations >= max(tr.iters_to_target, tr.iters_to_zero_string)


def test_run_fitness_honesty():
    g = ec.gnp(8, 0.4, w_max=5, seed=50)
    ev = ec.Evaluator(g)
    ec.run("demo", g, 1, ec.Termination(budget=2000), evaluator=ev)
    checked = 0
    for ind in list(ev._cache.values())[:200]:
        assert ind.cost == ec.cost(g, ind.bits)
        assert ind.lp2 == dinic_lp2(g, ind.bits)
        assert ind.ones == int(ind.bits.sum())
        checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# Warm-started LP
# ---------------------------------------------------------------------------

@st.composite
def small_graphs(draw):
    """A graph on <= 12 vertices, edgeless allowed."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, present) if keep]
    weights = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    return ec.build_graph(n, weights, edges)


@st.composite
def graph_walks(draw):
    """A small graph and a genotype walk over it.

    Each step is (parent pick, whether to pick among the archive, vertices to
    flip, whether the child joins the stand-in archive whose residual states
    the Evaluator keeps).
    """
    g = draw(small_graphs())
    steps = draw(st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(),
                                    st.sets(st.integers(0, g.n - 1), min_size=1),
                                    st.booleans()),
                          min_size=4, max_size=20))
    return g, steps


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graph_walks())
def test_warm_lp_matches_cold_dinic_and_brute_force(walk):
    g, steps = walk
    ev = ec.Evaluator(g)
    cover = np.zeros(g.n, dtype=np.uint8)
    for u, v in g.edges:  # both ends of a maximal matching
        if not (cover[u] or cover[v]):
            cover[u] = cover[v] = 1
    inds, archive = [], []
    for bits in (np.zeros(g.n, np.uint8), np.ones(g.n, np.uint8), cover):
        inds.append(ev.evaluate(bits))
    for pick, from_archive, flips, keep in steps:
        pool = archive if from_archive and archive else inds
        parent = pool[pick % len(pool)]
        child = ev.evaluate(None, parent, None, sorted(flips))
        inds.append(child)
        if keep:
            archive = [m for m in archive if m.key != child.key][-3:] + [child]
            ev.retain(child, archive)
    for ind in inds:
        cold = dinic_lp2(g, ind.bits)
        assert ind.lp2 == cold == ec.brute_force_lp(ec.residual(g, ind.bits), g.weights).value2


@st.composite
def flip_walks(draw):
    """A small graph and a walk of children evaluated from their parents' flips.

    Each step is (parent pick, kind, vertices to flip, edge pick, LP limit or
    None, whether the child joins the stand-in archive). Kind "edge" also
    flips both ends of an edge; kind "back" repeats the flips that made the
    parent, which leads back to the parent's own parent.
    """
    g = draw(small_graphs())
    steps = draw(st.lists(st.tuples(st.integers(0, 10 ** 6),
                                    st.sampled_from(("set", "edge", "back")),
                                    st.sets(st.integers(0, g.n - 1), min_size=1),
                                    st.integers(0, 10 ** 6),
                                    st.none() | st.integers(0, 200),
                                    st.booleans()),
                          min_size=4, max_size=25))
    return g, steps


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(flip_walks())
def test_delta_evaluation_matches_full_evaluation(walk):
    # children given only as (parent, flips) are looked up by a key made
    # from the parent's, and get an array only on a memo miss; parents are
    # also picked among covers and genotypes never retained, whose children
    # are solved from another genotype's flow
    g, steps = walk
    ev = ec.Evaluator(g)
    inds = [ev.evaluate(np.zeros(g.n, np.uint8)), ev.evaluate(np.ones(g.n, np.uint8))]
    made_by, archive = {}, []
    for pick, kind, flips, e, limit, keep in steps:
        parent = inds[pick % len(inds)]
        if kind == "edge" and g.edges:
            flips = flips | set(g.edges[e % g.m])
        elif kind == "back" and parent.key in made_by:
            flips = made_by[parent.key]
        flips = sorted(flips)
        bits = parent.bits.copy()
        bits[flips] ^= 1
        child = ev.evaluate(None, parent, lambda cost, ones: limit, flips)
        made_by.setdefault(child.key, flips)
        full = ec.Evaluator(g).evaluate(child.bits)
        assert child.key == full.key == bits.tobytes() == child.bits.tobytes()
        # the array shares the key's bytes: it must not be writable
        assert not child.bits.flags.writeable
        with pytest.raises(ValueError):
            child.bits[0] ^= 1
        assert (child.cost, child.ones) == (full.cost, full.ones)
        assert (child.cost, child.ones) == (ec.cost(g, bits), int(bits.sum()))
        assert child.uncovered == full.uncovered == ec.residual(g, bits).num_edges
        assert np.array_equal(child.focused_pvec(), full.focused_pvec())
        ends = {v for e in ec.residual(g, bits).original_edges() for v in e}
        assert child.focused_pvec().tolist() == [0.5 if v in ends else 1 / g.n
                                                 for v in range(g.n)]
        exact = dinic_lp2(g, bits)
        assert full.lp2 == exact
        if child.key in ev._bounded:
            assert max(limit, 1) <= child.lp2 <= exact
        else:
            assert child.lp2 == exact
        inds.append(child)
        if keep and child.key in ev._cache:
            archive = [m for m in archive if m.key != child.key][-3:] + [child]
            ev.retain(child, archive)



def test_residual_states_stay_within_the_archive():
    g = ec.gnp(40, 0.1, w_max=16, seed=3)
    scratch = DoubleCover(g)  # reads the stored states' cover certificates
    for algorithm in ec.ALGORITHMS:
        ev = ec.Evaluator(g)
        sizes = []
        checked = {}  # id -> (state, a copy of its checked cover)

        def check(it, cand, accepted, archive):
            sizes.append(len(archive.members))
            assert len(ev._states) <= len(archive.members) + 2, (algorithm, it)
            # every stored flow is exact, so it carries its optimal cover
            for key, state in ev._states.items():
                scratch.load(state)
                a = scratch._cover()
                assert a is not None, (algorithm, it)
                seen = checked.get(id(state))
                if seen is not None and seen[0] is state:
                    assert a == seen[1], (algorithm, it)  # no solve changed it
                    continue
                kept = [v for v in range(g.n) if not key[v]]
                assert all(a[u] + a[v] >= 2 for u, v in g.edges
                           if not (key[u] or key[v])), (algorithm, it)
                assert sum(a[v] * g.weights[v] for v in kept) == state[0], (algorithm, it)
                checked[id(state)] = state, list(a)

        ec.run(algorithm, g, 5, ec.Termination(budget=2000), evaluator=ev, callback=check)
        assert len(ev._states) <= sizes[-1] + 2
        assert len(ev) > 10 * max(sizes)  # the memo is far larger than the store


def test_bounded_candidates_never_enter_the_archive():
    # searches stopped at the archive's threshold give lower bounds, which
    # must only ever be rejected; members and stored flows stay exact. At
    # n = 12 most genotypes are revisited, and the Evaluator is shared by
    # three runs, so bounds stored under one archive meet the thresholds of
    # the next, which starts empty.
    for (g, seeds), algorithm in itertools.product(
            ((ec.gnp(40, 0.1, w_max=16, seed=3), (5,)),
             (ec.gnp(12, 0.4, w_max=16, seed=1), (5, 6, 7))),
            ec.ALGORITHMS):
        ev = ec.Evaluator(g)
        seen = {"bounded": 0}

        def check(it, cand, accepted, archive):
            if cand.key in ev._bounded:
                seen["bounded"] += 1
                assert not accepted, (algorithm, it)
                assert 1 <= cand.lp2 <= dinic_lp2(g, cand.bits), (algorithm, it)
            elif accepted:
                assert cand.lp2 == dinic_lp2(g, cand.bits), (algorithm, it)
            for m in archive.members:
                assert ev._cache.get(m.key) is m, (algorithm, it)
            for key, state in ev._states.items():
                assert key in ev._cache and state[0] == ev._cache[key].lp2, (algorithm, it)

        for seed in seeds:
            ec.run(algorithm, g, seed, ec.Termination(budget=1500), evaluator=ev,
                   callback=check)
        assert seen["bounded"] > 100, algorithm
        for ind in list(ev._bounded.values()):  # a limitless evaluation solves exactly
            assert ev.evaluate(ind.bits).lp2 == dinic_lp2(g, ind.bits)
            assert ind.key in ev._cache and ind.box is None
        assert not ev._bounded


class _ExactEvaluator(ec.Evaluator):
    """Ignores the archive's threshold: every search runs to the maximum."""

    def evaluate(self, bits, parent=None, threshold=None, flips=None):
        return super().evaluate(bits, parent, None, flips)


def test_stopped_searches_leave_runs_unchanged():
    # gnp(24, 0.25) seed 2 (the benchmark's target-n24 instance) has dpbea
    # groups tied on cost + lp2, where a rejected insert still evicts
    for g, budget in ((ec.gnp(24, 0.25, w_max=16, seed=2), 3000),
                      (ec.gnp(12, 0.4, w_max=16, seed=1), 2000)):
        for algorithm in ec.ALGORITHMS:
            for seed in (1, 2):
                term = ec.Termination(budget=budget)
                fast = ec.run(algorithm, g, seed, term, record_series=True)
                exact = ec.run(algorithm, g, seed, term, record_series=True,
                               evaluator=_ExactEvaluator(g))
                assert fast == exact, (g.n, algorithm, seed)


# RunTraces of the four loops on gnp(30, 0.2, w_max=16, seed=4), OPT 155,
# captured with the cold per-genotype LP solve; series_sha digests the series.
GOLDEN_GNP30 = {
    "gsemo": {
        "algorithm": "gsemo",
        "seed": 11,
        "n": 30,
        "iterations": 4000,
        "max_archive": 130,
        "best_cost": 170,
        "best_cover": "100100110101001110111111101101",
        "iters_to_zero_string": None,
        "iters_to_cover": 1157,
        "iters_to_target": 1157,
        "target_kind": "ratio",
        "bound_violations": 0,
        "series_sha": "def8c924af46e77f",
    },
    "gsemo-alt": {
        "algorithm": "gsemo-alt",
        "seed": 11,
        "n": 30,
        "iterations": 4000,
        "max_archive": 117,
        "best_cost": 155,
        "best_cover": "101100110111000110101001101101",
        "iters_to_zero_string": None,
        "iters_to_cover": 1,
        "iters_to_target": 198,
        "target_kind": "ratio",
        "bound_violations": 0,
        "series_sha": "4c3ef6e3bcea1b16",
    },
    "demo": {
        "algorithm": "demo",
        "seed": 11,
        "n": 30,
        "iterations": 4000,
        "max_archive": 128,
        "best_cost": 160,
        "best_cover": "101110110111000100101001101101",
        "iters_to_zero_string": None,
        "iters_to_cover": 3358,
        "iters_to_target": 3358,
        "target_kind": "ratio",
        "bound_violations": 0,
        "series_sha": "2360081cd42f77fc",
    },
    "dpbea": {
        "algorithm": "dpbea",
        "seed": 11,
        "n": 30,
        "iterations": 4000,
        "max_archive": 38,
        "best_cost": 159,
        "best_cover": "100100110101000110111101101101",
        "iters_to_zero_string": None,
        "iters_to_cover": 1,
        "iters_to_target": 273,
        "target_kind": "ratio",
        "bound_violations": 0,
        "series_sha": "142b0d341a27434f",
    },
}


def test_run_traces_match_cold_solver_goldens():
    g = ec.gnp(30, 0.2, w_max=16, seed=4)
    term = ec.Termination(budget=4000, target_ratio=Fraction(5, 4), opt=155,
                          until_zero_string=True)
    for algorithm in ec.ALGORITHMS:
        tr = ec.run(algorithm, g, 11, term, check_bounds=True, record_series=True)
        got = dataclasses.asdict(tr)
        series = got.pop("series")
        if got["best_cover"] is not None:
            got["best_cover"] = "".join(map(str, got["best_cover"]))
        got["series_sha"] = hashlib.sha256(json.dumps(series).encode()).hexdigest()[:16]
        assert got == GOLDEN_GNP30[algorithm]


def _pairwise_no_strong_domination(members):
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            assert not ec.dominates_strong(a.fitness, b.fitness)
            assert not ec.dominates_strong(b.fitness, a.fitness)


def test_gsemo_archive_invariants_every_iteration():
    g = ec.gnp(9, 0.45, w_max=6, seed=60)
    opt = ec.opt_branch_bound(g).opt_cost
    min_qualified = [float("inf")]

    def check(it, cand, accepted, archive):
        members = archive.members
        lp2s = [m.lp2 for m in members]
        assert len(set(lp2s)) == len(lp2s)  # one member per lp2 value
        assert len(members) <= 2 * opt + 1
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                assert not ec.dominates_weak(a.fitness, b.fitness)
                assert not ec.dominates_weak(b.fitness, a.fitness)
        qualified = [m.lp2 for m in members if m.cost + m.lp2 <= 2 * opt]
        if qualified:
            current = min(qualified)
            assert current <= min_qualified[0]  # drift direction is monotone
            min_qualified[0] = current

    tr = ec.run("gsemo", g, 8, ec.Termination(budget=3000), callback=check,
                check_bounds=True)
    assert tr.bound_violations == 0


def test_demo_archive_invariants_every_iteration():
    g = ec.gnp(9, 0.45, w_max=6, seed=61)
    cap = ec.demo_archive_capacity(g.n, g.w_max)

    def check(it, cand, accepted, archive):
        members = archive.members
        boxes = [m.box for m in members]
        assert len(set(boxes)) == len(boxes)  # box consistency
        assert len(members) <= cap
        _pairwise_no_strong_domination(members)

    tr = ec.run("demo", g, 8, ec.Termination(budget=3000), callback=check,
                check_bounds=True)
    assert tr.bound_violations == 0


def test_dpbea_archive_invariants_every_iteration():
    g = ec.gnp(9, 0.45, w_max=6, seed=62)

    def check(it, cand, accepted, archive):
        members = archive.members
        assert len(members) <= 2 * (g.n + 1)
        by_ones = {}
        for m in members:
            by_ones.setdefault(m.ones, []).append(m)
        for group in by_ones.values():
            assert len(group) <= 2
            _pairwise_no_strong_domination(group)
            best1 = min(2 * m.cost + m.lp2 for m in group)
            best2 = min(m.cost + m.lp2 for m in group)
            assert any(2 * m.cost + m.lp2 == best1 for m in group)
            assert any(m.cost + m.lp2 == best2 for m in group)

    tr = ec.run("dpbea", g, 8, ec.Termination(budget=3000), callback=check,
                check_bounds=True)
    assert tr.bound_violations == 0


def test_dpbea_members_match_a_rebuild_from_the_groups():
    # insert skips the rebuild when a rejected candidate leaves its group
    # as it was; members must still list every group, in order of ones
    # count. gnp(24, 0.25) seed 2 has groups that collapse on a rejection.
    for g, seed in ((ec.gnp(12, 0.4, w_max=16, seed=1), 3),
                    (ec.gnp(24, 0.25, w_max=16, seed=2), 1)):
        def check(it, cand, accepted, archive):
            groups = archive._groups
            rebuilt = [m for k in sorted(groups) for m in groups[k]]
            assert len(archive.members) == len(rebuilt), (g.n, it)
            assert all(m is r for m, r in zip(archive.members, rebuilt)), (g.n, it)

        ec.run("dpbea", g, seed, ec.Termination(budget=3000), callback=check)


def test_zero_string_never_leaves_archive():
    # positive weights make the all-zeros genotype the unique cost minimizer,
    # so no discipline can ever evict it once it is in
    g = ec.gnp(8, 0.5, w_max=6, seed=63)
    for algorithm in ec.ALGORITHMS:
        seen = {"yes": False}

        def check(it, cand, accepted, archive):
            has_zero = any(m.cost == 0 for m in archive.members)
            if seen["yes"]:
                assert has_zero, (algorithm, it)
            seen["yes"] = seen["yes"] or has_zero

        tr = ec.run(algorithm, g, 4, ec.Termination(budget=3000), callback=check)
        assert tr.iters_to_zero_string is not None  # generous budget at n = 8
        assert seen["yes"]


def test_run_beyond_exact_oracle_scale():
    # no OPT available at n = 40; budget-only runs must still work everywhere
    g = ec.gnp(40, 0.1, w_max=12, seed=90)
    for algorithm in ec.ALGORITHMS:
        tr = ec.run(algorithm, g, 2, ec.Termination(budget=1500), check_bounds=True)
        assert tr.iterations == 1500 or not tr.censored
        assert tr.bound_violations == 0


def test_run_single_vertex_instance():
    g = ec.build_graph(1, [5], [])
    for algorithm in ec.ALGORITHMS:
        tr = ec.run(algorithm, g, 0,
                    ec.Termination(budget=50, target_ratio=Fraction(1), opt=0))
        assert tr.best_cost == 0 and not tr.censored


def test_archive_sizes_stay_bounded_across_instances():
    for i, g in enumerate(make_instances(6, 1300, n_values=(5, 8, 11),
                                         w_values=(1, 8), require_edges=True)):
        opt = ec.opt_branch_bound(g).opt_cost
        for algorithm in ec.ALGORITHMS:
            tr = ec.run(algorithm, g, 100 + i,
                        ec.Termination(budget=4000, opt=opt), check_bounds=True)
            assert tr.bound_violations == 0, (algorithm, i)
