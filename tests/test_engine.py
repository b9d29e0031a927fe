"""Dominance, boxing, mutation operators, archive disciplines, and runs."""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import evocover as ec
from evocover.lp import DoubleCover
from reference_loop import reference_run
from conftest import (alternative_mutation, bits_of, code_of, dinic_lp2, dominates_strong,
                      dominates_weak, dpbea_reference_insert, flip_positions, flow_copy,
                      focused_pvec, front_reference_insert, make_instances, np_rng,
                      opt_exhaustive, random_genotype, standard_mutation, tiny_box_coord)


def mk(cost, lp2, ones=0):
    """Fabricated individual for archive-level tests."""
    return ec.Individual(b"", cost, lp2, ones, 0, None)


# ---------------------------------------------------------------------------
# Dominance and boxing
# ---------------------------------------------------------------------------

def test_dominance_examples():
    assert dominates_weak(ec.Fitness(3, 4), ec.Fitness(3, 4))
    assert not dominates_strong(ec.Fitness(3, 4), ec.Fitness(3, 4))
    assert dominates_weak(ec.Fitness(2, 4), ec.Fitness(3, 4))
    assert dominates_strong(ec.Fitness(2, 4), ec.Fitness(3, 4))
    assert not dominates_weak(ec.Fitness(2, 5), ec.Fitness(3, 4))
    assert not dominates_weak(ec.Fitness(3, 4), ec.Fitness(2, 5))


def test_box_index_examples():
    assert ec.box_index(ec.Fitness(0, 0), 5) == ec.BoxIndex(0, 0)
    # n = 4, delta = 1/8: smallest k with (9/8)^k >= 2 is 6
    assert ec.box_index(ec.Fitness(1, 0), 4).b1 == 6
    # lp2 = 3 means LP = 3/2: smallest k with (9/8)^k >= 5/2 is 8
    assert ec.box_index(ec.Fitness(0, 3), 4).b2 == 8


def test_box_index_against_fraction_oracle():
    # the closed form's float logarithm up to n = 1000, where the oracle's
    # powers (2n+1)^k reach about 200 000 bits
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


def test_box_index_decides_near_integer_powers_exactly():
    # 1 + num/den just below and just above r^k, with r^k past 1e14: the
    # float log ratio lands within 1e-13 of k, where only the integer
    # comparison of powers tells k from k + 1
    for n in (1, 2, 3, 7, 12):
        log_r = math.log1p(1 / (2 * n))
        first = math.ceil(math.log(1e14) / log_r)
        for k in range(first, first + 4):
            for den in (1, 2):
                floor = den * (2 * n + 1) ** k // (2 * n) ** k  # < den * r^k
                for num, want in ((floor - den, k), (floor - den + 1, k + 1)):
                    x = math.log1p(num / den) / log_r
                    assert round(x) == k and abs(x - k) <= 1e-13 * x
                    assert tiny_box_coord(Fraction(num, den), n) == want
                    fit = ec.Fitness(num, 0) if den == 1 else ec.Fitness(0, num)
                    assert ec.box_index(fit, n)[den - 1] == want


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


def test_rng_stream_first_uniforms_are_pinned():
    # every trace and golden rests on these draws: a numpy that changed
    # PCG64, SeedSequence or the float conversion would fail here first
    assert ec.RngStream(0).uniforms(2).tolist() == [0.6369616873214543, 0.2697867137638703]
    assert ec.RngStream(1).uniforms(2).tolist() == [0.5118216247002567, 0.9504636963259353]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generator_random_is_the_top_53_bits_of_pcg64(seed):
    # NEP 19 keeps PCG64's raw stream stable, not the Generator methods:
    # random takes the top 53 bits of each raw 64-bit output, times 2^-53
    raw = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(10_000)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    assert np.array_equal(gen.random(10_000), (raw >> 11) * 2.0 ** -53)


def test_rng_rows_draw_as_uniform_and_below():
    # rows(width) draws the whole rows left in the block at once; a twin
    # stream draws each row as the scalar loop does, with uniform() and
    # uniforms(width - 1), read as the positions below p. Other draws come
    # before and after, so rows start anywhere in a block.
    a, b = ec.RngStream(13), ec.RngStream(13)
    pick = np.random.default_rng(6)
    p = 1 / 12
    for _ in range(200):
        for _ in range(int(pick.integers(4))):
            assert a.uniform() == b.uniform()
            assert np.array_equal(a.uniforms(12), b.uniforms(12))
        width = int(pick.choice((13, 100, 700)))
        for row in a.rows(width):
            assert row[0] == b.uniform()
            assert (np.flatnonzero(row[1:] < p).tolist()
                    == np.flatnonzero(b.uniforms(width - 1) < p).tolist())
        assert not len(a.rows(width))
        for _ in range(int(pick.integers(40))):
            assert np.array_equal(a.uniforms(12), b.uniforms(12))
            assert a.uniform() == b.uniform()
    assert a.uniform() == b.uniform()


@pytest.mark.parametrize("n", [1, 2, 3, 12, 14, 15, 16, 17, 24, 61, 62, 63, 100, 130,
                               4094, 4095, 4096])
def test_decoded_rows_draw_as_uniform_and_below(n):
    # run draws its rows with _decode: the whole rows left in a block at
    # once, then the row across the block's end with the whole rows of the
    # next block. A twin stream draws
    # every row as the reference loop does, with uniform() and uniforms()
    # alone: uniform() for the pick, for rows of 2 + n uniform() for the
    # coin, then uniforms(n), compared with 1/n or, where the coin is under
    # 1/2, with the focused probabilities of conftest's edge loop. Rows of
    # 16 (n = 15 plain, n = 14 alt) and 64 (n = 62 alt) end exactly at a
    # block's end. From about n = 2048, no whole row fits after the n flip
    # draws that open a block, so every row crosses an end; at n = 4096 the
    # flips fill a block on their own.
    g = ec.gnp(n, min(0.3, 3 / n), w_max=4, seed=n)
    ev = ec.Evaluator(g)
    choose = np_rng(n)
    pool = [ev.evaluate(bits) for bits in choose.integers(0, 2, (8, n), dtype=np.uint8)]
    pvecs = [focused_pvec(g, m.bits) for m in pool]
    for alt in (False, True):
        width = n + 1 + alt
        a, b = ec.RngStream(n), ec.RngStream(n)
        assert np.array_equal(a.uniforms(n), b.uniforms(n))
        crossed = 0
        for _ in range(50 if width <= 2048 else 20):
            whole = (a.BLOCK - a._pos) // width  # the whole rows left in the block
            picks, lo, hi = ec.engine._decode(a, n, width)
            assert len(picks) == whole if whole else len(picks) >= 1
            crossed += not whole
            assert (hi is None) == (not alt)
            # numpy arrays where the batches read them, else lists of ints
            assert type(lo) is (np.ndarray if n <= 16 else list)
            if n <= 16:
                assert lo.dtype == np.int64
                picks, lo, hi = [None if x is None else x.tolist() for x in (picks, lo, hi)]
            for pick, low, high in zip(picks, lo, lo if hi is None else hi):
                assert type(low) is type(high) is int
                i = int(choose.integers(len(pool)))
                assert pick == b.uniform()
                if alt and b.uniform() < 0.5:
                    flips = np.flatnonzero(b.uniforms(n) < pvecs[i])
                else:
                    flips = np.flatnonzero(b.uniforms(n) < 1 / n)
                hot = pool[i].hot()
                assert ec.engine._set_bits(low | (high & hot)) == flips.tolist()
                assert n == 1 or low | high == high  # every draw under 1/n is under 1/2
        assert crossed >= 10
        assert a.uniform() == b.uniform()


@pytest.mark.parametrize("n", [12, 24, 62, 63])
def test_runs_draw_whole_blocks_of_rows_up_to_n_62(monkeypatch, n):
    # at every n (the test's name is from when it held only up to n = 62),
    # rows() draws each block's whole rows, and uniform() draws only the
    # picks and coins of the rows across the blocks' ends
    calls = {"uniform": 0, "rows": 0}

    class CountedRng(ec.RngStream):
        def uniform(self):
            calls["uniform"] += 1
            return super().uniform()

        def rows(self, width):
            calls["rows"] += 1
            return super().rows(width)

    monkeypatch.setattr(ec.engine, "RngStream", CountedRng)
    g = ec.gnp(n, 0.2, w_max=16, seed=1)
    for algorithm in ("gsemo", "gsemo-alt"):
        calls.update(uniform=0, rows=0)
        assert ec.run(algorithm, g, 1, ec.Termination(budget=1000)).iterations == 1000
        rows_per_block = 4096 // (n + 1 + (algorithm == "gsemo-alt"))
        assert calls["rows"] >= 1000 // rows_per_block
        assert calls["uniform"] <= 2 * calls["rows"]


def test_hot_is_the_ends_of_the_uncovered_edges():
    # where 1/n != 1/2, the bits that the focused branch flips with 1/2:
    # n below, at and past a byte boundary, every code at n <= 9, past an
    # int64 (from the byte tables too), and at and past the tables' cap,
    # where the gathers make it and the graph builds no table
    found = 0
    cap = ec.engine._TABLES_MAX_N
    for n in (1, 3, 7, 8, 9, 12, 16, 17, 24, 62, 63, 100, 300, cap, cap + 1):
        g = ec.gnp(n, min(0.3, 3 / n), w_max=4, seed=n)
        ev = ec.Evaluator(g)
        rows = (np.array(list(itertools.product((0, 1), repeat=n)), np.uint8) if n <= 9
                else np_rng(n).integers(0, 2, (50, n), dtype=np.uint8))
        for bits in rows:
            ind = ev.evaluate(bits)
            ends = {v for e in g.edges if not (bits[e[0]] or bits[e[1]]) for v in e}
            assert type(ind.hot()) is int
            assert ind.hot() == sum(1 << v for v in ends), (n, bits)
            assert (ec.engine._set_bits(ind.hot())
                    == np.flatnonzero(focused_pvec(g, bits) == 0.5).tolist())
            found += bool(ends)
        assert ("_byte_neighbours" in vars(g)) == (n <= cap), n
    assert found > 500


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
        y = standard_mutation(x, a)
        assert np.array_equal(y, x ^ (b.uniforms(n) < 1 / n))
        pvec = 1 / n
        if b.uniform() < 0.5:
            pvec = focused_pvec(g, x)
        z = alternative_mutation(g, x, a)
        assert np.array_equal(z, x ^ (b.uniforms(n) < pvec))
        assert np.array_equal(x, before)
        x = z


def test_standard_mutation_n1_is_complement():
    rng = ec.RngStream(0)
    assert standard_mutation(np.array([0], dtype=np.uint8), rng).tolist() == [1]
    assert standard_mutation(np.array([1], dtype=np.uint8), rng).tolist() == [0]


def test_standard_mutation_deterministic():
    x = np.zeros(8, dtype=np.uint8)
    got = [standard_mutation(x, ec.RngStream(123)).tolist() for _ in range(3)]
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("bits", [[1, 0], [1, 0, 2, 0, 0], [0, 1, 0, 1, 0, 1, 0]])
def test_whole_genotype_of_wrong_length_or_entries_is_rejected(bits):
    # on n = 5: a short genotype is not padded, a 2 is not read as 1, and a
    # long one is a ValueError like the others
    g = ec.gnp(5, 0.5, w_max=4, seed=1)
    ev = ec.Evaluator(g)
    with pytest.raises(ValueError):
        ev.evaluate(np.array(bits, dtype=np.uint8))
    assert len(ev) == 0
    assert ev.evaluate([1, 0, 1, 0, 0]).code == code_of([1, 0, 1, 0, 0])


def test_standard_mutation_rejects_entries_other_than_0_and_1():
    with pytest.raises(ValueError):
        standard_mutation(np.array([1, 0, 2], dtype=np.uint8), ec.RngStream(0))


def test_standard_mutation_flip_rate():
    # 1e6 draws at n = 10: per-bit flip frequency 0.1 +- 0.002, counted from
    # the helper that standard_mutation draws through (the draws are pinned
    # by test_mutations_draw_as_the_uniform_formulas)
    n, draws = 10, 1_000_000
    rng = ec.RngStream(2024)
    flipped = []
    for _ in range(draws):
        flipped += flip_positions(rng, n)
    freq = np.bincount(flipped, minlength=n) / draws
    assert np.all(np.abs(freq - 0.1) < 0.002), freq


def _focused_flip_freq(g, x, seed, draws):
    # per-bit flip frequency of alternative_mutation on x, counted from the
    # helper it draws through (the draws are pinned by
    # test_mutations_draw_as_the_uniform_formulas)
    rng = ec.RngStream(seed)
    pvec = focused_pvec(g, x)
    flipped = []
    for _ in range(draws):
        flipped += flip_positions(rng, g.n, lambda: pvec)
    return np.bincount(flipped, minlength=g.n) / draws


def test_alternative_mutation_flip_rate_uncovered_clique():
    # n = 10 clique, nothing selected: every vertex is uncovered-incident,
    # so the unconditional per-bit flip rate is 1/2 * 1/2 + 1/2 * 1/10 = 0.3
    n = 10
    g = ec.build_graph(n, [1] * n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    freq = _focused_flip_freq(g, [0] * n, 777, 1_000_000)
    assert np.all(np.abs(freq - 0.3) < 0.005), freq


def test_alternative_mutation_single_edge_endpoints():
    # single edge, x = 00: each endpoint flips with probability 1/2 in both
    # branches (1/n = 1/2 here), so the observed rate must sit at 1/2
    g = ec.build_graph(2, [1, 1], [(0, 1)])
    freq = _focused_flip_freq(g, [0, 0], 31, 200_000)
    assert np.all(np.abs(freq - 0.5) < 0.01), freq


def test_alternative_mutation_mixed_rates():
    # one uncovered edge plus two isolated vertices at n = 4:
    # incident bits 1/2*1/2 + 1/2*1/4 = 0.375, others 1/4
    g = ec.build_graph(4, [1] * 4, [(0, 1)])
    freq = _focused_flip_freq(g, [0] * 4, 32, 200_000)
    assert abs(freq[0] - 0.375) < 0.01 and abs(freq[1] - 0.375) < 0.01, freq
    assert abs(freq[2] - 0.25) < 0.01 and abs(freq[3] - 0.25) < 0.01, freq


def test_alternative_mutation_full_cover_degenerates():
    # covered instance: both branches flip every bit with probability 1/n
    g = ec.path(3)
    freq = _focused_flip_freq(g, [0, 1, 0], 33, 200_000)  # middle vertex covers both edges
    assert np.all(np.abs(freq - 1 / 3) < 0.01), freq


def test_incident_mask_excludes_selected_vertices():
    # the focused branch flips with 1/2 exactly the ends of uncovered edges;
    # at n = 3 every other vertex gets 1/3
    g = ec.path(3)
    ev = ec.Evaluator(g)

    def mask(bits):
        hot = ev.evaluate(np.array(bits, dtype=np.uint8)).hot()
        return [bool(hot >> v & 1) for v in range(g.n)]

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


def test_demo_dominated_candidate_is_never_boxed():
    # the dominance check runs before the box is computed, so a candidate it
    # rejects, strongly dominated or of a member's fitness, keeps box None
    # and the archive keeps its box map
    arch = ec.DemoArchive(4)
    assert arch.insert(mk(3, 4))
    for cand in (mk(5, 6), mk(3, 4)):
        assert not arch.insert(cand)
        assert cand.box is None
    assert list(arch._by_box.values()) == arch.members


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

    def rows(self, width):  # the whole rows of the script ahead, drawn at once
        k = len(self.values) // width
        rows = np.array(self.values[:k * width]).reshape(k, width)
        del self.values[:k * width]
        return rows


class RecordedRng(ScriptedRng):
    """Also records how many values each ``rows`` call drew."""

    def __init__(self, values):
        super().__init__(values)
        self.drawn = []

    def rows(self, width):
        rows = super().rows(width)
        self.drawn.append(rows.size)
        return rows


def batch_commits(monkeypatch, archive_class):
    """Wraps ``archive_class.batch_test``. Returns a function that lists,
    for each chunk of rows that a batch of ``run`` tested, how many it
    committed: the rows before the first that fails the test (or, for
    dpbea, the cover guard, which narrows the test's array in place)."""
    tested = []
    made = archive_class.batch_test

    def batch_test(self, n):
        test = made(self, n)

        def recorded(cost, lp2, ones):
            tested.append(test(cost, lp2, ones))
            return tested[-1]

        return recorded

    monkeypatch.setattr(archive_class, "batch_test", batch_test)
    return lambda: [len(ok) if ok.all() else int(ok.argmin()) for ok in tested]


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


def test_gsemo_batch_commits_scripted_rows(monkeypatch):
    # after initialization the memo knows 00: rows that flip nothing give
    # it again, the archive rejects it, and a batch commits them; the next
    # row flips bit 0, a genotype not yet known, and runs on the scalar
    # path. The loop draws all three rows at once
    g = ec.build_graph(2, [1, 1], [(0, 1)])
    script = [0.9, 0.9,        # init genotype (0,0): fitness (0, 2)
              0.1, 0.7, 0.8,   # it 1: parent 0, no flips: committed
              0.2, 0.6, 0.9,   # it 2: likewise
              0.3, 0.0, 0.9]   # it 3: flip bit 0 -> (1,0), a cover, scalar
    rng = RecordedRng(script)
    monkeypatch.setattr(ec.engine, "RngStream", lambda seed: rng)
    commits = batch_commits(monkeypatch, ec.SemoArchive)
    seen = []
    tr = ec.run("gsemo", g, 0, ec.Termination(budget=3), record_series=True,
                callback=lambda it, cand, accepted, archive: seen.append((it, cand.code, accepted)))
    assert rng.drawn == [9]
    assert commits() == [2]
    assert seen == [(1, 0, False), (2, 0, False), (3, 1, True)]
    assert tr.series == [(0, 1, None), (1, 1, None), (2, 1, None), (3, 2, 1)]
    assert tr.iters_to_cover == 3 and tr.best_cost == 1
    assert not script, "loop drew fewer values than scripted"


def test_gsemo_alt_batch_commits_plain_and_focused_rows(monkeypatch):
    # path 0-1-2 weighted 10, 1, 10: selecting an end leaves lp2 at 2, so the
    # known 001 and 100 are weakly dominated by 000. Rows are 2 + n wide; a
    # coin of exactly 1/2 takes the plain branch, whose 1/3 leaves bit 0 at
    # 0.4, where the focused branch's 1/2 flips it
    g = ec.build_graph(3, [10, 1, 10], [(0, 1), (1, 2)])
    ev = ec.Evaluator(g)
    for bits in ([0, 0, 1], [1, 0, 0]):
        ev.evaluate(np.array(bits, np.uint8))
    script = [0.9, 0.9, 0.9,              # init 000: fitness (0, 2)
              0.1, 0.5, 0.4, 0.9, 0.2,    # it 1: plain, flip bit 2 -> 001: committed
              0.2, 0.2, 0.4, 0.9, 0.9,    # it 2: focused, flip bit 0 -> 100: committed
              0.3, 0.9, 0.9, 0.1, 0.9]    # it 3: plain, flip bit 1 -> 010, a cover, scalar
    rng = RecordedRng(script)
    monkeypatch.setattr(ec.engine, "RngStream", lambda seed: rng)
    commits = batch_commits(monkeypatch, ec.SemoArchive)
    seen = []
    tr = ec.run("gsemo-alt", g, 0, ec.Termination(budget=3), evaluator=ev, record_series=True,
                callback=lambda it, cand, accepted, archive: seen.append((it, cand.code, accepted)))
    assert rng.drawn == [15]
    assert commits() == [2]
    assert seen == [(1, 1 << 2, False), (2, 1, False), (3, 1 << 1, True)]
    assert tr.series == [(0, 1, None), (1, 1, None), (2, 1, None), (3, 2, 1)]
    assert not script, "loop drew fewer values than scripted"


def test_dpbea_batch_hands_a_tied_group_to_the_scalar_path(monkeypatch):
    # path 0-1-2 weighted 1, 3, 1. The cover b = 010 (3, 0) enters first,
    # then a = 100 (1, 2), which ties it on cost+lp2 and beats it on
    # 2*cost+lp2: the group of ones count 1 is [a, b]. 001 (1, 2) ties a on both,
    # so inserting it collapses the group to [a]; a batch leaves that row to
    # the scalar path, after committing one into the group of 000 (0, 4)
    g = ec.build_graph(3, [1, 3, 1], [(0, 1), (1, 2)])
    ev = ec.Evaluator(g)
    ev.evaluate(np.array([0, 0, 1], np.uint8))
    idle = [0.0, 0.9, 0.9, 0.9, 0.9]      # parent 000, plain, no flips
    script = [0.9, 0.9, 0.9,              # init 000
              0.0, 0.9, 0.9, 0.1, 0.9,    # it 1: 000 -> b, accepted; a batch that
                                          # commits nothing leaves it and 16 more scalar
              0.9, 0.9, 0.1, 0.1, 0.9,    # it 2: b -> a, accepted into [a, b]
              *idle * 15,                 # it 3-17
              0.5, 0.9, 0.1, 0.9, 0.9,    # it 18: a -> 000, a one-member group: committed
              0.5, 0.9, 0.1, 0.9, 0.1]    # it 19: a -> 001, into [a, b]: scalar
    rng = RecordedRng(script)
    monkeypatch.setattr(ec.engine, "RngStream", lambda seed: rng)
    commits = batch_commits(monkeypatch, ec.DpbeaArchive)
    seen = []
    tr = ec.run("dpbea", g, 0, ec.Termination(budget=19), evaluator=ev, record_series=True,
                callback=lambda it, cand, accepted, archive: seen.append((it, cand.code, accepted)))
    a, b, d = 1, 1 << 1, 1 << 2
    assert rng.drawn == [95]
    assert commits() == [0, 1]
    assert seen == [(1, b, True), (2, a, True), *[(i, 0, False) for i in range(3, 19)],
                    (19, d, False)]
    assert tr.series == [(0, 1, None), (1, 2, 3), *[(i, 3, 3) for i in range(2, 19)],
                         (19, 2, 3)]
    assert tr.max_archive == 3 and tr.best_cost == 3
    assert not script, "loop drew fewer values than scripted"


@pytest.mark.parametrize("n", [1, 12, 16])
def test_dense_table_mirrors_the_memo(n):
    # after runs of all four loops on one Evaluator, each genotype in the
    # memo has its cost, lp2 (its bound, if bounded) and ones count in the
    # column of its code in the table, and every other entry is -1. The
    # Evaluator makes the table; evaluate keeps it, through bounded entries
    # solved again too.
    g = ec.gnp(n, 0.4, w_max=16, seed=2)
    ev = ec.Evaluator(g)
    for algorithm, seed in (("gsemo-alt", 1), ("dpbea", 1), ("gsemo", 2), ("demo", 3),
                            ("dpbea", 4), ("gsemo-alt", 5)):
        if algorithm == "gsemo":
            bounded = set(ev._bounded)
        ec.run(algorithm, g, seed, ec.Termination(budget=1500), evaluator=ev)
    expect = np.full((3, 1 << n), -1)
    for code, ind in [*ev._cache.items(), *ev._bounded.items()]:
        bits = bits_of(code, n)
        assert ind.cost == ec.cost(g, bits)
        expect[:, code] = ind.cost, ind.lp2, bits.sum()
    assert np.array_equal(ev._table, expect)
    assert n == 1 or bounded & set(ev._cache)  # some bounded entries were solved again


def test_dense_table_only_where_int64_is_exact():
    # lp2 <= 2 sum(w), which must stay below 2^62; and n <= 16
    pair = [(0, 1)]
    ev = ec.Evaluator(ec.build_graph(2, [2 ** 60, 2 ** 60 - 1], pair))
    for bits in ([0, 0], [1, 0], [1, 1]):
        ev.evaluate(np.array(bits, np.uint8))
    # rows cost, lp2, ones; columns 00, 10, 01 (unknown), 11
    assert ev._table.tolist() == [[0, 2 ** 60, -1, 2 ** 61 - 1],
                                  [2 ** 61 - 2, 0, -1, 0],
                                  [0, 1, -1, 2]]
    assert ec.Evaluator(ec.build_graph(2, [2 ** 60, 2 ** 60], pair))._table is None
    assert ec.Evaluator(ec.gnp(16, 0.3, seed=1))._table.shape == (3, 1 << 16)
    assert ec.Evaluator(ec.gnp(17, 0.3, seed=1))._table is None


@pytest.mark.parametrize("n", [1, 12, 16, 17, 63, 64, 65, 100])
def test_selection_unpacks_the_code(n):
    # a genotype's code is sum(b_v 2^v), also past a machine word; both
    # ends, 0 and all-ones, included
    rows = [np.zeros(n, np.uint8), np.ones(n, np.uint8),
            *np.random.default_rng(n).integers(0, 2, (50, n), dtype=np.uint8)]
    for bits in rows:
        assert ec.engine._selection(code_of(bits), n) == bits.tobytes()
    if n <= 16:
        assert all(code_of(ec.engine._selection(code, n)) == code for code in range(1 << n))


def test_batch_tests_fail_unknown_entries():
    # a child the memo does not know reads -1 as cost, lp2 and ones count,
    # and no archive may let it pass: not even dpbea's group at ones count
    # n, which ones = -1 indexes
    g = ec.gnp(5, 0.5, w_max=16, seed=1)
    n = g.n
    ev = ec.Evaluator(g)
    inds = [ev.evaluate(np.array(bits, np.uint8)) for bits in itertools.product((0, 1), repeat=n)]
    order = np.random.default_rng(1).permutation(len(inds))
    unknown = np.full(1, -1)
    for archive in (ec.SemoArchive(), ec.DemoArchive(n), ec.DpbeaArchive()):
        dpbea = isinstance(archive, ec.DpbeaArchive)
        for i in order:
            archive.insert(inds[i])
            test = archive.batch_test(n)
            assert not test(unknown, unknown, unknown if dpbea else None).any()
        top = archive.members[-1]  # proposed again, it passes
        cost, lp2 = np.array([top.cost]), np.array([top.lp2])
        assert test(cost, lp2, np.array([top.ones]) if dpbea else None).all()
        if dpbea:  # the group at ones count n, which index -1 reads
            assert top.ones == n and test(cost, lp2, unknown).all()


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
    with pytest.raises(ValueError):
        ec.Termination(budget=5)._replace(budget=-1)
    g = ec.path(3)
    with pytest.raises(ValueError):
        ec.run("annealing", g, 0, ec.Termination(budget=10))


def test_float_ratio_target_runs_as_the_equal_fraction():
    g = ec.gnp(12, 0.4, w_max=16, seed=1)
    opt = opt_exhaustive(g).opt_cost
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


def test_unreachable_ratio_target_without_budget_is_rejected():
    # no cover costs less than LP(0^n): a ratio target below it, with no
    # budget, would never stop; with a budget, or a reachable target, it runs
    g = ec.gnp(12, 0.4, w_max=16, seed=1)
    lp2 = ec.lp_value2(g, [0] * g.n)
    for ratio, opt in ((Fraction(1), (lp2 - 1) // 2), (Fraction(5, 4), 2 * lp2 // 5 - 1)):
        assert 2 * ratio * opt < lp2
        with pytest.raises(ValueError, match="below the LP lower bound"):
            ec.run("gsemo", g, 1, ec.Termination(target_ratio=ratio, opt=opt))
        tr = ec.run("gsemo", g, 1, ec.Termination(budget=200, target_ratio=ratio, opt=opt))
        assert tr.censored and tr.iterations == 200
    opt = opt_exhaustive(g).opt_cost
    for algorithm in ec.ALGORITHMS:
        tr = ec.run(algorithm, g, 1, ec.Termination(target_ratio=Fraction(5, 4), opt=opt))
        assert not tr.censored and 4 * tr.best_cost <= 5 * opt
        assert tr == ec.run(algorithm, g, 1, ec.Termination(
            budget=tr.iterations, target_ratio=Fraction(5, 4), opt=opt))


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
    assert tr.iterations == max(tr.iters_to_target, tr.iters_to_zero_string)


# gnp(6, 0.5, w_max=8, seed=2) has OPT 11. Each case's (size, best cost)
# per iteration was recorded with the stop rule tested on every iteration.
_OPT11 = ec.Termination(budget=5000, target_ratio=Fraction(1), opt=11, until_zero_string=True)
_COVER = ec.Termination(budget=5000, any_cover=True, until_zero_string=True)
_N = None


@pytest.mark.parametrize("term, seed, hit0, hit, series", [
    # the zero string before the target: the run stops at the target
    (_OPT11, 6, 8, 16, [(1, _N), (2, _N), (3, _N), (2, _N), (3, _N), (3, _N), (3, _N),
                        (3, _N), (4, _N), (4, _N), (4, _N), (4, _N), (4, _N), (4, _N),
                        (4, _N), (4, _N), (5, 11)]),
    # the zero string after the target: the run stops at the zero string
    (_OPT11, 5, 19, 15, [(1, _N), (2, 24), (3, 24), (3, 18), (3, 18), (3, 18), (3, 18),
                         (2, 15), (2, 15), (2, 15), (2, 15), (3, 15), (2, 15), (2, 15),
                         (2, 15), (2, 11), (3, 11), (3, 11), (3, 11), (4, 11)]),
    # any cover as the target, the zero string first
    (_COVER, 4, 26, 30, [(1, _N)] * 9 + [(2, _N), (3, _N), (3, _N)] + [(4, _N)] * 13
                        + [(5, _N), (6, _N), (7, _N), (7, _N), (7, _N), (8, 19)]),
])
def test_run_until_zero_string_stops_at_the_later_milestone(term, seed, hit0, hit, series):
    g = ec.gnp(6, 0.5, w_max=8, seed=2)
    tr = ec.run("gsemo", g, seed, term, record_series=True)
    assert tr.iters_to_zero_string == hit0
    assert (tr.iters_to_target if term.target_ratio else tr.iters_to_cover) == hit
    assert tr.iterations == max(hit0, hit)
    assert tr.series == [(it, size, best) for it, (size, best) in enumerate(series)]


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


# no shrink phase (here and in the flip walks below): each example runs
# cold oracles, and shrinking a failure took minutes; the unshrunk example
# is reported
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          phases=(Phase.generate,))
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
            kept = [m for m in archive if m.code != child.code][-3:] + [child]
            ev.retain(child, [m for m in archive if m not in kept])
            archive = kept
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          phases=(Phase.generate,))
@given(flip_walks())
def test_delta_evaluation_matches_full_evaluation(walk):
    # children given only as (parent, flips) are looked up by a code made
    # from the parent's, and read their array off that code; parents are
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
        elif kind == "back" and parent.code in made_by:
            flips = made_by[parent.code]
        flips = sorted(flips)
        bits = parent.bits.copy()
        bits[flips] ^= 1
        child = ev.evaluate(None, parent, lambda cost, ones: limit, flips)
        made_by.setdefault(child.code, flips)
        full = ec.Evaluator(g).evaluate(child.bits)
        assert child.code == full.code == code_of(bits)
        assert child.bits.tobytes() == bits.tobytes()
        # the array is made from the code: it must not be writable
        assert not child.bits.flags.writeable
        with pytest.raises(ValueError):
            child.bits[0] ^= 1
        assert (child.cost, child.ones) == (full.cost, full.ones)
        assert (child.cost, child.ones) == (ec.cost(g, bits), int(bits.sum()))
        assert child.uncovered == full.uncovered == ec.residual(g, bits).num_edges
        ends = {v for e in ec.residual(g, bits).original_edges() for v in e}
        assert child.hot() == full.hot() == sum(1 << v for v in ends)
        exact = dinic_lp2(g, bits)
        assert full.lp2 == exact
        if child.code in ev._bounded:
            assert max(limit, 1) <= child.lp2 <= exact
        else:
            assert child.lp2 == exact
        inds.append(child)
        if keep and child.code in ev._cache:
            kept = [m for m in archive if m.code != child.code][-3:] + [child]
            ev.retain(child, [m for m in archive if m not in kept])
            archive = kept


_CODE_GRAPHS = {
    "gnp1": ec.gnp(1, 0.5, w_max=4, seed=1),
    "gnp12": ec.gnp(12, 0.4, w_max=16, seed=1),
    "gnp24": ec.gnp(24, 0.25, w_max=16, seed=2),
    "gnp100": ec.gnp(100, 0.05, w_max=16, seed=1),
    "edgeless": ec.build_graph(6, [3, 1, 4, 1, 5, 9], []),
}


@pytest.mark.parametrize("name", sorted(_CODE_GRAPHS))
def test_genotype_codes_along_seeded_walks(name):
    # an Individual keeps only its code, sum(b_v 2^v), and a child's code
    # is its parent's with 2**v XORed in per flip
    g = _CODE_GRAPHS[name]
    rng = np_rng(g.n)
    ev = ec.Evaluator(g)
    inds = [ev.evaluate(random_genotype(g.n, rng))]
    for _ in range(300):
        parent = inds[int(rng.integers(len(inds)))]
        k = 1 + int(rng.integers(min(g.n, 4)))
        flips = sorted(rng.choice(g.n, size=k, replace=False).tolist())
        child = ev.evaluate(None, parent, None, flips)
        bits = parent.bits.copy()
        bits[flips] ^= 1
        assert child.bits.tolist() == bits.tolist()
        inds.append(child)
    seen = set()
    for ind in inds:
        bits = ind.bits
        assert ind.code == code_of(bits)
        assert bits_of(ind.code, g.n).tolist() == bits.tolist()
        # the whole genotype finds the object its delta evaluation made
        assert ev.evaluate(bits.tolist()) is ind
        seen.add(ind.code)
    assert len(ev) == len(seen)
    covers = 0
    for algorithm in ec.ALGORITHMS:
        ev = ec.Evaluator(g)
        tr = ec.run(algorithm, g, 3, ec.Termination(budget=3000, any_cover=True), evaluator=ev)
        if tr.best_cover is None:  # plain mutation on gnp(100, 0.05)
            continue
        covers += 1
        size = len(ev)
        best = ev.evaluate(np.array(tr.best_cover, dtype=np.uint8))
        assert len(ev) == size, algorithm  # the best cover was evaluated in the run
        assert tuple(best.bits.tolist()) == tr.best_cover, algorithm
        assert (best.cost, best.lp2) == (tr.best_cost, 0), algorithm
    assert covers >= 2


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
            for code, state in ev._states.items():
                key = bits_of(code, g.n)
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


@pytest.mark.parametrize("g", [ec.gnp(7, 0.9, w_max=2, seed=1), ec.gnp(40, 0.1, w_max=16, seed=3)])
def test_stores_hold_only_current_members(g):
    # after every iteration, the flow states and selections belong to
    # current members only: each archive lists the members its inserts
    # removed, a dpbea group collapsed by a rejected insert included (dense
    # small-weight graphs tie many groups), and run drops them at once; a
    # shared Evaluator keeps nothing of the run before
    for algorithm in ec.ALGORITHMS:
        ev = ec.Evaluator(g)
        stored = [0, 0]

        def check(it, cand, accepted, archive):
            codes = {m.code for m in archive.members}
            assert set(ev._states) <= codes and set(ev._sels) <= codes, (algorithm, it)
            stored[0] += len(ev._states)
            stored[1] += len(ev._sels)

        for seed in (1, 2):
            ec.run(algorithm, g, seed, ec.Termination(budget=1500), evaluator=ev, callback=check)
        assert all(stored), algorithm


def test_stored_states_never_change():
    # DoubleCover.state hands over the flow's own lists: the next solve
    # copies them before it writes, and load binds copies, so every state
    # stored for an archive member reads after each later iteration as a
    # deep copy taken when it was stored
    class CopiedEvaluator(ec.Evaluator):
        def retain(self, ind, left):
            super().retain(ind, left)
            for state in self._states.values():
                if id(state) not in copies:
                    copies[id(state)] = state, copy.deepcopy(state[:4]), state[4]

    for g, seed in ((ec.gnp(40, 0.1, w_max=16, seed=3), 5), (ec.gnp(12, 0.4, w_max=16, seed=1), 1)):
        for algorithm in ec.ALGORITHMS:
            copies = {}  # id -> (state, copy of its value and lists, its box); keeps ids unique
            ev = CopiedEvaluator(g)

            def check(it, cand, accepted, archive):
                for state in ev._states.values():
                    kept, lists, box = copies[id(state)]
                    assert kept is state, (algorithm, it)
                    assert state[:4] == lists and state[4] is box, (algorithm, it)

            ec.run(algorithm, g, seed, ec.Termination(budget=1500), evaluator=ev, callback=check)
            assert len(copies) > 5, (g.n, algorithm)


@pytest.mark.parametrize("n", [12, 16, 24, 62])
def test_codes_stay_python_ints(n):
    # at n <= 16 the decoded flip masks are np.int64; a code XORed with one
    # would reach the memo and the archive as np.int64, where hot() fails
    g = ec.gnp(n, min(0.4, 5 / n), w_max=16, seed=n)
    for algorithm in ec.ALGORITHMS:
        ev = ec.Evaluator(g)
        for seed in (1, 2, 3):
            archives = []
            ec.run(algorithm, g, seed, ec.Termination(budget=1500), evaluator=ev,
                   callback=lambda it, cand, accepted, archive: archives.append(archive))
            inds = [*ev._cache.items(), *ev._bounded.items(),
                    *((m.code, m) for m in archives[-1].members)]
            for code, ind in inds:
                assert type(code) is int and type(ind.code) is int, (algorithm, seed)
                assert code == ind.code == code_of(ind.bits), (algorithm, seed)


@pytest.mark.parametrize("n", [12, 24, 62, 100])
def test_member_selections_are_cached_while_members(n):
    # a miss copies its parent's selection, unpacked once and kept while the
    # parent is a member; a decoded row's miss comes with its child's code
    g = ec.gnp(n, min(0.4, 5 / n), w_max=16, seed=n)
    expected = {}  # code -> its 0/1 bytes, made once by the slow route

    class CheckedEvaluator(ec.Evaluator):
        def evaluate(self, bits, parent=None, threshold=None, flips=None, code=None):
            ind = super().evaluate(bits, parent, threshold, flips, code)
            if code is not None:
                handed[0] += 1
                assert code == parent.code ^ sum(1 << v for v in flips)
                assert super().evaluate(bits, parent, threshold, flips) is ind
                ref = ec.Evaluator(g).evaluate(bits_of(code, n))
                assert (ind.code, ind.cost, ind.ones, ind.uncovered) == \
                    (ref.code, ref.cost, ref.ones, ref.uncovered)
                assert ind.lp2 == ref.lp2 if code in self._cache else 1 <= ind.lp2 <= ref.lp2
            return ind

    def check(it, cand, accepted, archive):
        for code, key in ev._sels.items():
            if code not in expected:
                expected[code] = bits_of(code, n).tobytes()
            assert key == expected[code], (algorithm, it)
        if accepted:
            assert len(ev._sels) <= len(archive.members), (algorithm, it)

    for algorithm in ec.ALGORITHMS:
        handed = [0]
        ev = CheckedEvaluator(g)
        for seed in (1, 2):
            ec.run(algorithm, g, seed, ec.Termination(budget=800), evaluator=ev, callback=check)
        assert ev._sels, algorithm
        assert handed[0] > 0, algorithm


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
            if cand.code in ev._bounded:
                seen["bounded"] += 1
                assert not accepted, (algorithm, it)
                assert 1 <= cand.lp2 <= dinic_lp2(g, cand.bits), (algorithm, it)
            elif accepted:
                assert cand.lp2 == dinic_lp2(g, cand.bits), (algorithm, it)
            for m in archive.members:
                assert ev._cache.get(m.code) is m, (algorithm, it)
            for code, state in ev._states.items():
                assert code in ev._cache and state[0] == ev._cache[code].lp2, (algorithm, it)

        for seed in seeds:
            ec.run(algorithm, g, seed, ec.Termination(budget=1500), evaluator=ev,
                   callback=check)
        assert seen["bounded"] > 100, algorithm
        for ind in list(ev._bounded.values()):  # a limitless evaluation solves exactly
            assert ev.evaluate(ind.bits).lp2 == dinic_lp2(g, ind.bits)
            assert ind.code in ev._cache and ind.box is None
        assert not ev._bounded


class _ExactEvaluator(ec.Evaluator):
    """Ignores the archive's threshold: every search runs to the maximum."""

    def evaluate(self, bits, parent=None, threshold=None, flips=None, code=None):
        return super().evaluate(bits, parent, None, flips, code)


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


def test_bound_answered_evaluations_leave_the_flow_alone(monkeypatch):
    # a child whose bound reaches the threshold is answered with no load or
    # solve: the flow lists, value, certificate box, solved key and stored
    # states stay as they were, and its lp2 lies between the limit and the
    # exact value
    solves = [0]
    real_solve = DoubleCover.solve

    def counted_solve(self, *args):
        solves[0] += 1
        return real_solve(self, *args)

    monkeypatch.setattr(DoubleCover, "solve", counted_solve)

    class CheckedEvaluator(ec.Evaluator):
        answered = 0

        def _solve(self, code, sel, parent, flips, limit):
            cover = self._cover
            before = flow_copy(cover), self._solved, dict(self._states)
            count = solves[0]
            lp2 = super()._solve(code, sel, parent, flips, limit)
            if solves[0] == count:
                self.answered += 1
                state, solved, states = before
                assert cover.state()[:4] == state[:4] and cover._box is state[4]
                assert self._solved == solved
                assert self._states.keys() == states.keys()
                assert all(self._states[k] is v for k, v in states.items())
                exact = dinic_lp2(self.graph, bits_of(code, len(sel)))
                assert max(limit, 1) <= lp2 <= exact
            return lp2

    for g, seeds in ((ec.gnp(24, 0.25, w_max=16, seed=2), (1,)),
                     (ec.gnp(12, 0.4, w_max=16, seed=1), (1, 2))):
        for algorithm in ec.ALGORITHMS:
            ev = CheckedEvaluator(g)
            for seed in seeds:
                ec.run(algorithm, g, seed, ec.Termination(budget=1500), evaluator=ev)
            assert ev.answered > 0, (g.n, algorithm)


def test_bound_changes_no_trace(monkeypatch):
    # with the bound never reaching the limit every stopped solve runs, and
    # the four loops trace exactly as with it
    fired = {}
    real_bound = DoubleCover.bound

    def counted_bound(self, state, sel, edits, limit):
        value = real_bound(self, state, sel, edits, limit)
        fired[algorithm] = fired.get(algorithm, 0) + (value >= limit)
        return value

    for g, budget in ((ec.gnp(24, 0.25, w_max=16, seed=2), 3000),
                      (ec.gnp(12, 0.4, w_max=16, seed=1), 2000)):
        for algorithm in ec.ALGORITHMS:
            for seed in (1, 2):
                term = ec.Termination(budget=budget)
                monkeypatch.setattr(DoubleCover, "bound", counted_bound)
                fast = ec.run(algorithm, g, seed, term, record_series=True)
                monkeypatch.setattr(DoubleCover, "bound", lambda self, *args: args[-1] - 1)
                slow = ec.run(algorithm, g, seed, term, record_series=True)
                assert fast == slow, (g.n, algorithm, seed)
    assert all(fired[algorithm] > 0 for algorithm in ec.ALGORITHMS), fired


@pytest.mark.parametrize("n, p, seed", [(24, 0.25, 2), (12, 0.4, 1)])
def test_children_of_a_cover_start_from_its_empty_flow(monkeypatch, n, p, seed):
    # a cover is never solved and has no stored state, but its residual
    # graph has no edge, so its maximum flow is the empty one: its children
    # are bounded and solved from that, with their own flips as the edits,
    # not the positions where their keys differ from the last flow's, as
    # for a parent that is no cover and has no known flow. On n >= 16 up to
    # three flips take the local search, more the rounds.
    g = ec.gnp(n, p, w_max=16, seed=seed)
    edits = []
    real_solve = DoubleCover.solve

    def recorded_solve(self, sel, changed, limit=None):
        edits.append(list(changed))
        return real_solve(self, sel, changed, limit)

    monkeypatch.setattr(DoubleCover, "solve", recorded_solve)
    rng = np_rng(seed)
    ev = ec.Evaluator(g)
    seen = {"exact": 0, "answered": 0, "stopped": 0, "diffed": 0}
    other = None
    for case in range(120):
        if other is not None and other.uncovered and other.code != ev._solved:
            flips = [int(rng.integers(n))]
            child = other.bits.copy()
            child[flips] ^= 1
            code = code_of(child)
            if not (code in ev._cache or code in ev._bounded
                    or all(child[u] or child[v] for u, v in g.edges)):
                seen["diffed"] += 1
                solved = bits_of(ev._solved, n)
                diff = [v for v in range(n) if child[v] != solved[v]]
                assert ev.evaluate(None, other, None, flips).lp2 == dinic_lp2(g, child), case
                assert edits[-1] == diff, case
        other = ev.evaluate(random_genotype(n, rng))  # the flow is some other genotype's
        bits = random_genotype(n, rng)
        for u, v in g.edges:
            if not (bits[u] or bits[v]):
                bits[u if rng.random() < 0.5 else v] = 1
        parent = ev.evaluate(bits)
        assert parent.uncovered == 0 and parent.lp2 == 0
        flips = sorted(rng.choice(n, size=1 + case % 5, replace=False).tolist())
        child = bits.copy()
        child[flips] ^= 1
        if (ev._solved == parent.code or code_of(child) in ev._cache
                or all(child[u] or child[v] for u, v in g.edges)):
            continue
        exact = dinic_lp2(g, child)
        limit = (None, exact + 1, int(rng.integers(1, exact + 1)))[case % 3]
        before = flow_copy(ev._cover), ev._solved, dict(ev._states)
        count = len(edits)
        ind = ev.evaluate(None, parent, None if limit is None else lambda c, o: limit, flips)
        where = case, flips, limit
        assert parent.code not in ev._states, where
        if len(edits) == count:
            seen["answered"] += 1
            state, solved, states = before
            assert limit is not None and limit <= ind.lp2 <= exact, where
            assert ev._cover.state()[:4] == state[:4] and ev._cover._box is state[4], where
            assert ev._solved == solved and ev._states == states, where
            continue
        assert edits[count:] == [flips], where
        assert ev._solved == ind.code, where
        if limit is None or ind.lp2 < limit:
            seen["exact"] += 1
            assert ind.lp2 == exact, where
        else:
            seen["stopped"] += 1
            assert limit <= ind.lp2 <= exact, where
    assert min(seen.values()) > 0, seen


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


def golden_digests(run):
    """Each loop's trace of ``run`` on the golden's instance and termination,
    digested as ``GOLDEN_GNP30`` holds it."""
    g = ec.gnp(30, 0.2, w_max=16, seed=4)
    term = ec.Termination(budget=4000, target_ratio=Fraction(5, 4), opt=155,
                          until_zero_string=True)
    for algorithm in ec.ALGORITHMS:
        tr = run(algorithm, g, 11, term, check_bounds=True, record_series=True)
        got = tr._asdict()
        series = got.pop("series")
        if got["best_cover"] is not None:
            got["best_cover"] = "".join(map(str, got["best_cover"]))
        got["series_sha"] = hashlib.sha256(json.dumps(series).encode()).hexdigest()[:16]
        yield algorithm, got


def test_run_traces_match_cold_solver_goldens():
    for algorithm, got in golden_digests(ec.run):
        assert got == GOLDEN_GNP30[algorithm]


def test_reference_loop_matches_the_cold_solver_goldens():
    # the goldens pinned by a loop that shares no memo, threshold, stored
    # flow or batch with the engine
    for algorithm, got in golden_digests(reference_run):
        assert got == GOLDEN_GNP30[algorithm]


def _pairwise_no_strong_domination(members):
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            assert not dominates_strong(a.fitness, b.fitness)
            assert not dominates_strong(b.fitness, a.fitness)


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
                assert not dominates_weak(a.fitness, b.fitness)
                assert not dominates_weak(b.fitness, a.fitness)
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


def _insert_view(archive):
    """What an insert may change, with each member named by identity."""
    return ([id(m) for m in archive.members], list(getattr(archive, "_costs", [])),
            {box: id(m) for box, m in getattr(archive, "_by_box", {}).items()},
            {k: [id(m) for m in grp] for k, grp in getattr(archive, "_groups", {}).items()})


def test_a_member_offered_again_is_rejected_and_changes_nothing():
    # run skips the insert of an unmutated parent, a current member: each
    # archive must reject a member, and leave its members, costs, boxes and
    # groups as they were (semo and demo at the weak-dominance bisect, where
    # the member meets itself; dpbea at its identity test)
    for g, seed in ((ec.gnp(12, 0.4, w_max=16, seed=1), 2), (ec.gnp(24, 0.25, w_max=16, seed=2), 1)):
        for algorithm in ec.ALGORITHMS:
            offered = [0]

            def check(it, cand, accepted, archive):
                for m in list(archive.members):
                    before = _insert_view(archive)
                    assert archive.insert(m) is False, (algorithm, it)
                    assert _insert_view(archive) == before, (algorithm, it)
                    offered[0] += 1

            ec.run(algorithm, g, seed, ec.Termination(budget=500), callback=check)
            assert offered[0] > 1000, (g.n, algorithm)


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


_DPBEA_OPS = st.lists(st.one_of(
    st.tuples(st.just("new"), st.integers(0, 6), st.integers(0, 6), st.integers(0, 4)),
    st.tuples(st.just("again"), st.integers(0, 10 ** 6)),  # a member proposed again
    st.tuples(st.just("bounded"), st.integers(0, 6), st.integers(0, 4))),  # lp2 at the threshold
    max_size=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_DPBEA_OPS)
def test_dpbea_members_and_threshold_match_the_sorted_groups(ops):
    # small ranges give ties on both comparators; the archive splices each
    # changed group into members, the oracle rebuilds members from scratch
    arch, groups = ec.DpbeaArchive(), {}
    for step, op in enumerate(ops):
        if op[0] == "new":
            cand = mk(op[1], op[2], ones=op[3])
        elif op[0] == "again":
            if not arch.members:
                continue
            cand = arch.members[op[1] % len(arch.members)]
        else:
            t = arch.threshold(op[1], op[2])
            cand = mk(op[1], 0 if t is None else max(t, 0), ones=op[2])
        expect = dpbea_reference_insert(groups, cand)
        assert arch.insert(cand) == expect, (step, op)
        oracle = [m for k in sorted(groups) for m in groups[k]]
        assert len(arch.members) == len(oracle), (step, op)
        assert all(m is o for m, o in zip(arch.members, oracle)), (step, op)
        for ones in range(5):
            grp = groups.get(ones)
            for cost in range(7):
                want = None if grp is None else max(2 * (grp[0].cost - cost) + grp[0].lp2,
                                                    grp[-1].cost - cost + grp[-1].lp2)
                assert arch.threshold(cost, ones) == want, (step, op, cost, ones)


_FRONT_OPS = st.lists(st.one_of(
    st.tuples(st.just("new"), st.integers(0, 200), st.integers(0, 200)),
    # a member's fitness moved by at most 3 per axis: often in its box
    st.tuples(st.just("near"), st.integers(0, 10 ** 6), st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.just("again"), st.integers(0, 10 ** 6))),  # a member proposed again
    max_size=40)


@pytest.mark.parametrize("n", [None, 1, 3])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ops=_FRONT_OPS)
# n = 1: (4, 3) ties (3, 4) in its box and loses, (3, 3) evicts it as
# dominated; (4, 5) outscores its box mate (3, 8) without dominating it
@example(ops=[("new", 3, 4), ("new", 4, 3), ("new", 3, 3), ("again", 0)])
@example(ops=[("new", 3, 8), ("new", 4, 5), ("again", 0), ("new", 4, 5)])
def test_pareto_and_demo_members_and_threshold_match_the_sorted_front(n, ops):
    # small ranges give equal costs, box ties, box mates the candidate
    # dominates and mates it only outscores on cost + lp2
    arch, front = (ec.SemoArchive() if n is None else ec.DemoArchive(n)), []
    for step, op in enumerate(ops):
        if op[0] == "new":
            cand = mk(op[1], op[2])
        elif not arch.members:
            continue
        else:
            cand = arch.members[op[1] % len(arch.members)]
            if op[0] == "near":
                cand = mk(max(cand.cost + op[2], 0), max(cand.lp2 + op[3], 0))
        expect = front_reference_insert(front, cand, n)
        assert arch.insert(cand) == expect, (step, op)
        assert len(arch.members) == len(front), (step, op)
        assert all(m is f for m, f in zip(arch.members, front)), (step, op)
        # the threshold steps at the members' costs
        for cost in {0, 10 ** 6}.union(*((m.cost - 1, m.cost) for m in front)):
            want = min((m.lp2 for m in front if m.cost <= cost), default=None)
            assert arch.threshold(cost, 0) == want, (step, op, cost)


def test_evaluators_on_one_graph_share_one_topology():
    # the double cover's arcs are built once per graph, not per Evaluator
    g = ec.gnp(30, 0.2, w_max=8, seed=4)
    evs = [ec.Evaluator(g), ec.Evaluator(g)]
    for ev in evs:
        ev.evaluate(np.zeros(g.n, dtype=np.uint8))  # an LP solve makes the flow
    topo = g._double_cover
    for cover in (evs[0]._cover, evs[1]._cover, DoubleCover(g)):
        assert (cover._w, cover._tail, cover._head, cover._out, cover._in) == topo
        assert cover._out is topo[3] and cover._in is topo[4] and cover._tail is topo[1]
    assert evs[0]._cover._flow is not evs[1]._cover._flow


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
