"""Exact fractional cover solver against the enumeration oracle.

Expected values below were computed by brute force over the half-integral
grid (see tiny_lp_value2) before being frozen into assertions.
"""

from __future__ import annotations

import importlib.util
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evocover as ec
from evocover.lp import DoubleCover
from conftest import (dinic_cover_lp, dinic_lp2, make_instances, np_rng, random_genotype,
                      scipy_lp2, tiny_lp_value2)


def full_residual(g):
    return ec.residual(g, [0] * g.n)


def assert_valid_solution(rg, weights, sol):
    w = [weights[i] for i in rg.kept]
    assert all(a in (0, 1, 2) for a in sol.assign2)
    for u, v in rg.edges:
        assert sol.assign2[u] + sol.assign2[v] >= 2
    assert sum(a * wi for a, wi in zip(sol.assign2, w)) == sol.value2


def test_single_edge_weighted(single_edge_15):
    sol = ec.solve_lp(full_residual(single_edge_15), single_edge_15.weights)
    assert sol.value2 == 2  # LP = 1, y = (1, 0)
    assert sol.assign2 == (2, 0)


def test_unit_triangle(triangle):
    sol = ec.solve_lp(full_residual(triangle), triangle.weights)
    assert sol.value2 == 3  # LP = 3/2, all halves
    assert sol.assign2 == (1, 1, 1)


def test_weighted_star_center_one(weighted_star):
    sol = ec.solve_lp(full_residual(weighted_star), weighted_star.weights)
    assert sol.value2 == 4  # LP = 2, center y = 1
    assert sol.assign2 == (2, 0, 0, 0)


def test_edgeless_graph():
    g = ec.build_graph(3, [4, 4, 4], [])
    sol = ec.solve_lp(full_residual(g), g.weights)
    assert sol.value2 == 0
    assert sol.assign2 == (0, 0, 0)


def test_isolated_vertices_get_zero():
    g = ec.build_graph(4, [1, 1, 1, 7], [(0, 1)])
    sol = ec.solve_lp(full_residual(g), g.weights)
    assert sol.assign2[2] == 0 and sol.assign2[3] == 0


def test_lp_value2_examples(triangle, single_edge_15):
    assert ec.lp_value2(triangle, [0, 0, 0]) == 3
    assert ec.lp_value2(triangle, [1, 1, 1]) == 0
    assert ec.lp_value2(single_edge_15, [1, 0]) == 0


def test_lp_value2_matches_solve_lp_on_selections():
    rng = np_rng(11)
    for g in make_instances(30, 400, n_values=range(2, 9)):
        for _ in range(5):
            x = random_genotype(g.n, rng)
            rg = ec.residual(g, x)
            assert ec.lp_value2(g, x) == ec.solve_lp(rg, g.weights).value2


def test_brute_force_examples():
    g = ec.build_graph(2, [1, 1], [(0, 1)])
    assert ec.brute_force_lp(full_residual(g), g.weights).value2 == 2

    cycle4 = ec.build_graph(4, [1, 1, 1, 1], [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert ec.brute_force_lp(full_residual(cycle4), cycle4.weights).value2 == 4  # LP = 2

    edgeless = ec.build_graph(2, [9, 9], [])
    assert ec.brute_force_lp(full_residual(edgeless), edgeless.weights).value2 == 0


def test_brute_force_lex_tie_break():
    # unit 4-cycle: assign2 (0,2,0,2) and (2,0,2,0) and all-ones tie at 4;
    # lexicographically smallest doubled assignment wins
    cycle4 = ec.build_graph(4, [1, 1, 1, 1], [(0, 1), (1, 2), (2, 3), (0, 3)])
    sol = ec.brute_force_lp(full_residual(cycle4), cycle4.weights)
    assert sol.assign2 == (0, 2, 0, 2)


def test_brute_force_rejects_large_residual():
    g = ec.path(15)
    with pytest.raises(ec.InstanceTooLargeError):
        ec.brute_force_lp(full_residual(g), g.weights)


def test_solver_agrees_with_both_oracles():
    rng = np_rng(12)
    for g in make_instances(60, 500, n_values=range(1, 9)):
        rg = full_residual(g)
        fast = ec.solve_lp(rg, g.weights)
        brute = ec.brute_force_lp(rg, g.weights)
        tiny = tiny_lp_value2(g.n, g.edges, g.weights)
        assert fast.value2 == brute.value2 == tiny
        assert_valid_solution(rg, g.weights, fast)
        assert_valid_solution(rg, g.weights, brute)
        x = random_genotype(g.n, rng)
        rgx = ec.residual(g, x)
        assert ec.solve_lp(rgx, g.weights).value2 == ec.brute_force_lp(rgx, g.weights).value2


def test_solver_deterministic():
    g = ec.gnp(9, 0.5, w_max=7, seed=77)
    rg = full_residual(g)
    first = ec.solve_lp(rg, g.weights)
    for _ in range(5):
        assert ec.solve_lp(rg, g.weights) == first


def test_solve_cover_lp_matches_cold_dinic():
    # value2 and the canonical assignment equal the Dinic oracle's, on
    # residual graphs and on raw edge lists with repeated and reversed
    # edges, no edges, and isolated vertices
    rng = np_rng(14)
    seed = 700
    for n, p, w_max in itertools.product(range(1, 41), (0.1, 0.3, 0.6), (1, 16)):
        g = ec.gnp(n, p, w_max=w_max, seed=seed)
        seed += 1
        for x in ([0] * n, random_genotype(n, rng)):
            rg = ec.residual(g, x)
            w = [g.weights[i] for i in rg.kept]
            sol = ec.solve_cover_lp(rg.num_vertices, rg.edges, w)
            assert sol == dinic_cover_lp(rg.num_vertices, rg.edges, w), (g, x)
            assert all(type(a) is int for a in sol.assign2)
    for trial in range(600):
        n = int(rng.integers(1, 21))
        w = rng.integers(1, 17, size=n).tolist()
        m = 0 if trial % 10 == 0 else int(rng.integers(0, 3 * n + 1))
        ends = rng.integers(0, n, size=(m, 2)).tolist()
        edges = [(u, v) for u, v in ends if u != v]
        edges += edges[:len(edges) // 3]  # repeated as given
        edges += [(v, u) for u, v in edges[:len(edges) // 4]]  # reversed
        sol = ec.solve_cover_lp(n, iter(edges), w)
        assert sol == dinic_cover_lp(n, edges, w), (n, w, edges)
        touched = {v for e in edges for v in e}
        assert all(sol.assign2[v] == 0 for v in range(n) if v not in touched)


def test_against_general_lp_solver():
    # third route: the continuous relaxation solved by scipy (no half-integral
    # restriction) must give the same optimum as the flow reduction
    scipy_opt = pytest.importorskip("scipy.optimize")
    for g in make_instances(20, 6500, n_values=(6, 10, 14, 18), require_edges=True):
        rows = []
        for u, v in g.edges:
            row = [0.0] * g.n
            row[u] = -1.0
            row[v] = -1.0
            rows.append(row)
        res = scipy_opt.linprog(
            c=list(g.weights), A_ub=rows, b_ub=[-1.0] * g.m,
            bounds=[(0.0, 1.0)] * g.n, method="highs")
        assert res.status == 0
        value2 = ec.lp_value2(g, [0] * g.n)
        assert abs(2 * res.fun - value2) < 1e-6, (g, res.fun, value2)


def test_flip_reduces_value_by_assignment_share():
    # adding a vertex the LP values at >= 1/2 lowers lp2 by at least
    # assign2 * weight (tested over the canonical solution)
    rng = np_rng(13)
    for g in make_instances(40, 600, n_values=range(2, 10), require_edges=True):
        for x in ([0] * g.n, random_genotype(g.n, rng)):
            rg = ec.residual(g, x)
            sol = ec.solve_lp(rg, g.weights)
            base = sol.value2
            for ridx, a in enumerate(sol.assign2):
                if a >= 1:
                    orig = rg.kept[ridx]
                    flipped = np.asarray(x, dtype=np.uint8).copy()
                    flipped[orig] = 1
                    assert ec.lp_value2(g, flipped) <= base - a * g.weights[orig]


# ---------------------------------------------------------------------------
# Warm double cover
# ---------------------------------------------------------------------------

@st.composite
def cover_edit_walks(draw):
    """A graph on <= 12 vertices (edgeless allowed) and a walk of edits on it.

    Each step is (vertices to flip, which saved state to reload first,
    whether to reload one, whether to save the state after the solve, the
    solve's limit or None).
    """
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, present) if keep]
    weights = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    steps = draw(st.lists(st.tuples(st.sets(st.integers(0, n - 1), min_size=1),
                                    st.integers(0, 10 ** 6), st.booleans(), st.booleans(),
                                    st.one_of(st.none(), st.integers(0, 200))),
                          min_size=1, max_size=30))
    return ec.build_graph(n, weights, edges), steps


def assert_flow_state(g, cover, bits):
    """The flow lists form a valid flow of value ``value2`` on ``bits``'s selection."""
    used_sup = [0] * g.n
    used_dem = [0] * g.n
    for x, arcs in enumerate(cover._out):
        for a, y in arcs:
            f = cover._flow[a]
            assert f >= 0 and (f == 0 or not (bits[x] or bits[y]))
            used_sup[x] += f
            used_dem[y] += f
    for v, w in enumerate(g.weights):
        cap = 0 if bits[v] else w
        assert cover._sup[v] == cap - used_sup[v] >= 0
        assert cover._dem[v] == cap - used_dem[v] >= 0
    assert cover.value2 == sum(used_sup) == sum(used_dem)


def assert_certificate(g, cover, bits):
    """If the flow carries a cover certificate, it is a feasible doubled
    cover of ``bits``'s residual graph and weighs the flow value; returns
    whether there is one."""
    a = cover._cover()
    if a is None:
        return False
    kept = [v for v in range(g.n) if not bits[v]]
    assert all(a[v] in (0, 1, 2) for v in kept)
    assert all(a[u] + a[v] >= 2 for u, v in g.edges if not (bits[u] or bits[v]))
    assert sum(a[v] * g.weights[v] for v in kept) == cover.value2
    return True


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cover_edit_walks())
def test_double_cover_edits_and_stale_loads_match_cold_solver(walk):
    g, steps = walk
    cover = DoubleCover(g)
    bits = np.zeros(g.n, dtype=np.uint8)
    saved = []  # (state, selection, exact value) taken many solves apart
    for flips, pick, reload, save, limit in steps:
        if reload and saved:
            state, bits, _ = saved[pick % len(saved)]
            cover.load(state)  # possibly a flow stopped at a limit
        bits = bits.copy()
        bits[sorted(flips)] ^= 1
        value = cover.solve(bits.tolist(), sorted(flips), limit)
        exact = dinic_lp2(g, bits)
        if limit is None or value < limit:
            assert value == exact
        else:
            assert limit <= value <= exact
        assert_flow_state(g, cover, bits)
        if save:
            saved.append((cover.state(), bits, exact))
    # saved copies must not alias the live lists: each still holds its flow
    for state, bits, value in reversed(saved):
        cover.load(state)
        assert_flow_state(g, cover, bits)
        assert cover.solve(bits.tolist(), []) == value


@st.composite
def local_edit_walks(draw):
    """A gnp graph on about 40 vertices, past the brute-force range, and a
    walk of one- and two-vertex edits, the edits the local search takes.

    Each step is (vertices to flip, which saved state to reload first,
    whether to reload one, whether to save the state after the solve, the
    solve's limit or None).
    """
    n = draw(st.integers(36, 44))
    g = ec.gnp(n, draw(st.sampled_from((0.05, 0.1, 0.2))), w_max=draw(st.sampled_from((1, 16))),
               seed=draw(st.integers(0, 10 ** 6)))
    steps = draw(st.lists(st.tuples(st.sets(st.integers(0, n - 1), min_size=1, max_size=2),
                                    st.integers(0, 10 ** 6), st.booleans(), st.booleans(),
                                    st.one_of(st.none(), st.integers(1, 500))),
                          min_size=10, max_size=30))
    return g, steps


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="needs scipy")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(local_edit_walks())
def test_local_search_walks_match_dinic_and_scipy(walk):
    # exact values must equal two cold oracles; a flow stopped at a limit
    # carries no certificate, and one that does is a feasible cover that
    # weighs the flow value, so the next solve's upper bound is sound
    g, steps = walk
    cover = DoubleCover(g)
    bits = np.zeros(g.n, dtype=np.uint8)
    saved = []
    for flips, pick, reload, save, limit in steps:
        if reload and saved:
            state, bits = saved[pick % len(saved)]
            cover.load(state)  # possibly a flow stopped at a limit
        bits = bits.copy()
        bits[sorted(flips)] ^= 1
        value = cover.solve(bits.tolist(), sorted(flips), limit)
        exact = dinic_lp2(g, bits)
        assert exact == scipy_lp2(g, bits)
        if limit is None or value < limit:
            assert value == exact
        else:
            assert limit <= value <= exact
        assert_flow_state(g, cover, bits)
        if assert_certificate(g, cover, bits):
            assert value == exact
        if save:
            saved.append((cover.state(), bits))
