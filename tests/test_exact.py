"""Exact cover oracles: exhaustive scan vs LP-bounded branch and bound."""

from __future__ import annotations

import pytest

import evocover as ec
from conftest import is_cover, make_instances, opt_exhaustive, tiny_opt


def test_single_edge(single_edge_15):
    res = opt_exhaustive(single_edge_15)
    assert res.opt_cost == 1
    assert res.witness == (1, 0)


def test_unit_triangle(triangle):
    assert opt_exhaustive(triangle).opt_cost == 2


def test_weighted_star(weighted_star):
    res = opt_exhaustive(weighted_star)
    assert res.opt_cost == 2
    assert res.witness == (1, 0, 0, 0)


def test_unit_five_cycle():
    g = ec.build_graph(5, [1] * 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert ec.opt_branch_bound(g).opt_cost == 3
    assert opt_exhaustive(g).opt_cost == 3


def test_edgeless():
    g = ec.build_graph(4, [2, 2, 2, 2], [])
    res = ec.opt_branch_bound(g)
    assert res.opt_cost == 0
    assert res.witness == (0, 0, 0, 0)


def test_matches_subset_scan_oracle():
    for g in make_instances(40, 700, n_values=range(1, 9)):
        expect_cost, expect_bits = tiny_opt(g)
        for res in (opt_exhaustive(g), ec.opt_branch_bound(g)):
            assert res.opt_cost == expect_cost
            assert res.witness == expect_bits


def test_branch_bound_equals_exhaustive():
    for g in make_instances(60, 800, n_values=range(2, 13), w_values=(1, 8)):
        assert ec.opt_branch_bound(g) == opt_exhaustive(g)


def test_witness_is_cover_and_lp_bound_holds():
    for g in make_instances(40, 950, n_values=range(2, 11)):
        res = ec.opt_branch_bound(g)
        assert is_cover(g, res.witness)
        assert ec.cost(g, res.witness) == res.opt_cost
        lp2 = ec.lp_value2(g, [0] * g.n)
        assert (lp2 + 1) // 2 <= res.opt_cost


def test_too_large_rejected():
    g = ec.path(17)
    with pytest.raises(ec.InstanceTooLargeError):
        opt_exhaustive(g)
    g33 = ec.path(33)
    with pytest.raises(ec.InstanceTooLargeError):
        ec.opt_branch_bound(g33)


def test_node_budget_reported_distinctly():
    g = ec.gnp(12, 0.6, w_max=4, seed=4242)
    with pytest.raises(ec.SearchBudgetExceeded):
        ec.opt_branch_bound(g, node_cap=2)


# gnp(n, p, w_max=16, seed) -> (OPT, witness, smallest node_cap that proves it),
# pinned beyond the exhaustive oracle's range from the Dinic-bounded search
BRANCH_BOUND_PINS = {
    (20, 0.3, 7): (108, "11100111110000111001", 55),
    (24, 0.25, 2): (101, "011110111100010111111111", 155),
    (28, 0.2, 5): (105, "0000011111110111101110011100", 253),
    (30, 0.2, 4): (155, "101100110111000110101001101101", 317),
    (32, 0.15, 3): (140, "01101110101101111011110101011001", 321),
}


@pytest.mark.parametrize("n, p, seed", sorted(BRANCH_BOUND_PINS))
def test_branch_bound_pinned_beyond_exhaustive_range(n, p, seed):
    opt, witness, cap = BRANCH_BOUND_PINS[(n, p, seed)]
    g = ec.gnp(n, p, w_max=16, seed=seed)
    res = ec.opt_branch_bound(g, node_cap=cap)
    assert (res.opt_cost, "".join(map(str, res.witness))) == (opt, witness)
    assert is_cover(g, res.witness) and ec.cost(g, res.witness) == opt
    with pytest.raises(ec.SearchBudgetExceeded):
        ec.opt_branch_bound(g, node_cap=cap - 1)
