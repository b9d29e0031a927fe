"""Graph model, genotypes, generators, and the text instance format."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import evocover as ec
from conftest import is_cover, make_instances, np_rng, random_genotype, scalar_gnp


def test_build_minimal_instance():
    g = ec.build_graph(2, [1, 5], [(0, 1)])
    assert g.n == 2 and g.m == 1
    assert g.weights == (1, 5)
    assert g.edges == ((0, 1),)


def test_build_edgeless_single_vertex():
    g = ec.build_graph(1, [3], [])
    assert g.n == 1 and g.m == 0


def test_build_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        ec.build_graph(2, [0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        ec.build_graph(2, [-2, 1], [(0, 1)])


def test_build_rejects_self_loop_and_bad_endpoint():
    with pytest.raises(ValueError):
        ec.build_graph(2, [1, 1], [(0, 0)])
    with pytest.raises(ValueError):
        ec.build_graph(2, [1, 1], [(0, 2)])
    with pytest.raises(ValueError):
        ec.build_graph(2, [1, 1], [(-1, 1)])


def test_build_normalizes_and_collapses_edges():
    g = ec.build_graph(3, [1, 1, 1], [(2, 0), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))


def test_cost_examples(triangle):
    assert ec.cost(ec.build_graph(2, [1, 5], [(0, 1)]), [0, 1]) == 5
    assert ec.cost(triangle, [0, 0, 0]) == 0
    assert ec.cost(ec.build_graph(3, [2, 3, 4], []), [1, 1, 1]) == 9


def test_is_cover_examples(triangle):
    assert is_cover(ec.build_graph(2, [1, 1], [(0, 1)]), [1, 0])
    assert not is_cover(triangle, [1, 0, 0])
    assert is_cover(ec.build_graph(3, [1, 1, 1], []), [0, 0, 0])


def test_residual_examples(triangle):
    rg = ec.residual(triangle, [1, 0, 0])
    assert rg.kept == (1, 2)
    assert rg.edges == ((0, 1),)
    assert rg.original_edges() == ((1, 2),)

    assert ec.residual(triangle, [1, 1, 1]).edges == ()
    rg0 = ec.residual(triangle, [0, 0, 0])
    assert rg0.kept == (0, 1, 2)
    assert rg0.edges == triangle.edges


def test_residual_rejects_length_mismatch(triangle):
    with pytest.raises(ValueError):
        ec.residual(triangle, [0, 1])


@pytest.mark.parametrize("x", [
    [0.5, 1, 0],  # once read as 010
    [1.7, 0, 0],  # once read as 100
    np.array([256, 0, 0], dtype=np.int64),  # once wrapped to 000
    [-1, 0, 0],  # once an OverflowError
], ids=["half", "truncated", "wrapped", "negative"])
def test_as_genotype_rejects_entries_other_than_0_and_1(x):
    with pytest.raises(ValueError, match="0 or 1"):
        ec.as_genotype(x, 3)


def test_as_genotype_accepts_bools_and_exact_float_bits():
    for x in ([True, False, True], [1.0, 0.0, 1.0], np.array([1, 0, 1], dtype=np.int64)):
        bits = ec.as_genotype(x, 3)
        assert bits.dtype == np.uint8 and bits.tolist() == [1, 0, 1]


def test_genotype_strings():
    bits = ec.genotype_from_string("0101", 4)
    assert bits.tolist() == [0, 1, 0, 1]
    assert ec.genotype_to_string(bits) == "0101"
    with pytest.raises(ValueError):
        ec.genotype_from_string("012", 3)
    with pytest.raises(ValueError):
        ec.genotype_from_string("01", 3)


def test_cover_iff_residual_edgeless():
    rng = np_rng(7)
    for g in make_instances(40, 100, n_values=range(1, 9)):
        for _ in range(10):
            x = random_genotype(g.n, rng)
            assert is_cover(g, x) == (ec.residual(g, x).num_edges == 0)


def test_partition_covered_plus_uncovered():
    rng = np_rng(8)
    for g in make_instances(40, 200, n_values=range(2, 9)):
        for _ in range(10):
            x = random_genotype(g.n, rng)
            covered = sum(1 for u, v in g.edges if x[u] or x[v])
            assert covered + ec.residual(g, x).num_edges == g.m


def test_residual_monotone_under_bit_order():
    rng = np_rng(9)
    for g in make_instances(30, 300, n_values=range(2, 9)):
        x = random_genotype(g.n, rng)
        y = x | random_genotype(g.n, rng)  # x <= y bitwise
        ex = set(ec.residual(g, x).original_edges())
        ey = set(ec.residual(g, y).original_edges())
        assert ey <= ex


def test_generator_structures():
    s = ec.star(3, w_max=1, seed=7)
    assert s.n == 4 and s.m == 3
    assert s.edges == ((0, 1), (0, 2), (0, 3))

    p = ec.path(3, seed=1)
    assert p.m == 2

    kb = ec.complete_bipartite(2, 3, seed=5)
    assert kb.n == 5 and kb.m == 6


def test_generator_determinism_and_weight_range():
    a = ec.gnp(8, 0.5, w_max=9, seed=321)
    b = ec.gnp(8, 0.5, w_max=9, seed=321)
    assert a == b
    assert ec.gnp(8, 0.5, w_max=9, seed=322) != a  # different seed, new draw
    assert all(1 <= w <= 9 for w in a.weights)
    via_dispatch = ec.gen_instance("gnp", {"n": 8, "p": 0.5}, w_max=9, seed=321)
    assert via_dispatch == a


def test_gnp_draws_as_one_scalar_per_pair():
    # drawing the pairs in blocks consumes the stream as the scalar loop
    # does, so every (n, p, seed) keeps its instance; n = 400 spans two
    # blocks, and one seed of it keeps the scalar oracle's time down
    for n in (1, 2, 5, 12, 24, 30, 100, 300, 400):
        for p in (0.0, 0.05, 0.25, 0.4, 1.0):
            for seed in range(4 if n < 400 else 1):
                w_max = 1 + 5 * seed
                assert ec.gnp(n, p, w_max, seed) == scalar_gnp(n, p, w_max, seed), (n, p, seed)


def test_gnp_memory_stays_linear():
    # the whole pair triangle of n = 4000 would take 8e6 doubles, about
    # 64 MB; one row at a time stays far below
    tracemalloc.start()
    try:
        g = ec.gnp(4000, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 0
    assert peak < 4 * 2 ** 20, peak


def test_generator_rejects_bad_params():
    with pytest.raises(ValueError):
        ec.gnp(0, 0.5)
    with pytest.raises(ValueError):
        ec.gnp(4, 1.5)
    with pytest.raises(ValueError):
        ec.star(3, w_max=0)
    with pytest.raises(ValueError):
        ec.gen_instance("grid", {"n": 4})


CANONICAL_TEXT = "p wvc 2 1\nv 0 1\nv 1 5\ne 0 1\n"


def test_parse_canonical_example():
    g = ec.parse_instance(CANONICAL_TEXT)
    assert g == ec.build_graph(2, [1, 5], [(0, 1)])


def test_serialize_parse_identity_on_canonical_text():
    assert ec.serialize_instance(ec.parse_instance(CANONICAL_TEXT)) == CANONICAL_TEXT


def test_parse_ignores_comments_and_blanks():
    text = "# instance\n\np wvc 2 1\n v 0 1\nv 1 5\n\n# edges\ne 0 1\n"
    assert ec.parse_instance(text) == ec.build_graph(2, [1, 5], [(0, 1)])


@pytest.mark.parametrize("text", [
    "v 0 1\n",                                # header missing
    "p wvc 2 1\nv 0 1\ne 0 1\n",              # missing weight line
    "p wvc 2 0\nv 0 1\nv 1 5\ne 0 1\n",       # edge count mismatch
    "p wvc 2 1\nv 0 1\nv 1 5\n",              # missing edge line
    "p wvc 2 1\nv 0 1\nv 1 0\ne 0 1\n",       # zero weight
    "p wvc 2 1\nv 0 1\nv 1 5\ne 0 0\n",       # self-loop
    "p wvc 2 1\nv 0 1\nv 1 5\ne 0 2\n",       # endpoint out of range
    "p wvc 2 2\nv 0 1\nv 1 5\ne 0 1\ne 1 0\n",  # duplicate edge
    "p wvc 2 1\nv 0 1\nv 0 5\ne 0 1\n",       # duplicate vertex index
    "p wvc 2 1\nv 0 one\nv 1 5\ne 0 1\n",     # malformed number
    "p wvc 2 1\nq 0 1\n",                     # unknown record
])
def test_parse_errors(text):
    with pytest.raises(ec.GraphFormatError):
        ec.parse_instance(text)


def test_round_trip_random_instances(tmp_path):
    for g in make_instances(25, 900, n_values=range(1, 10)):
        assert ec.parse_instance(ec.serialize_instance(g)) == g
    g = ec.gnp(7, 0.4, w_max=6, seed=1234)
    target = tmp_path / "inst.wvc"
    ec.save_instance(g, str(target))
    assert ec.load_instance(str(target)) == g
