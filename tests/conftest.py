"""Shared helpers: deterministic instance pools and tiny independent oracles.

The tiny oracles deliberately avoid the library code paths they check:
fractional covers are enumerated over the half-integral grid with plain
itertools, optimal covers by scanning all subsets, and box coordinates by
exact Fraction powers. The cold LP oracle runs Dinic (``evocover.maxflow``),
a max-flow algorithm the library's ``DoubleCover`` does not share.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

import evocover as ec
from evocover.maxflow import MaxFlow


def make_instances(count, seed0, n_values, p_values=(0.3, 0.6), w_values=(1, 8),
                   require_edges=False):
    """Deterministic pool of gnp instances cycling the parameter grids."""
    grid = itertools.cycle(itertools.product(n_values, p_values, w_values))
    out = []
    seed = seed0
    while len(out) < count:
        n, p, w_max = next(grid)
        g = ec.gnp(n, p, w_max=w_max, seed=seed)
        seed += 1
        if require_edges and g.m == 0:
            continue
        out.append(g)
    return out


def random_genotype(n, rng):
    return (rng.random(n) < 0.5).astype(np.uint8)


def np_rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def tiny_lp_value2(num_vertices, edges, weights):
    """Minimum doubled fractional cover value over {0, 1/2, 1}^k by enumeration."""
    best = None
    for a in itertools.product((0, 1, 2), repeat=num_vertices):
        if all(a[u] + a[v] >= 2 for u, v in edges):
            val = sum(a[i] * weights[i] for i in range(num_vertices))
            if best is None or val < best:
                best = val
    return best if best is not None else 0


def dinic_cover_lp(num_vertices, edges, weights):
    """Doubled optimal fractional cover by cold Dinic on the double cover.

    Source -> v_L and v_R -> sink carry w(v), each edge adds the unbounded
    arcs u_L -> v_R and v_L -> u_R; assign2 is read off the source side of
    the minimum cut. Independent of the library's ``DoubleCover``.
    """
    edges = list(edges)
    n = num_vertices
    if not edges:
        return ec.HalfIntegralLP(0, (0,) * n)
    # nodes: 0 = source, 1 = sink, 2+i = left copy, 2+n+i = right copy
    net = MaxFlow(2 + 2 * n)
    unbounded = sum(int(weights[i]) for i in range(n)) + 1
    for i in range(n):
        w = int(weights[i])
        net.add_arc(0, 2 + i, w)
        net.add_arc(2 + n + i, 1, w)
    for u, v in edges:
        net.add_arc(2 + u, 2 + n + v, unbounded)
        net.add_arc(2 + v, 2 + n + u, unbounded)
    value2 = net.max_flow(0, 1)
    reach = net.source_side(0)
    assign2 = tuple((0 if reach[2 + i] else 1) + (1 if reach[2 + n + i] else 0)
                    for i in range(n))
    return ec.HalfIntegralLP(value2, assign2)


def dinic_lp2(g, x):
    """2 * LP of the residual graph of the selection x, by ``dinic_cover_lp``."""
    rg = ec.residual(g, x)
    return dinic_cover_lp(rg.num_vertices, rg.edges, [g.weights[i] for i in rg.kept]).value2


def scipy_lp2(g, x):
    """2 * LP of the residual graph of the selection x, by SciPy's cold
    max-flow on the double cover; independent of both Dinic and ``DoubleCover``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    rg = ec.residual(g, x)
    k = rg.num_vertices
    big = sum(g.weights) + 1
    rows, cols, caps = [], [], []
    for i, v in enumerate(rg.kept):  # 0 = source, 1 = sink, 2+i left, 2+k+i right
        rows += [0, 2 + k + i]
        cols += [2 + i, 1]
        caps += [g.weights[v], g.weights[v]]
    for u, v in rg.edges:
        rows += [2 + u, 2 + v]
        cols += [2 + k + v, 2 + k + u]
        caps += [big, big]
    mat = csr_matrix((np.asarray(caps, dtype=np.int32), (rows, cols)), shape=(2 + 2 * k,) * 2)
    return int(maximum_flow(mat, 0, 1).flow_value)


def tiny_opt(g):
    """Minimum-weight cover by scanning all subsets; lexicographically
    smallest witness among ties."""
    best = None
    for bits in itertools.product((0, 1), repeat=g.n):
        if all(bits[u] or bits[v] for u, v in g.edges):
            c = sum(w for w, b in zip(g.weights, bits) if b)
            if best is None or c < best[0] or (c == best[0] and bits < best[1]):
                best = (c, bits)
    return best


def tiny_box_coord(value: Fraction, n: int) -> int:
    """Smallest k with (1 + 1/(2n))^k >= 1 + value, by exact Fraction powers."""
    base = 1 + Fraction(1, 2 * n)
    target = 1 + value
    k = 0
    power = Fraction(1)
    while power < target:
        power *= base
        k += 1
    return k


def all_graphs_up_to(n_max, weights_for):
    """Every labeled graph on 1..n_max vertices, weights via weights_for(n)."""
    for n in range(1, n_max + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for picks in itertools.product((False, True), repeat=len(pairs)):
            edges = [e for e, keep in zip(pairs, picks) if keep]
            yield ec.build_graph(n, weights_for(n), edges)


@pytest.fixture
def triangle():
    return ec.build_graph(3, [1, 1, 1], [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def single_edge_15():
    return ec.build_graph(2, [1, 5], [(0, 1)])


@pytest.fixture
def weighted_star():
    # center weight 2, three unit leaves
    return ec.build_graph(4, [2, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
