"""Shared helpers: deterministic instance pools and tiny independent oracles.

The tiny oracles deliberately avoid the library code paths they check:
fractional covers are enumerated over the half-integral grid with plain
itertools, optimal covers by scanning all subsets, and box coordinates by
exact Fraction powers. The cold LP oracle runs Dinic (``evocover.maxflow``),
a max-flow algorithm the library's ``DoubleCover`` does not share. The
dominance formulas, the two mutation operators, ``is_cover`` and the
exhaustive OPT scan live here, not in the package, as do the archive rules
written as plain list code that ``reference_loop`` runs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

import evocover as ec
from evocover.lp import InstanceTooLargeError
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


def code_of(bits):
    """The code of a genotype: sum(b_v 2^v) over its bits b_v."""
    return sum(int(b) << v for v, b in enumerate(bits))


def bits_of(code, n):
    """The 0/1 bits b_0 ... b_{n-1} of the genotype with code ``code``."""
    return np.array([code >> v & 1 for v in range(n)], dtype=np.uint8)


def np_rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def flow_copy(cover):
    """The current flow of a ``DoubleCover`` as its ``state`` gives it, with
    the lists copied: ``state`` hands over the live lists, so only a copy
    shows a later write into them."""
    return cover.value2, cover._flow[:], cover._sup[:], cover._dem[:], cover._box


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def scalar_gnp(n, p, w_max=1, seed=0):
    """G(n, p) drawn as the generator once did: one scalar uniform per pair
    (i, j), i < j, in row-major order, after the weights."""
    rng = np_rng(seed)
    weights = rng.integers(1, w_max, size=n, endpoint=True).tolist()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return ec.build_graph(n, weights, edges)


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


def dominates_weak(a, b):
    """Componentwise <= on (cost, lp2)."""
    return a[0] <= b[0] and a[1] <= b[1]


def dominates_strong(a, b):
    """Weak dominance plus inequality somewhere."""
    return a[0] <= b[0] and a[1] <= b[1] and a != b


def is_cover(g, x):
    """True iff every edge has a selected endpoint."""
    sel = ec.as_genotype(x, g.n).view(np.bool_)
    tails, heads = g._arcs
    return bool((sel[tails] | sel[heads]).all())


def focused_pvec(g, bits):
    """Flip probabilities of the focused mutation branch on the 0/1 genotype
    ``bits``: 1/n, and 1/2 at both ends of every edge it leaves uncovered."""
    pvec = [1.0 / g.n] * g.n
    for u, v in g.edges:
        if not (bits[u] or bits[v]):
            pvec[u] = pvec[v] = 0.5
    return np.array(pvec)


def flip_positions(rng, n, focused=None):
    """Ascending positions to flip, each with probability 1/n; or, given
    ``focused`` and if a fair coin picks it, with the probabilities
    ``focused()``. Drawn as ``run`` draws a row after its parent pick: the
    coin with ``uniform()``, then ``uniforms(n)``."""
    if focused is not None and rng.uniform() < 0.5:
        return np.flatnonzero(rng.uniforms(n) < focused()).tolist()
    return np.flatnonzero(rng.uniforms(n) < 1.0 / n).tolist()


def standard_mutation(x, rng):
    """Flip each bit independently with probability 1/n, drawn as ``run``
    draws a plain mutation."""
    bits = ec.as_genotype(x, len(x)).copy()
    bits[flip_positions(rng, bits.size)] ^= 1
    return bits


def alternative_mutation(g, x, rng):
    """Uncovered-incidence mutation, drawn as ``run`` draws it: a fair coin
    picks plain 1/n flips, or a focused step where every vertex incident to
    an uncovered edge flips with probability 1/2 and all others with 1/n.
    Selected vertices have no uncovered edges, so they always fall in the
    1/n class."""
    bits = ec.as_genotype(x, g.n).copy()
    bits[flip_positions(rng, g.n, lambda: focused_pvec(g, bits))] ^= 1
    return bits


EXHAUSTIVE_LIMIT = 16


def opt_exhaustive(g):
    """Minimum-weight cover by a vectorized scan of all 2^n selections, n <=
    16; the lexicographically smallest witness among ties, as
    ``opt_branch_bound`` breaks them."""
    n = g.n
    if n > EXHAUSTIVE_LIMIT:
        raise InstanceTooLargeError(
            f"exhaustive oracle limited to n <= {EXHAUSTIVE_LIMIT}, got {n}")
    masks = np.arange(1 << n, dtype=np.uint32)
    feasible = np.ones(masks.size, dtype=bool)
    for u, v in g.edges:
        feasible &= (masks & ((1 << u) | (1 << v))) != 0
    costs = np.zeros(masks.size, dtype=np.int64)
    lexkey = np.zeros(masks.size, dtype=np.uint32)
    for i, w in enumerate(g.weights):
        bit = ((masks >> i) & 1).astype(np.int64)
        costs += w * bit
        lexkey |= (bit << (n - 1 - i)).astype(np.uint32)
    opt = int(costs[feasible].min())
    tied = np.flatnonzero(feasible & (costs == opt))
    mask = int(tied[np.argmin(lexkey[tied])])
    witness = tuple((mask >> i) & 1 for i in range(n))
    return ec.ExactResult(opt_cost=opt, witness=witness)


def dpbea_reference_insert(groups, cand):
    """The dpbea group rule on a dict of groups, written apart from the archive."""
    grp = groups.get(cand.ones, [])
    if any(m is cand for m in grp):
        return False
    pool = grp + [cand]
    min1 = min(pool, key=lambda y: 2 * y.cost + y.lp2)  # min keeps the first: incumbents
    min2 = min(pool, key=lambda y: y.cost + y.lp2)
    new = [min1] if min2 is min1 else [min1, min2]
    if grp and new[0] is grp[0] and new[-1] is grp[-1]:
        return False
    groups[cand.ones] = new
    return any(m is cand for m in new)


def front_reference_insert(front, cand, n):
    """gsemo's archive rule (n None) or demo's, with boxes of ratio
    1 + 1/(2n), on a list of members, written apart from the archives."""
    def weakly(a, b):  # a weakly dominates b
        return a.cost <= b.cost and a.lp2 <= b.lp2

    if n is None:
        if any(weakly(m, cand) for m in front):
            return False
        kept = [m for m in front if not weakly(cand, m)]
    else:
        box = ec.box_index(cand.fitness, n)
        mates = [m for m in front if ec.box_index(m.fitness, n) == box]
        if any(weakly(m, cand) and m.fitness != cand.fitness for m in front):
            return False  # strongly dominated
        if any(m.cost + m.lp2 <= cand.cost + cand.lp2 for m in mates):
            return False  # lost the box tie
        kept = [m for m in front if not weakly(cand, m) and m not in mates]
    front[:] = sorted(kept + [cand], key=lambda m: m.cost)
    return True


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
