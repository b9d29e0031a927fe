"""Exact fractional vertex cover of a (residual) graph, in half-units.

All LP values are handled as ``value2 = 2 * LP`` so the module never touches
floating point: optimal fractional covers are half-integral, which makes the
doubled assignment an integer vector in {0, 1, 2}.

The solver reduces to max-flow on the bipartite double cover: source -> v_L
with capacity w(v), v_R -> sink with capacity w(v), and for every edge (u, v)
the unbounded arcs u_L -> v_R and v_L -> u_R. The max-flow value equals
2 * LP, and the canonical source-side minimum cut yields a deterministic
optimal half-integral assignment. ``solve_cover_lp`` solves it cold with
Dinic, and is the tests' oracle; ``DoubleCover`` solves it warm for the
Evaluator on a three-list flow instead of a general network.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import ResidualGraph, WeightedGraph, as_genotype, residual
from .maxflow import MaxFlow

BRUTE_FORCE_LIMIT = 14


class InstanceTooLargeError(ValueError):
    """Instance exceeds the stated size limit of an exact procedure."""


@dataclass(frozen=True)
class HalfIntegralLP:
    """Doubled optimal fractional cover: assign2[i] = 2 * y_i in {0, 1, 2}."""

    value2: int
    assign2: tuple[int, ...]


def solve_cover_lp(num_vertices: int,
                   edges: Iterable[tuple[int, int]],
                   weights: Sequence[int]) -> HalfIntegralLP:
    """Optimal fractional vertex cover of an explicit graph, doubled.

    Isolated vertices get assign2 = 0. Deterministic: the assignment is read
    off the source-side-minimal cut, which is unique.
    """
    edges = list(edges)
    if not edges:
        return HalfIntegralLP(0, (0,) * num_vertices)
    # nodes: 0 = source, 1 = sink, 2+i = left copy, 2+n+i = right copy
    n = num_vertices
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
    assign2 = tuple(
        (0 if reach[2 + i] else 1) + (1 if reach[2 + n + i] else 0)
        for i in range(n)
    )
    return HalfIntegralLP(value2, assign2)


class DoubleCover:
    """The double cover of one whole graph, re-solved from its last flow.

    Every s-t path has three arcs, s -> x_L -> y_R -> t, so the flow is kept
    as three lists: the flow on each edge arc x_L -> y_R, each vertex's spare
    supply (residual of s -> x_L) and spare demand (residual of y_R -> t). A
    selected vertex has no supply, demand or flow, so the max-flow value is
    2 * LP of the residual graph. A change of selection edits the flow:

    * selecting v cancels the flow on v's edge arcs, returning each unit to
      the far endpoint's supply or demand, then zeroes v's supply and demand;
    * deselecting v restores w(v) to both; the flow stays valid.

    Then, in rounds (the flow reuse of dynamic graph cuts), a breadth-first
    search from every x_L with spare supply moves L -> R over edge arcs to
    unselected y and R -> L back over arcs carrying flow, and each reached
    y_R with spare demand is augmented along its tree path by the path's
    bottleneck at that time, until a search reaches no such y_R. The
    max-flow value does not depend on the starting flow, so the result is
    the cold Dinic solver's (``solve_cover_lp``). A solve given a ``limit``
    may stop early: every flow of the rounds is valid, so its value is a
    lower bound on 2 * LP.
    """

    __slots__ = ("bits", "value2", "_w", "_flow", "_sup", "_dem", "_tail", "_head",
                 "_out", "_in")

    def __init__(self, g: WeightedGraph):
        n = g.n
        self._w = list(g.weights)
        # edge arc a runs _tail[a]_L -> _head[a]_R; both directions of every edge
        self._tail = [x for u, v in g.edges for x in (u, v)]
        self._head = [y for u, v in g.edges for y in (v, u)]
        # x -> (a, y); the Evaluator also walks these as the neighbour lists
        self._out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self._in: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # y -> (a, x)
        for a, (x, y) in enumerate(zip(self._tail, self._head)):
            self._out[x].append((a, y))
            self._in[y].append((a, x))
        self._flow = [0] * len(self._tail)
        self._sup = list(self._w)
        self._dem = list(self._w)
        self.bits = np.zeros(n, dtype=np.uint8)  # selection of the current flow
        self.value2 = 0  # value of the current flow

    def solve(self, bits: np.ndarray, limit: int | None = None,
              edits: list[int] | None = None, sel: list[int] | None = None) -> int:
        """2 * LP of the residual graph of ``bits``, augmenting from the current flow.

        With a ``limit``, returns as soon as the flow value reaches it: a
        value below ``limit`` is exact, one at or above it lies between
        ``limit`` and 2 * LP. ``bits`` is kept as the current selection and
        must not be mutated. A caller that knows them may pass ``edits``, the
        positions where ``bits`` differs from the current selection, and
        ``sel``, ``bits.tolist()``; otherwise both are computed here.
        """
        flow, sup, dem, w = self._flow, self._sup, self._dem, self._w
        value = self.value2
        if sel is None:
            sel = bits.tolist()
        if edits is None:
            edits = np.flatnonzero(self.bits != bits).tolist()
        for v in edits:
            if sel[v]:
                for a, y in self._out[v]:  # paths s -> v_L -> y_R -> t
                    f = flow[a]
                    if f:
                        flow[a] = 0
                        dem[y] += f
                for a, x in self._in[v]:  # paths s -> x_L -> v_R -> t
                    f = flow[a]
                    if f:
                        flow[a] = 0
                        sup[x] += f
                value -= 2 * w[v] - sup[v] - dem[v]
                sup[v] = dem[v] = 0
            else:
                sup[v] = dem[v] = w[v]
        self.bits = bits
        need = None if limit is None else limit - value
        if need is not None and need <= 0:  # the cancelled flow reaches the limit
            self.value2 = value
            return value
        self.value2 = value + self._augment(sel, need)
        return self.value2

    def _augment(self, sel: list[int], need: int | None) -> int:
        """Augment the current flow to a maximum one, or until ``need`` units
        are added; returns the flow added."""
        flow, sup, dem, tail, head = self._flow, self._sup, self._dem, self._tail, self._head
        out, inn = self._out, self._in
        n = len(sup)
        added = 0
        while True:
            via_l = [-2] * n  # arc that reached x_L, -1 for a source
            via_r = [-1] * n  # arc that reached y_R
            front = [x for x in range(n) if sup[x]]
            for x in front:
                via_l[x] = -1
            sinks = []
            while front:
                reached = []
                for x in front:
                    for a, y in out[x]:
                        if via_r[y] < 0 and not sel[y]:
                            via_r[y] = a
                            reached.append(y)
                front = []
                for y in reached:
                    if dem[y]:
                        sinks.append(y)
                    for a, x in inn[y]:
                        if flow[a] and via_l[x] == -2:
                            via_l[x] = a
                            front.append(x)
            if not sinks:
                return added
            for y in sinks:
                b = dem[y]
                x = tail[via_r[y]]
                while b and via_l[x] >= 0:
                    a = via_l[x]
                    if flow[a] < b:
                        b = flow[a]
                    x = tail[via_r[head[a]]]
                if sup[x] < b:
                    b = sup[x]
                if not b:
                    continue
                dem[y] -= b
                x = tail[via_r[y]]
                flow[via_r[y]] += b
                while via_l[x] >= 0:
                    a = via_l[x]
                    flow[a] -= b
                    a = via_r[head[a]]
                    flow[a] += b
                    x = tail[a]
                sup[x] -= b
                added += b
                if need is not None and added >= need:
                    return added

    def state(self) -> tuple:
        """The current selection and flow value, and copies of the flow lists."""
        return self.bits, self.value2, self._flow[:], self._sup[:], self._dem[:]

    def load(self, state: tuple) -> None:
        """Make a state returned by ``state`` current again."""
        self.bits, self.value2, flow, sup, dem = state
        self._flow[:] = flow
        self._sup[:] = sup
        self._dem[:] = dem


def solve_lp(rg: ResidualGraph, weights: Sequence[int]) -> HalfIntegralLP:
    """Exact LP of a residual graph; ``weights`` are the original graph's.

    The returned assignment is indexed by residual vertex (see rg.kept).
    """
    w = [weights[i] for i in rg.kept]
    return solve_cover_lp(rg.num_vertices, rg.edges, w)


def lp_value2(g: WeightedGraph, x: Sequence[int] | np.ndarray) -> int:
    """2 * LP(x): doubled optimal fractional cover value of the residual graph."""
    return solve_lp(residual(g, x), g.weights).value2


def _trit_block(width: int) -> np.ndarray:
    """All {0,1,2}^width rows in lexicographic order, first column most significant."""
    grids = np.meshgrid(*([np.arange(3, dtype=np.int8)] * width), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, width)


def brute_force_lp(rg: ResidualGraph, weights: Sequence[int]) -> HalfIntegralLP:
    """Exhaustive minimum over the half-integral grid {0, 1/2, 1}^k.

    Restricting to the grid is lossless because some optimal fractional cover
    is always half-integral. Ties break to the lexicographically smallest
    doubled assignment. Limited to residual graphs with <= 14 vertices.
    """
    k = rg.num_vertices
    if k > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"brute-force LP limited to {BRUTE_FORCE_LIMIT} residual vertices, got {k}")
    if k == 0:
        return HalfIntegralLP(0, ())
    w = np.asarray([weights[i] for i in rg.kept], dtype=np.int64)
    lo = min(k, 9)
    hi = k - lo
    suffix = _trit_block(lo)
    suffix_cost = suffix.astype(np.int64) @ w[hi:]
    pre_edges = [(u, v) for u, v in rg.edges if u < hi and v < hi]
    mixed_edges = [(u, v) for u, v in rg.edges if (u < hi) != (v < hi)]
    suf_edges = [(u, v) for u, v in rg.edges if u >= hi and v >= hi]
    suf_feasible = np.ones(len(suffix), dtype=bool)
    for u, v in suf_edges:
        suf_feasible &= (suffix[:, u - hi] + suffix[:, v - hi]) >= 2
    large = int(2 * w.sum()) + 1
    best_val: int | None = None
    best_assign: tuple[int, ...] | None = None
    for prefix in itertools.product((0, 1, 2), repeat=hi):
        if any(prefix[u] + prefix[v] < 2 for u, v in pre_edges):
            continue
        feasible = suf_feasible.copy()
        for u, v in mixed_edges:
            if u < hi:
                feasible &= (prefix[u] + suffix[:, v - hi]) >= 2
            else:
                feasible &= (suffix[:, u - hi] + prefix[v]) >= 2
        if not feasible.any():
            continue
        pre_cost = int(sum(prefix[i] * int(w[i]) for i in range(hi)))
        vals = np.where(feasible, pre_cost + suffix_cost, large)
        idx = int(np.argmin(vals))
        val = int(vals[idx])
        if best_val is None or val < best_val:
            best_val = val
            best_assign = tuple(prefix) + tuple(int(t) for t in suffix[idx])
    assert best_val is not None  # y = all-ones is always feasible
    return HalfIntegralLP(best_val, best_assign)
