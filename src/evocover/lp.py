"""Exact fractional vertex cover of a (residual) graph, in half-units.

All LP values are handled as ``value2 = 2 * LP`` so the module never touches
floating point: optimal fractional covers are half-integral, which makes the
doubled assignment an integer vector in {0, 1, 2}.

The solver reduces to max-flow on the bipartite double cover: source -> v_L
with capacity w(v), v_R -> sink with capacity w(v), and for every edge (u, v)
the unbounded arcs u_L -> v_R and v_L -> u_R. The max-flow value equals
2 * LP, and the canonical source-side minimum cut yields a deterministic
optimal half-integral assignment.
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
    """The double-cover network of one whole graph, re-solved from its last flow.

    Built once per graph: s -> v_L and v_R -> t at capacity w(v) for every
    vertex, and the unbounded u_L -> v_R and v_L -> u_R for every edge. A
    selected vertex has its terminal arcs and edge arcs at capacity 0, so the
    max-flow value is 2 * LP of the residual graph (closing the edge arcs
    only keeps the searches out of dead ends). Every s-t path has three arcs
    (s -> u_L -> v_R -> t), so the flow on an edge arc is the flow of one
    path, and a change of selection is a local edit of the current flow:

    * selecting v cancels the flow on the edge arcs at v_L and v_R, returning
      each unit to the far endpoint's terminal arc, and closes v's arcs;
    * deselecting v reopens its terminal arcs at w(v) and its edge arcs to
      unselected neighbours; the flow stays valid.

    Dinic then augments from the edited flow (the flow reuse of dynamic graph
    cuts). The max-flow value does not depend on the flow it starts from, so
    the result is the cold solver's.
    """

    __slots__ = ("net", "bits", "value2", "_w", "_unbounded", "_src", "_snk", "_out", "_in")

    def __init__(self, g: WeightedGraph):
        n = g.n
        net = MaxFlow(2 + 2 * n)
        # nodes: 0 = source, 1 = sink, 2+i = left copy, 2+n+i = right copy
        self._w = g.weights
        self._src = [net.add_arc(0, 2 + i, w) for i, w in enumerate(g.weights)]
        self._snk = [net.add_arc(2 + n + i, 1, w) for i, w in enumerate(g.weights)]
        self._out: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # v_L -> u_R, u
        self._in: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # u_L -> v_R, u
        unbounded = self._unbounded = g.total_weight + 1
        for u, v in g.edges:
            a = net.add_arc(2 + u, 2 + n + v, unbounded)
            b = net.add_arc(2 + v, 2 + n + u, unbounded)
            self._out[u].append((a, v))
            self._in[v].append((a, u))
            self._out[v].append((b, u))
            self._in[u].append((b, v))
        self.net = net
        self.bits = np.zeros(n, dtype=np.uint8)  # selection of the current flow
        self.value2 = 0  # value of the current flow

    def _close(self, v: int) -> int:
        """Cancel the paths through v and close its arcs; returns the flow removed."""
        cap, src, snk = self.net._cap, self._src, self._snk
        for e, u in self._out[v]:  # paths s -> v_L -> u_R -> t
            f = cap[e ^ 1]
            if f:
                a = snk[u]
                cap[a] += f
                cap[a ^ 1] -= f
            cap[e] = cap[e ^ 1] = 0
        for e, u in self._in[v]:  # paths s -> u_L -> v_R -> t
            f = cap[e ^ 1]
            if f:
                a = src[u]
                cap[a] += f
                cap[a ^ 1] -= f
            cap[e] = cap[e ^ 1] = 0
        a, b = src[v], snk[v]
        removed = cap[a ^ 1] + cap[b ^ 1]
        cap[a] = cap[a ^ 1] = cap[b] = cap[b ^ 1] = 0
        return removed

    def solve(self, bits: np.ndarray) -> int:
        """2 * LP of the residual graph of ``bits``, augmenting from the current flow.

        ``bits`` is kept as the current selection and must not be mutated.
        """
        cap, w, unbounded = self.net._cap, self._w, self._unbounded
        value = self.value2
        for v in np.flatnonzero(self.bits != bits).tolist():
            if bits[v]:
                value -= self._close(v)
            else:
                cap[self._src[v]] = cap[self._snk[v]] = w[v]
                for e, u in self._out[v]:
                    if not bits[u]:
                        cap[e] = unbounded
                for e, u in self._in[v]:
                    if not bits[u]:
                        cap[e] = unbounded
        self.bits = bits
        self.value2 = value + self.net.max_flow(0, 1)
        return self.value2

    def state(self) -> tuple[np.ndarray, int, list[int]]:
        """The current selection and flow value, and a copy of the residual capacities."""
        return self.bits, self.value2, list(self.net._cap)

    def load(self, state: tuple[np.ndarray, int, list[int]]) -> None:
        """Make a state returned by ``state`` current again."""
        self.bits, self.value2, caps = state
        self.net._cap[:] = caps


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
