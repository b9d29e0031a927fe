"""Exact minimum-weight vertex cover for desk-scale instances.

Two routes with identical contracts: a vectorized scan of all 2^n selections
(n <= 16) and LP-bounded branch and bound (n <= 32). Ties between optimal
covers break to the lexicographically smallest witness bitstring, and both
routes honor the same tie-break so their results are comparable verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph
from .lp import InstanceTooLargeError, solve_cover_lp

EXHAUSTIVE_LIMIT = 16
BRANCH_BOUND_LIMIT = 32
DEFAULT_NODE_CAP = 1_000_000


class SearchBudgetExceeded(RuntimeError):
    """Branch-and-bound node budget ran out before optimality was proven."""


@dataclass(frozen=True)
class ExactResult:
    opt_cost: int
    witness: tuple[int, ...]


def opt_exhaustive(g: WeightedGraph) -> ExactResult:
    """Scan all 2^n selections; n <= 16."""
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
    return ExactResult(opt_cost=opt, witness=witness)


def opt_branch_bound(g: WeightedGraph, node_cap: int = DEFAULT_NODE_CAP) -> ExactResult:
    """LP-bounded branch and bound; n <= 32.

    Branches on the vertex maximizing weight * uncovered-degree: either it is
    chosen, or it is excluded and all its uncovered neighbors are forced in.
    A node is pruned when cost-so-far plus the LP lower bound of the residual
    strictly exceeds the incumbent, which preserves the exhaustive oracle's
    lexicographic tie-break among equal-cost optima.
    """
    n = g.n
    if n > BRANCH_BOUND_LIMIT:
        raise InstanceTooLargeError(
            f"branch and bound limited to n <= {BRANCH_BOUND_LIMIT}, got {n}")
    weights = g.weights
    best_cost: int | None = None
    best_bits: tuple[int, ...] = ()
    nodes = 0

    adj0: list[set[int]] = [set() for _ in range(n)]
    for u, v in g.edges:
        adj0[u].add(v)
        adj0[v].add(u)

    def search(adj: list[set[int]], chosen: list[int], acc: int) -> None:
        nonlocal best_cost, best_bits, nodes
        nodes += 1
        if nodes > node_cap:
            raise SearchBudgetExceeded(
                f"node budget {node_cap} exhausted (n={n}, m={g.m})")
        edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
        if not edges:
            bits = tuple(chosen)  # all of length n: tuple order is lexicographic
            if best_cost is None or acc < best_cost or (acc == best_cost and bits < best_bits):
                best_cost, best_bits = acc, bits
            return
        lp = solve_cover_lp(n, edges, weights)
        bound = acc + (lp.value2 + 1) // 2
        if best_cost is not None and bound > best_cost:
            return
        v = max((u for u in range(n) if adj[u]),
                key=lambda u: (weights[u] * len(adj[u]), -u))
        # include v
        adj_in = [s - {v} if v in s else set(s) for s in adj]
        adj_in[v] = set()
        chosen[v] = 1
        search(adj_in, chosen, acc + weights[v])
        chosen[v] = 0
        # exclude v: every uncovered neighbor is forced into the cover
        forced = sorted(adj[v])
        removed = set(forced) | {v}
        adj_ex = [s - removed if s & removed else set(s) for s in adj]
        for u in removed:
            adj_ex[u] = set()
        for u in forced:
            chosen[u] = 1
        search(adj_ex, chosen, acc + sum(weights[u] for u in forced))
        for u in forced:
            chosen[u] = 0

    search(adj0, [0] * n, 0)
    assert best_cost is not None
    return ExactResult(opt_cost=best_cost, witness=best_bits)
