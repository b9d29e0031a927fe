"""Exact minimum-weight vertex cover for desk-scale instances.

Two routes with identical contracts: a vectorized scan of all 2^n selections
(n <= 16) and LP-bounded branch and bound (n <= 32), which edits one warm
``DoubleCover`` flow along its depth-first search. Ties between optimal
covers break to the lexicographically smallest witness bitstring, and both
routes honor the same tie-break so their results are comparable verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph
# solve_cover_lp is unused here but stays importable: the benchmark's tracer
# (bench/tracing.py) wraps exact.solve_cover_lp by name.
from .lp import DoubleCover, InstanceTooLargeError, solve_cover_lp  # noqa: F401

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

    Branches on the vertex maximizing weight * unchosen-degree: either it is
    chosen, or it is excluded and all its unchosen neighbors are chosen.
    Backtracking unchooses them. A node is pruned when cost-so-far plus the
    LP lower bound of the residual strictly exceeds the incumbent, which
    preserves the exhaustive oracle's lexicographic tie-break among
    equal-cost optima. The bounds come from one ``DoubleCover``, edited at
    each node from the selection it last solved.
    """
    n = g.n
    if n > BRANCH_BOUND_LIMIT:
        raise InstanceTooLargeError(
            f"branch and bound limited to n <= {BRANCH_BOUND_LIMIT}, got {n}")
    weights = g.weights
    best_cost: int | None = None
    best_bits: tuple[int, ...] = ()
    nodes = 0
    cover = DoubleCover(g)
    nbrs = [[y for _, y in arcs] for arcs in cover._out]
    chosen = [0] * n
    solved = [0] * n  # selection of the cover's current flow

    def search(acc: int) -> None:
        nonlocal best_cost, best_bits, nodes
        nodes += 1
        if nodes > node_cap:
            raise SearchBudgetExceeded(
                f"node budget {node_cap} exhausted (n={n}, m={g.m})")
        v, top = -1, 0
        for u in range(n):  # the first u of the largest key wins the tie
            if not chosen[u]:
                key = weights[u] * sum(1 for y in nbrs[u] if not chosen[y])
                if key > top:
                    v, top = u, key
        if v < 0:  # no edge is left uncovered
            bits = tuple(chosen)  # all of length n: tuple order is lexicographic
            if best_cost is None or acc < best_cost or (acc == best_cost and bits < best_bits):
                best_cost, best_bits = acc, bits
            return
        edits = [u for u in range(n) if chosen[u] != solved[u]]
        solved[:] = chosen
        bound = acc + (cover.solve(chosen, edits) + 1) // 2
        if best_cost is not None and bound > best_cost:
            return
        # include v
        chosen[v] = 1
        search(acc + weights[v])
        chosen[v] = 0
        # exclude v: every unchosen neighbor is chosen
        forced = [u for u in nbrs[v] if not chosen[u]]
        for u in forced:
            chosen[u] = 1
        search(acc + sum(weights[u] for u in forced))
        for u in forced:
            chosen[u] = 0

    search(0)
    assert best_cost is not None
    return ExactResult(opt_cost=best_cost, witness=best_bits)
