"""Dinic max-flow for integer capacities on small dense networks.

Shortest-augmenting-path (level graph + blocking flow) discipline; exact
integer arithmetic throughout. After ``max_flow`` the residual network can
be queried for the canonical source-side minimum cut, which is the same set
for every maximum flow.
"""

from __future__ import annotations

from collections import deque


class MaxFlow:
    """Arc-list flow network. Arcs are added in pairs (forward + reverse)."""

    __slots__ = ("num_nodes", "_head", "_to", "_cap")

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self._head: list[list[int]] = [[] for _ in range(num_nodes)]
        self._to: list[int] = []
        self._cap: list[int] = []

    def add_arc(self, u: int, v: int, capacity: int) -> int:
        """Add a directed arc u -> v; returns its arc index (reverse is index^1)."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        to, cap, head = self._to, self._cap, self._head
        idx = len(to)
        head[u].append(idx)
        to.append(v)
        cap.append(capacity)
        head[v].append(idx + 1)
        to.append(u)
        cap.append(0)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        head, to, cap = self._head, self._to, self._cap
        n = self.num_nodes
        total = 0
        while True:
            level = [-1] * n
            level[s] = 0
            queue = deque([s])
            # Every node below t's level is labelled once t is, and no node
            # at or above it lies on a shortest path, so the search stops there.
            while queue and level[t] < 0:
                u = queue.popleft()
                lu = level[u] + 1
                for e in head[u]:
                    v = to[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = lu
                        queue.append(v)
            if level[t] < 0:
                return total
            it = [0] * n
            stack = [s]
            arcs: list[int] = []
            while stack:
                u = stack[-1]
                if u == t:
                    aug = min(cap[e] for e in arcs)
                    for e in arcs:
                        cap[e] -= aug
                        cap[e ^ 1] += aug
                    total += aug
                    i = 0
                    while cap[arcs[i]] > 0:
                        i += 1
                    del arcs[i:]
                    del stack[i + 1:]
                    continue
                hu = head[u]
                i, k = it[u], len(hu)
                lv = level[u] + 1
                while i < k:
                    e = hu[i]
                    if cap[e] > 0 and level[to[e]] == lv:
                        break
                    i += 1
                it[u] = i
                if i < k:
                    stack.append(to[e])
                    arcs.append(e)
                else:
                    level[u] = -1
                    stack.pop()
                    if arcs:
                        arcs.pop()

    def source_side(self, s: int) -> list[bool]:
        """Nodes reachable from s in the residual network (call after max_flow)."""
        head, to, cap = self._head, self._to, self._cap
        reach = [False] * self.num_nodes
        reach[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in head[u]:
                v = to[e]
                if cap[e] > 0 and not reach[v]:
                    reach[v] = True
                    queue.append(v)
        return reach
