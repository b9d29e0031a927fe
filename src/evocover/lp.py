"""Exact fractional vertex cover of a (residual) graph, in half-units.

All LP values are handled as ``value2 = 2 * LP`` so the module never touches
floating point: optimal fractional covers are half-integral, which makes the
doubled assignment an integer vector in {0, 1, 2}.

The solver reduces to max-flow on the bipartite double cover: source -> v_L
with capacity w(v), v_R -> sink with capacity w(v), and for every edge (u, v)
the unbounded arcs u_L -> v_R and v_L -> u_R. The max-flow value equals
2 * LP, and the canonical source-side minimum cut yields a deterministic
optimal half-integral assignment. ``DoubleCover`` is the one max-flow
solver: it keeps the flow as three lists instead of a general network. The
Evaluator and branch and bound each edit one warm flow; ``solve_cover_lp``
(behind ``solve_lp``, ``lp_value2`` and the CLI) solves once from the zero
flow and reads the cut off the final search round.

A maximum flow also carries an optimal doubled cover, the dual
certificate. A warm solve of a few edits edits that cover into an upper
bound, searches only near the edit, and stops when the flow meets the
bound; it falls back to the global search rounds otherwise.
"""

import itertools
import operator
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .graph import ResidualGraph, WeightedGraph, residual

BRUTE_FORCE_LIMIT = 14
_UNSELECTED = bytes.maketrans(b"\0\1", b"\1\0")  # a 0/1 key's complement


class InstanceTooLargeError(ValueError):
    """Instance exceeds the stated size limit of an exact procedure."""


class HalfIntegralLP(NamedTuple):
    """Doubled optimal fractional cover: assign2[i] = 2 * y_i in {0, 1, 2}."""

    value2: int
    assign2: tuple[int, ...]


class DoubleCover:
    """The double cover of one whole graph, re-solved from its last flow.

    Every s-t path has three arcs, s -> x_L -> y_R -> t, so the flow is kept
    as three lists: the flow on each edge arc x_L -> y_R, each vertex's spare
    supply (residual of s -> x_L) and spare demand (residual of y_R -> t); the
    arcs are built once per graph (``WeightedGraph._double_cover``). A
    selected vertex has no supply, demand or flow, so the max-flow value is
    2 * LP of the residual graph. Every solve edits the flow (``_edit``):

    * selecting v cancels the flow on v's edge arcs, returning each unit to
      the far endpoint's supply or demand, then zeroes v's supply and demand;
      each side's scan of v's arcs ends once the side's flow is cancelled;
    * deselecting v restores w(v) to both; the flow stays valid.

    A maximum flow carries a second certificate: a doubled half-integral
    cover ``a`` of the residual graph (a[u] + a[v] >= 2 on every edge) whose
    weight sum(a[v] * w(v)) equals the flow value, so both are optimal. A
    solve of at most three edits from such a flow, on a graph of 16 or more
    vertices, first edits the cover into an upper bound U: selecting v
    takes a[v] * w(v) off, deselecting v adds 2 * w(v) (v was not in the
    old residual graph, so its old a[v] means nothing), and one greedy pass
    lowers each deselected vertex and each unselected neighbour of a
    selected one to the least value its unselected neighbours allow. The
    cover stays feasible, so U >= 2 * LP. The old flow was maximum, so a new
    augmenting path must start at a vertex whose spare supply rose or end
    at one whose spare demand rose: short breadth-first searches from those
    vertices, forward and then backward, each stopping at its first sink,
    augment until the flow reaches U. That proves it maximum with no
    further search, and the edited cover becomes its certificate.

    Otherwise (U is loose, the paths lie elsewhere, there is no cover, or
    there are more edits) the search runs in rounds, the flow reuse of
    dynamic graph cuts: a breadth-first search from every x_L with spare
    supply moves L -> R over edge arcs to unselected y and R -> L back over
    arcs carrying flow, and each reached y_R with spare demand is augmented
    along its tree path by the path's bottleneck at that time, until the
    flow reaches U or a search reaches no such y_R. The max-flow value does
    not depend on the starting flow, so a warm solve equals a cold one
    (``solve_cover_lp``). A final round that reaches no such y_R marks
    exactly the source side of the canonical minimum cut, and the cover is
    read off its marks: a[i] = (i_L not reached) + (i_R reached). A solve
    given a ``limit`` may stop early: every flow of the search is valid, so
    its value is a lower bound on 2 * LP, and such a flow keeps no cover.
    The flow does not keep its selection: the caller owns it, and names
    what changed at each solve.

    A lower bound needs no solve: ``bound`` values a feasible flow of an
    edited selection, read off the current flow or a stored state without
    loading or changing either. A caller whose limit it reaches is done.
    A cover's maximum flow needs no solve either: ``cover_state`` builds it.
    """

    __slots__ = ("value2", "_w", "_flow", "_sup", "_dem", "_shared", "_tail", "_head", "_out",
                 "_in", "_box", "_local_edits", "_ep", "_seen_l", "_seen_r", "_via_l", "_via_r")

    def __init__(self, g: WeightedGraph):
        n = g.n
        # read only; the callers also walk _out as the neighbour lists
        self._w, self._tail, self._head, self._out, self._in = g._double_cover
        self._flow = [0] * len(self._tail)
        self._sup = list(self._w)
        self._dem = list(self._w)
        self._shared = False  # a state holds the flow lists: copy before a write
        self.value2 = 0  # value of the current flow, whose selection is 0^n
        # [the flow's cover certificate, or a final round's marks to read it
        # off], shared with the states taken of this flow; None if unknown
        self._box = None
        # The most edits a solve searches locally. More edits bring more
        # seeds and a looser U, and below 16 vertices a round costs less than
        # the local searches' upkeep (measured on gnp graphs, n = 8 to 100).
        self._local_edits = 3 if n >= 16 else -1
        # the edit-local searches' marks: a vertex is reached iff stamped _ep
        self._ep = 1
        self._seen_l, self._seen_r = [0] * n, [0] * n
        self._via_l, self._via_r = [0] * n, [0] * n

    def solve(self, sel: list[int], edits: list[int], limit: int | None = None) -> int:
        """2 * LP of the residual graph of ``sel``, augmenting from the current flow.

        ``sel`` is the 0/1 selection and ``edits`` the positions where it
        differs from the current flow's selection; ``sel`` is read during
        the call only. With a ``limit``, returns as soon as the flow value
        reaches it: a value below ``limit`` is exact, one at or above it
        lies between ``limit`` and 2 * LP.
        """
        cov = self._cover() if len(edits) <= self._local_edits else None
        self._box = None
        if self._shared:
            self._flow, self._sup, self._dem = self._flow[:], self._sup[:], self._dem[:]
            self._shared = False
        if cov is not None:
            cov = list(cov)  # a stored state may hold the old one
        value, upper, fwd, bwd = self._edit(cov, sel, edits)
        target = limit
        if upper is not None:
            if limit is None or upper < limit:
                target = upper
            if value < target:
                value = self._local(sel, fwd, bwd, value, target)
        if target is None or value < target:
            value += self._augment(sel, None if target is None else target - value)
        self.value2 = value
        if value == upper:
            self._box = [cov]
        return value

    def bound(self, state: tuple | None, sel: list[int], edits: list[int], limit: int) -> int:
        """A lower bound on 2 * LP of the residual graph of ``sel``, from the
        flow of ``state`` (None: the current flow); ``edits`` are the
        positions where ``sel`` differs from that flow's selection. Reads
        only the edited vertices and their neighbours, and changes nothing.

        The bound is the value of a feasible flow of ``sel``'s double cover,
        so it is at most the maximum, 2 * LP (weak duality): the old flow
        less all flow through each newly selected v, 2w(v) - sup - dem, with
        the flow on each arc between two of them, taken off at both ends,
        added back once; that is the old flow on the arcs whose ends are
        both unselected in ``sel``, the value the edit of a solve starts
        from. Then one-arc paths s -> v_L -> y_R -> t and s -> y_L -> v_R ->
        t from each newly deselected v, within w(v) per side, to each
        neighbour y unselected in ``sel``, on y's spare supply or demand in
        the old flow, which these paths take at most once. A y selected in
        the old flow has no spare there. It returns as soon as the value
        reaches ``limit``, before adding back cancelled flow or paths, so a
        value at or above ``limit`` may lie below the edited flow's.
        """
        if state is None:
            value, sup, dem = self.value2, self._sup, self._dem
        else:
            value, _, sup, dem, _ = state
        w = self._w
        freed = []
        for v in edits:
            if sel[v]:
                value -= 2 * w[v] - sup[v] - dem[v]
            else:
                freed.append(v)
        if value >= limit:
            return value
        out = self._out
        if len(edits) - len(freed) > 1:
            # flow on v_L -> y_R means both ends were unselected in the old
            # flow, so a y selected in sel is newly selected
            flow = self._flow if state is None else state[1]
            for v in edits:
                left = sel[v] and w[v] - sup[v]  # the flow a newly selected v_L sends
                if left:
                    for a, y in out[v]:
                        f = flow[a]
                        if f:
                            if sel[y]:
                                value += f
                                if value >= limit:
                                    return value
                            left -= f
                            if not left:
                                break
        if not freed:
            return value
        left_sup, left_dem = {}, {}  # spare of a neighbour some path took
        for v in freed:
            room_l = room_r = w[v]  # v_L's supply and v_R's demand left
            for _, y in out[v]:
                if sel[y]:
                    continue
                if room_l:
                    d = left_dem.get(y, dem[y])
                    if d:
                        f = d if d < room_l else room_l
                        left_dem[y] = d - f
                        room_l -= f
                        value += f
                if room_r:
                    s = left_sup.get(y, sup[y])
                    if s:
                        f = s if s < room_r else room_r
                        left_sup[y] = s - f
                        room_r -= f
                        value += f
                if value >= limit:
                    return value
                if not (room_l or room_r):
                    break
        return value

    def _edit(self, cov: list[int] | None, sel: list[int], edits: list[int]) -> tuple:
        """Edit the flow to ``sel``'s selection and, if given, its cover
        ``cov`` into a cover of ``sel``'s residual graph. Returns the edited
        flow's value, the cover's weight U >= 2 * LP (None without a cover),
        and the vertices whose spare supply, and whose spare demand, rose:
        the local searches' seeds. A side's scan of a selected v's arcs ends
        once its flow, w(v) less v's spare supply or demand, is cancelled;
        the cover's repair reads v's arcs again only when a[v] < 2."""
        flow, sup, dem, w = self._flow, self._sup, self._dem, self._w
        out, inn = self._out, self._in
        value = self.value2
        upper = None if cov is None else value
        fwd, bwd = [], []
        fix = []  # vertices whose least feasible cover value may have dropped
        for v in edits:
            if not sel[v]:
                sup[v] = dem[v] = w[v]
                fwd.append(v)
                bwd.append(v)
                if cov is not None:
                    upper += 2 * w[v]
                    cov[v] = 2
                    fix.append(v)
                continue
            left = w[v] - sup[v]  # the flow v_L sends
            if left:
                for a, y in out[v]:  # paths s -> v_L -> y_R -> t
                    f = flow[a]
                    if f:
                        flow[a] = 0
                        dem[y] += f
                        bwd.append(y)
                        left -= f
                        if not left:
                            break
            left = w[v] - dem[v]  # the flow v_R takes
            if left:
                for a, x in inn[v]:  # paths s -> x_L -> v_R -> t
                    f = flow[a]
                    if f:
                        flow[a] = 0
                        sup[x] += f
                        fwd.append(x)
                        left -= f
                        if not left:
                            break
            if cov is not None:
                upper -= cov[v] * w[v]
                held = 2 - cov[v]  # v held up each neighbour y at a[y] == held, if held
                if held:
                    fix += [y for _, y in out[v] if cov[y] == held]
            value -= 2 * w[v] - sup[v] - dem[v]
            sup[v] = dem[v] = 0
        for u in fix:
            c = cov[u]
            if c and not sel[u]:
                low = 0  # the least a[u] that covers u's unselected edges
                for _, z in out[u]:
                    if not sel[z] and 2 - cov[z] > low:
                        low = 2 - cov[z]
                        if low == c:
                            break
                if low < c:
                    upper -= (c - low) * w[u]
                    cov[u] = low
        return value, upper, fwd, bwd

    def _local(self, sel: list[int], fwd: list[int], bwd: list[int], value: int,
               target: int) -> int:
        """Augment from the vertices whose spare supply (``fwd``) or demand
        (``bwd``) rose until the flow value reaches ``target``; returns it.

        A backward search is a forward one on the mirror network, where L
        and R, supply and demand, and each arc's ends trade places.
        """
        for seeds, out, inn, tail, head, sup, dem in (
                (fwd, self._out, self._in, self._tail, self._head, self._sup, self._dem),
                (bwd, self._in, self._out, self._head, self._tail, self._dem, self._sup)):
            self._ep += 1
            for x in seeds:
                while sup[x]:
                    b = self._path(x, sel, out, inn, tail, head, sup, dem)
                    if not b:
                        break
                    value += b
                    if value >= target:
                        return value
        return value

    def _path(self, x0: int, sel: list[int], out, inn, tail, head, sup, dem) -> int:
        """Augment along one shortest path from x0_L to a y_R with spare
        demand by its bottleneck; returns that, 0 when there is no path.

        A search that fails leaves its marks: what it reached has no path to
        spare demand, and no augmentation elsewhere gives it one, so the next
        search of the same epoch skips it.
        """
        flow, ep = self._flow, self._ep
        seen_l, seen_r, via_l, via_r = self._seen_l, self._seen_r, self._via_l, self._via_r
        if seen_l[x0] == ep:
            return 0
        seen_l[x0] = ep
        front = [x0]
        for x in front:  # grows while it is walked: a queue
            for a, y in out[x]:
                if seen_r[y] != ep and not sel[y]:
                    seen_r[y] = ep
                    via_r[y] = a
                    if dem[y]:
                        break
                    for b, z in inn[y]:
                        if flow[b] and seen_l[z] != ep:
                            seen_l[z] = ep
                            via_l[z] = b
                            front.append(z)
            else:
                continue
            break
        else:
            return 0
        self._ep = ep + 1
        # the tree path x0_L -> ... -> y_R, walked back from y_R
        b = dem[y] if dem[y] < sup[x0] else sup[x0]
        x = tail[a]
        while x != x0:
            a = via_l[x]
            if flow[a] < b:
                b = flow[a]
            x = tail[via_r[head[a]]]
        dem[y] -= b
        sup[x0] -= b
        a = via_r[y]
        flow[a] += b
        x = tail[a]
        while x != x0:
            a = via_l[x]
            flow[a] -= b
            a = via_r[head[a]]
            flow[a] += b
            x = tail[a]
        return b

    def _augment(self, sel: list[int], need: int | None) -> int:
        """Augment the current flow in rounds to a maximum one, or until
        ``need`` units are added; returns the flow added."""
        flow, sup, dem, tail, head = self._flow, self._sup, self._dem, self._tail, self._head
        out, inn = self._out, self._in
        n = len(sup)
        added = 0
        while True:
            via_l = [-2] * n  # arc that reached x_L, -1 for a source
            via_r = [-1] * n  # arc that reached y_R
            front = list(itertools.compress(range(n), sup))
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
                self._box = [(via_l, via_r)]
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

    def _cover(self) -> list[int] | None:
        """The current flow's cover certificate, or None; read off a final
        round's marks on first use, for every state that shares it."""
        box = self._box
        if box is None:
            return None
        if box[0].__class__ is tuple:
            via_l, via_r = box[0]
            box[0] = [(l == -2) + (r >= 0) for l, r in zip(via_l, via_r)]
        return box[0]

    def state(self) -> tuple:
        """The current flow value, the flow lists (not copies: the next
        solve copies them first, so a state never changes), and the cover
        certificate's box (a solve never changes a cover in place)."""
        self._shared = True
        return self.value2, self._flow, self._sup, self._dem, self._box

    def cover_state(self, key: bytes) -> tuple:
        """The maximum flow of a cover ``key`` (0/1 bytes), as ``state``
        returns it, with no solve: the cover's residual graph has no edge,
        so the flow is zero, each unselected vertex keeps its full supply
        and demand, and the all-zero cover is the certificate. O(n + m)."""
        spare = list(map(operator.mul, self._w, key.translate(_UNSELECTED)))
        # a state's lists are only read (``load`` copies them), so supply
        # and demand may share one
        return 0, [0] * len(self._tail), spare, spare, [[0] * len(spare)]

    def load(self, state: tuple) -> None:
        """Make a copy of a state returned by ``state`` current; its
        selection becomes the current one."""
        self.value2, flow, sup, dem, self._box = state
        self._flow, self._sup, self._dem = flow[:], sup[:], dem[:]
        self._shared = False


def solve_cover_lp(num_vertices: int,
                   edges: Iterable[tuple[int, int]],
                   weights: Sequence[int]) -> HalfIntegralLP:
    """Optimal fractional vertex cover of an explicit graph, doubled.

    ``edges`` may repeat or list both orientations. Isolated vertices get
    assign2 = 0. Deterministic: assign2[i] counts i_L outside and i_R inside
    the set that the final search round reaches, which is the source side of
    the canonical minimum cut, the same set for every maximum flow.
    """
    n = num_vertices
    cover = DoubleCover(WeightedGraph(n, tuple(int(weights[i]) for i in range(n)), tuple(edges)))
    value2 = cover.solve([0] * n, [])
    return HalfIntegralLP(value2, tuple(cover._cover()))


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
