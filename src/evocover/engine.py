"""Mutation operators, archive disciplines, and the four search loops.

The loops share one skeleton: pick a parent uniformly from the archive,
mutate, evaluate the two objectives (selection cost, doubled residual LP
value), and let the archive discipline decide acceptance and eviction.

  gsemo      Pareto archive under weak dominance, standard 1/n mutation.
  gsemo-alt  same archive, uncovered-incidence mutation (``Individual.hot``).
  demo       multiplicative boxing with delta = 1/(2n); one member per box,
             box ties resolved by minimal cost + lp2.
  dpbea      per-ones-count groups keeping the minimizers of 2*cost + lp2
             and cost + lp2; uncovered-incidence mutation.

All objective arithmetic is exact: lp2 = 2 * LP keeps dominance, box and
comparator decisions in integers. The linear forms "Cost + 2 LP" and
"Cost + LP" are evaluated as cost + lp2 and 2 * cost + lp2 respectively.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import ceil, log1p
from typing import Callable, NamedTuple

import numpy as np

from .graph import WeightedGraph, _uniforms, as_genotype
# solve_cover_lp is unused here but stays importable: the benchmark's tracer
# (bench/tracing.py) wraps engine.solve_cover_lp by name.
from .lp import DoubleCover, lp_value2, solve_cover_lp  # noqa: F401

ALGORITHMS = ("gsemo", "gsemo-alt", "demo", "dpbea")
_BYTES = bytes.maketrans(b"01", b"\0\1")
_NEVER = 1 << 62  # > lp2
# the largest n whose graphs get hot()'s byte tables, of about 4 n^2 bytes
# (5.3 MB here by tracemalloc, about 67 MB at n = 4096)
_TABLES_MAX_N = 1024


def _selection(code: int, n: int) -> bytes:
    """The 0/1 bytes b_0 ... b_{n-1} of the genotype with code sum(b_v 2^v)."""
    # "0b1" and b_{n-1} ... b_0, the 1 at bit n keeping the leading zeros;
    # [:2:-1] reverses the bits and drops "0b1"
    return bin(code | 1 << n)[:2:-1].encode().translate(_BYTES)


class Fitness(NamedTuple):
    cost: int
    lp2: int


class BoxIndex(NamedTuple):
    b1: int
    b2: int


def _min_power_reaching(n: int, num: int, den: int) -> int:
    """Smallest k >= 0 with r^k >= 1 + num/den for r = (2n+1)/(2n), exactly.

    That k is ceil(x) for x = log(1 + num/den) / log(r). The float x is
    within a few ulp, a relative ~1e-15; only when it lies within a relative
    1e-13 of an integer k does the float not tell, and then r^k >= 1 +
    num/den is decided in integers, as den (2n+1)^k >= (den + num) (2n)^k.
    """
    if num <= 0:
        return 0
    x = log1p(num / den) / log1p(1 / (2 * n))
    k = round(x)
    if abs(x - k) > 1e-13 * x:
        return ceil(x)
    return k if den * (2 * n + 1) ** k >= (den + num) * (2 * n) ** k else k + 1


def box_index(fit: Fitness, n: int) -> BoxIndex:
    """Multiplicative box of a fitness vector, ratio 1 + 1/(2n) per axis.

    b1 covers the cost axis, b2 the LP axis; lp2 may be odd, so the LP-axis
    target 1 + lp2/2 is compared in exact rational form. Each index comes
    from one logarithm, checked in integers where the float cannot tell.
    """
    return BoxIndex(
        b1=_min_power_reaching(n, fit[0], 1),
        b2=_min_power_reaching(n, fit[1], 2),
    )


def demo_archive_capacity(n: int, w_max: int) -> int:
    """2k - 1 with k = 1 + ceil(log_{1+delta}(1 + n * w_max))."""
    k = 1 + _min_power_reaching(n, n * w_max, 1)
    return 2 * k - 1


# ---------------------------------------------------------------------------
# Draws and flip masks
# ---------------------------------------------------------------------------

class RngStream:
    """Deterministic uniform stream backed by numpy PCG64.

    The generator is seeded through SeedSequence, so identical seeds give
    identical draw sequences and distinct seeds give independent streams.
    Draws come from blocks of 4096 ``_uniforms``, each replaced (never
    overwritten) when fewer draws remain than requested.
    """

    BLOCK = 4096

    __slots__ = ("seed", "_gen", "_buf", "_pos")

    def __init__(self, seed: int):
        self.seed = seed
        self._gen = np.random.PCG64(np.random.SeedSequence(seed))
        self._buf = _uniforms(self._gen, self.BLOCK)
        self._pos = 0

    def uniform(self) -> float:
        """The next uniform in [0, 1), as a Python float."""
        pos = self._pos
        if pos >= self.BLOCK:
            self._buf = _uniforms(self._gen, self.BLOCK)
            pos = 0
        self._pos = pos + 1
        return self._buf.item(pos)

    def uniforms(self, k: int) -> np.ndarray:
        """Next k uniforms in [0, 1) as an array (a view; do not mutate)."""
        pos = self._pos
        if pos + k > self.BLOCK:
            if k > self.BLOCK:
                return _uniforms(self._gen, k)
            self._buf = _uniforms(self._gen, self.BLOCK)
            pos = 0
        self._pos = pos + k
        return self._buf[pos:pos + k]

    def rows(self, width: int) -> np.ndarray:
        """Draws the whole rows of ``width`` uniforms left in the block: a (k, width) view."""
        pos = self._pos
        self._pos = end = pos + (self.BLOCK - pos) // width * width
        return self._buf[pos:end].reshape(-1, width)


def _decode(rng: RngStream, n: int, width: int) -> tuple:
    """Draws the next rows of ``width`` = 1 + n or 2 + n: the whole rows left
    in the block, else the row across its end, drawn as single rows are
    (``uniform()`` for the pick and the coin, ``uniforms(n)`` for the flips),
    and the whole rows of the block its flips opened. Returns their parent
    picks and two flip masks, each a genotype code: ``lo`` of the draws
    under 1/n and, in rows of 2 + n (else None), ``hi`` of those under 1/2
    where the coin is, else lo. A child flips lo | (hi & hot): every draw
    under 1/n is under 1/2 but at n = 1, with no edge. Arrays at n <= 16,
    where the batches read them, else lists; the masks are int64 at n <=
    62, else Python ints, the 64-bit words of each row's ``packbits``
    joined, with hi packed only for the rows whose coin is under 1/2."""
    rows = rng.rows(width)
    if not len(rows):
        first = np.concatenate(([rng.uniform() for _ in range(width - n)], rng.uniforms(n)))
        rows = np.concatenate((first[None], rng.rows(width)))
    picks, draws = rows[:, 0], rows[:, -n:]
    if n <= 62:
        unit = 1 << np.arange(n, dtype=np.int64)
        lo = (draws < 1.0 / n) @ unit
        hi = None if width == n + 1 else np.where(rows[:, 1] < 0.5, (draws < 0.5) @ unit, lo)
        out = picks, lo, hi
        return out if n <= 16 else tuple(a if a is None else a.tolist() for a in out)
    k = len(rows)
    focus = np.flatnonzero(rows[:, 1] < 0.5) if width > n + 1 else []
    flags = np.zeros((k + len(focus), n + -n % 64), np.bool_)  # lo's rows, then hi's
    np.less(draws, 1.0 / n, out=flags[:k, :n])
    np.less(draws[focus], 0.5, out=flags[k:, :n])
    words = np.packbits(flags, axis=1, bitorder="little").view("<u8").T.tolist()
    codes = words[0]
    for j in range(1, len(words)):
        codes = [c | w << 64 * j for c, w in zip(codes, words[j])]
    lo, hi = codes[:k], None
    if width > n + 1:
        hi = lo.copy()
        for i, h in zip(focus.tolist(), codes[k:]):
            hi[i] = h
    return picks.tolist(), lo, hi


def _set_bits(mask: int) -> list[int]:
    """Ascending positions of the 1 bits of ``mask`` >= 0."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class Individual:
    """A genotype with its cached objective values and derived data; the
    genotype is kept only as its ``code``, sum(b_v 2^v) over its bits b_v."""

    __slots__ = ("code", "cost", "lp2", "ones", "uncovered", "graph", "box", "_hot")

    def __init__(self, code: int, cost: int, lp2: int, ones: int, uncovered: int,
                 graph: WeightedGraph | None):
        self.code = code
        self.cost = cost
        self.lp2 = lp2
        self.ones = ones
        self.uncovered = uncovered  # number of edges with no selected endpoint
        self.graph = graph
        self.box: BoxIndex | None = None
        self._hot: int | None = None

    @property
    def bits(self) -> np.ndarray:
        """The genotype as a read-only uint8 array."""
        return np.frombuffer(_selection(self.code, self.graph.n), np.uint8)

    @property
    def fitness(self) -> Fitness:
        return Fitness(self.cost, self.lp2)

    def hot(self) -> int:
        """The ends of the edges the genotype leaves uncovered, as a code: the
        vertices the focused mutation branch flips with 1/2, made on first
        use. Up to n = ``_TABLES_MAX_N``, the unselected vertices with an
        unselected neighbour, ``free & OR_k T[k][byte k of free]`` over the
        graph's byte tables (n/8 lookups); above, one gather per side over
        the edges listed both ways, in O(n + m) memory."""
        if self._hot is None:
            g = self.graph
            if g.n <= _TABLES_MAX_N:
                tables = g._byte_neighbours
                free = self.code ^ (1 << g.n) - 1
                union = 0
                for t, b in zip(tables, free.to_bytes(len(tables), "little")):
                    union |= t[b]
                self._hot = free & union
            else:
                tails, heads = g._arcs
                sel = self.bits.view(np.bool_)
                ends = np.zeros(g.n, np.bool_)
                ends[tails[~(sel[tails] | sel[heads])]] = True
                self._hot = int.from_bytes(np.packbits(ends, bitorder="little").tobytes(), "little")
        return self._hot

    def __repr__(self) -> str:  # debugging aid
        return f"Individual(cost={self.cost}, lp2={self.lp2}, ones={self.ones})"


class Evaluator:
    """Memoizing objective evaluator for one graph.

    The LP solve dominates iteration cost, so evaluations are cached per
    genotype, keyed by its code (see ``Individual``). The cache is pure and
    may be shared across sequential runs on the same graph; concurrent runs
    must use separate Evaluator instances. If n <= 16 and 2 sum(w) < 2^62,
    ``_table`` mirrors it for ``run``: rows cost, lp2 and ones count, each
    genotype in the column of its code, -1 where it is unknown.

    A child is evaluated from its parent and the positions it flipped: its
    code is the parent's XORed with 2**v per flip, and on a miss it gets
    its cost, ones count and number of uncovered edges from the parent's,
    by a walk over the flipped vertices' neighbours, on a copy of the
    parent's 0/1 selection. That is unpacked from the parent's code at its
    first miss and kept, as bytes, while the parent is in the archive (see
    ``retain``). A whole genotype is its flips from 0^n. No uncovered edge
    means a cover, and no LP.

    LP values come from one ``DoubleCover`` flow per graph, created when
    first needed. A child is solved from its parent's maximum flow, with the
    flipped positions as the edits, when that flow is known: the parent was
    the last genotype solved, its residual state is stored, or it is a
    cover, whose maximum flow is the empty one (built on demand, never
    stored). Otherwise it is solved from the last flow solved, with the
    positions where the two codes differ. States are stored only for
    archive members (see ``retain``), so they take memory in proportion to
    the archive, not to the cache.

    A solve given the archive's ``threshold`` stops once the flow reaches
    it, where the archive is sure to reject the candidate. When the
    parent's flow is known, it first tries ``DoubleCover.bound``: that
    flow, edited locally into a feasible flow of the child's double cover,
    may already reach the threshold, and then no flow is loaded or changed.
    Such a candidate's lp2 is a lower bound, not exact: it is held in a
    second dict, apart from the exact ``_cache``, and reused while it still
    meets the threshold of the moment. Otherwise the genotype is solved
    again without a limit and moves to ``_cache``, so no genotype is solved
    more than twice. A bound and a stopped solve may leave different lower
    bounds, so the bound can change which later solves run and from which
    flow, but never an archive decision.
    """

    def __init__(self, g: WeightedGraph):
        self.graph = g
        self._cache: dict[int, Individual] = {}
        self._bounded: dict[int, Individual] = {}  # lp2 a lower bound only
        self._cover: DoubleCover | None = None
        self._solved = 0  # code of the network's current flow
        self._states: dict[int, tuple] = {}  # code -> DoubleCover state
        self._sels: dict[int, bytes] = {}  # code -> _selection, for parents of misses
        # the parent of whole genotypes: never cached or solved, so no lp2
        self._zero = Individual(0, 0, None, 0, g.m, g)
        self._table = (np.full((3, 1 << g.n), -1, np.int64)
                       if g.n <= 16 and 2 * sum(g.weights) < 1 << 62 else None)

    def __len__(self) -> int:
        return len(self._cache) + len(self._bounded)

    def evaluate(self, bits: np.ndarray | None, parent: Individual | None = None,
                 threshold: Callable[[int, int], int | None] | None = None,
                 flips: list[int] | None = None, code: int | None = None) -> Individual:
        """Objectives of the child of ``parent`` that differs from it at the
        distinct positions ``flips``; ``bits`` is then ignored (pass None).
        Without ``flips``, the objectives of the whole genotype ``bits`` (a
        0/1 sequence of length n, else ValueError), whose parent is 0^n.
        ``code``, if given, is the child's code (a Python int), which the caller
        has already looked up in the memo and not found.

        ``threshold(cost, ones)`` is the archive's smallest lp2 at which it
        is sure to reject the candidate, or None. With it, the returned lp2
        may be a lower bound that is at least that threshold (and at least
        1, so it never reads as a cover); without it, lp2 is exact.
        """
        n = self.graph.n
        if flips is None:
            parent, flips = self._zero, np.flatnonzero(as_genotype(bits, n)).tolist()
        if code is None:
            code = parent.code
            for v in flips:
                code ^= 1 << v
            ind = self._cache.get(code)
            if ind is not None:
                return ind
        ind = self._bounded.get(code)
        if ind is not None:
            limit = None if threshold is None else threshold(ind.cost, ind.ones)
            if limit is not None and ind.lp2 >= limit:
                return ind
            del self._bounded[code]
            ind.lp2 = self._solve(code, list(_selection(code, n)), parent, flips, None)
            ind.box = None
            self._cache[code] = ind
            if self._table is not None:
                self._put(ind)
            return ind
        cover = self._cover
        if cover is None:
            cover = self._cover = DoubleCover(self.graph)
        nbrs, w = cover._out, cover._w
        cost, ones, uncovered = parent.cost, parent.ones, parent.uncovered
        key = self._sels.get(parent.code)
        if key is None:
            key = self._sels[parent.code] = _selection(parent.code, n)
        sel = list(key)  # the child's, after the flips
        # one flip at a time, each against the selection left by the
        # ones before it, so an edge flipped at both ends counts once
        for v in flips:
            free = 0  # edges from v to unselected vertices
            for _, y in nbrs[v]:
                if not sel[y]:
                    free += 1
            if sel[v]:
                sel[v] = 0
                cost -= w[v]
                ones -= 1
                uncovered += free
            else:
                sel[v] = 1
                cost += w[v]
                ones += 1
                uncovered -= free
        lp2 = 0
        limit = None
        if uncovered:
            if threshold is not None:
                limit = threshold(cost, ones)
                if limit is not None:
                    # some edge is uncovered, so lp2 >= 2: a value
                    # stopped at 1 or more never reads as a cover
                    limit = max(limit, 1)
            lp2 = self._solve(code, sel, parent, flips, limit)
        ind = Individual(code, cost, lp2, ones, uncovered, self.graph)
        if limit is not None and lp2 >= limit:
            self._bounded[code] = ind
        else:
            self._cache[code] = ind
        if self._table is not None:
            self._put(ind)
        return ind

    def _put(self, ind: Individual) -> None:
        self._table[:, ind.code] = ind.cost, ind.lp2, ind.ones

    def _solve(self, code: int, sel: list[int], parent: Individual, flips: list[int],
               limit: int | None) -> int:
        cover = self._cover  # made by the evaluation that asks for this solve
        solved = self._solved
        known = parent.code == solved
        state = None if known else self._states.get(parent.code)
        if state is None and not known and not parent.uncovered:  # a cover's flow is known
            state = cover.cover_state(_selection(parent.code, len(sel)))
        if state is None and not known:
            # the flow is another genotype's: diff the codes
            diff = _selection(solved ^ code, len(sel))
            flips = [v for v, d in enumerate(diff) if d]
        elif limit is not None:
            value = cover.bound(state, sel, flips, limit)
            if value >= limit:
                return value  # no solve: the flow stays as it was
        if state is not None:
            cover.load(state)
        self._solved = code
        return cover.solve(sel, flips, limit)

    def retain(self, ind: Individual | None, left: list[Individual]) -> None:
        """Report that ``ind`` (None if nothing) entered the archive and the
        members ``left`` left it.

        Stores ``ind``'s flow if it is the last one solved, and drops the
        states and selections of those that left.
        """
        states, sels = self._states, self._sels
        if ind is not None and ind.code == self._solved and ind.code not in states:
            states[ind.code] = self._cover.state()
        for m in left:
            states.pop(m.code, None)
            sels.pop(m.code, None)


# ---------------------------------------------------------------------------
# Archive disciplines
# ---------------------------------------------------------------------------
# gsemo and demo archives are mutually non-dominated, hence sortable by cost
# with strictly decreasing lp2; both checks and evictions then reduce to a
# bisect plus a contiguous slice.
#
# Each archive's threshold(cost, ones) is the smallest lp2 at which insert
# is sure to reject a candidate of that cost and ones count, or None; the
# Evaluator's LP search stops there (see Evaluator). batch_test(n) gives
# run's f(cost, lp2, ones or None): True where insert surely rejects and
# changes nothing.

class SemoArchive:
    """Pareto archive: reject weakly dominated candidates, evict the dominated."""

    __slots__ = ("members", "_costs", "left")

    def __init__(self):
        self.members: list[Individual] = []
        self._costs: list[int] = []
        self.left: list[Individual] = []  # members removed by inserts; the caller empties it

    def threshold(self, cost: int, ones: int) -> int | None:
        """The lp2 of the member with the largest cost <= ``cost``: at or above
        it, that member weakly dominates the candidate. (For demo, it strongly
        dominates the candidate, or has its fitness and so wins their box tie.)"""
        i = bisect_right(self._costs, cost)
        return self.members[i - 1].lp2 if i else None

    def batch_test(self, n: int):  # at the threshold
        costs = np.array(self._costs)
        limits = np.array([_NEVER] + [m.lp2 for m in self.members])
        return lambda cost, lp2, ones: lp2 >= limits[costs.searchsorted(cost, side="right")]

    def insert(self, cand: Individual) -> bool:
        i = bisect_right(self._costs, cand.cost)
        if i and self.members[i - 1].lp2 <= cand.lp2:
            return False  # weakly dominated (equality included)
        self._place(cand)
        return True

    def _place(self, cand: Individual) -> list[Individual]:
        """Evict the members ``cand`` weakly dominates, insert it in cost
        order, and return the evicted."""
        members, costs = self.members, self._costs
        j = bisect_left(costs, cand.cost)
        k = j
        while k < len(members) and members[k].lp2 >= cand.lp2:
            k += 1
        evicted = members[j:k]
        members[j:k] = [cand]
        costs[j:k] = [cand.cost]
        self.left += evicted
        return evicted


class DemoArchive(SemoArchive):
    """Boxed archive: reject on strong dominance or on losing a box tie."""

    __slots__ = ("n", "_by_box")

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self._by_box: dict[BoxIndex, Individual] = {}

    def insert(self, cand: Individual) -> bool:
        # A member that weakly dominates cand strongly dominates it or has
        # its fitness, and so its box and the box tie: either way cand is
        # rejected, before its box is computed and with the archive as it was.
        i = bisect_right(self._costs, cand.cost)
        if i and self.members[i - 1].lp2 <= cand.lp2:
            return False
        if cand.box is None:
            cand.box = box_index((cand.cost, cand.lp2), self.n)
        by_box = self._by_box
        mate = by_box.get(cand.box)
        if mate is not None and mate.cost + mate.lp2 <= cand.cost + cand.lp2:
            return False
        for y in self._place(cand):
            del by_box[y.box]
        # a mate still here lost the box tie, and its cost is not cand's: a
        # mate of cand's cost with a lower lp2 would have rejected cand, and
        # one with no lower lp2 was just evicted
        mate = by_box.get(cand.box)
        if mate is not None:
            i = bisect_left(self._costs, mate.cost)
            del self.members[i], self._costs[i]
            self.left.append(mate)
        by_box[cand.box] = cand
        return True


class DpbeaArchive:
    """Per-ones-count groups; each keeps argmin(2*cost+lp2) and argmin(cost+lp2).

    Candidates always join their group; the group is then reduced to the two
    minimizers (which may coincide), kept as [argmin(2*cost+lp2)] or
    [argmin(2*cost+lp2), argmin(cost+lp2)]. Comparator ties favor incumbents.
    ``members`` lists the groups by ascending ones count; a new or changed
    group replaces its slice of it, found by bisecting the members' ones counts.
    """

    __slots__ = ("members", "_ones", "_groups", "max_group_size", "left")

    def __init__(self):
        self.members: list[Individual] = []
        self.left: list[Individual] = []  # members removed by inserts; the caller empties it
        self._ones: list[int] = []  # members[i].ones, for the bisect
        self._groups: dict[int, list[Individual]] = {}
        self.max_group_size = 0

    def threshold(self, cost: int, ones: int) -> int | None:
        """max(K1 - 2 cost, K2 - cost), with K1 and K2 the minima of
        2*cost+lp2 and cost+lp2 over the group of ``ones``: at or above it,
        the candidate beats neither minimizer (ties favor incumbents)."""
        grp = self._groups.get(ones)
        if grp is None:
            return None
        m1, m2 = grp[0], grp[-1]
        return max(2 * (m1.cost - cost) + m1.lp2, m2.cost - cost + m2.lp2)

    def batch_test(self, n: int):
        # never (_NEVER > 2*cost+lp2) with no group, or with [a, b] tied on
        # cost+lp2, which any insert collapses to [a]; else at the threshold
        k1, k2 = np.full((2, n + 1), _NEVER)
        for ones, grp in self._groups.items():
            m1, m2 = grp[0], grp[-1]
            if m1 is m2 or m1.cost + m1.lp2 != m2.cost + m2.lp2:
                k1[ones] = 2 * m1.cost + m1.lp2
                k2[ones] = m2.cost + m2.lp2
        return lambda cost, lp2, ones: (2 * cost + lp2 >= k1[ones]) & (cost + lp2 >= k2[ones])

    def insert(self, cand: Individual) -> bool:
        k = cand.ones
        grp = self._groups.get(k, [])
        if cand in grp:  # (by identity) a member proposed again leaves it as is
            return False
        pool = grp + [cand]
        min1 = min2 = pool[0]
        k1 = 2 * min1.cost + min1.lp2
        k2 = min2.cost + min2.lp2
        for y in pool[1:]:
            a = 2 * y.cost + y.lp2
            if a < k1:
                min1, k1 = y, a
            b = y.cost + y.lp2
            if b < k2:
                min2, k2 = y, b
        new_grp = [min1] if min2 is min1 else [min1, min2]
        if grp and new_grp[0] is grp[0] and new_grp[-1] is grp[-1]:
            return False  # the candidate lost and the group is as it was
        self._groups[k] = new_grp
        self.left += [m for m in grp if m is not min1 and m is not min2]
        lo = bisect_left(self._ones, k)  # the group's slice of members
        hi = lo + len(grp)
        self.members[lo:hi] = new_grp
        self._ones[lo:hi] = [k] * len(new_grp)
        if len(new_grp) > self.max_group_size:
            self.max_group_size = len(new_grp)
        return cand in new_grp


def make_archive(algorithm: str, n: int):
    if algorithm in ("gsemo", "gsemo-alt"):
        return SemoArchive()
    if algorithm == "demo":
        return DemoArchive(n)
    if algorithm == "dpbea":
        return DpbeaArchive()
    raise ValueError(f"unknown algorithm {algorithm!r}")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class _TerminationFields(NamedTuple):
    budget: int | None = None
    any_cover: bool = False
    target_ratio: Fraction | None = None
    opt: int | None = None
    until_zero_string: bool = False


class Termination(_TerminationFields):
    """When a run stops.

    At least one of ``budget`` / ``any_cover`` / ``target_ratio`` must be
    set. A ratio target compares the best cover found against ratio * opt
    (exactly, via the Fraction); ``opt`` is also what the gsemo archive
    bound check uses. With ``until_zero_string`` the run keeps going until
    the all-zeros genotype has entered the archive as well, so zero-string
    hitting times stay measurable against the full budget.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        budget, any_cover, ratio, opt, until_zero = super().__new__(cls, *args, **kwargs)
        if budget is None and not any_cover and ratio is None:
            raise ValueError("termination needs a budget or a target")
        if budget is not None and budget < 0:
            raise ValueError("budget must be >= 0")
        if ratio is not None:
            # exact for a float too: Fraction(1.5) == 3/2
            try:
                ratio = Fraction(ratio)
            except OverflowError:  # an infinite float
                raise ValueError("target ratio must be finite") from None
            if opt is None:
                raise ValueError("a ratio target requires opt")
            if ratio < 1:
                raise ValueError("target ratio must be >= 1")
        return super().__new__(cls, budget, any_cover, ratio, opt, until_zero)

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``, so ``_replace`` validates as well."""
        return cls(*iterable)

    @property
    def target_kind(self) -> str | None:
        if self.target_ratio is not None:
            return "ratio"
        if self.any_cover:
            return "cover"
        return None


class RunTrace(NamedTuple):
    """Milestones and per-iteration statistics of one run.

    Milestones are recorded when the milestone genotype is evaluated;
    for the dominance-based archives this is provably the same iteration
    at which it enters the archive (a rejected all-zeros string or cover
    implies one is already present). best_cost is the cheapest cover
    encountered so far, None until one exists.
    """

    algorithm: str
    seed: int
    n: int
    iterations: int
    max_archive: int
    best_cost: int | None
    best_cover: tuple[int, ...] | None
    iters_to_zero_string: int | None
    iters_to_cover: int | None
    iters_to_target: int | None
    target_kind: str | None
    bound_violations: int
    series: list[tuple[int, int, int | None]] | None = None

    @property
    def censored(self) -> bool:
        if self.target_kind == "ratio":
            return self.iters_to_target is None
        if self.target_kind == "cover":
            return self.iters_to_cover is None
        return False


def run(algorithm: str,
        g: WeightedGraph,
        seed: int,
        termination: Termination,
        *,
        evaluator: Evaluator | None = None,
        check_bounds: bool = False,
        record_series: bool = False,
        callback: "Callable[[int, Individual, bool, object], None] | None" = None,
        ) -> RunTrace:
    """One run of the chosen algorithm; one iteration = one parent selection,
    one mutation, one insertion attempt. Deterministic for a fixed seed.
    Iteration 0 inserts the random initial genotype; ``callback`` is called
    after each later one, and must leave the archive as it is. A ratio
    target below LP(0^n), which no cover meets, needs a budget. The rows of
    draws are decoded a block at a time (``_decode``), and a child's flip
    mask is ``lo | (hi & parent.hot())``; at n <= 16, runs of rejected memo
    hits are committed in numpy batches (README)."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    ev = evaluator if evaluator is not None else Evaluator(g)
    if ev.graph is not g and ev.graph != g:
        raise ValueError("evaluator was built for a different graph")
    n = g.n
    rng = RngStream(seed)
    archive = make_archive(algorithm, n)
    threshold = archive.threshold
    use_alt = algorithm in ("gsemo-alt", "dpbea")
    dpbea = algorithm == "dpbea"

    opt = termination.opt
    ratio = termination.target_ratio
    budget = termination.budget
    if ratio is not None:
        tgt_num = ratio.numerator * opt
        tgt_den = ratio.denominator
        # no cover costs less than LP(0^n), so below it a budget-less run
        # would never stop
        if budget is None and 2 * tgt_num < lp_value2(g, [0] * n) * tgt_den:
            raise ValueError(f"target {ratio} * opt {opt} is below the LP lower bound, "
                             "so no cover meets it; give a budget or a larger opt")
    want_cover = termination.any_cover
    until_zero = termination.until_zero_string

    # the archive size bound that check_bounds counts violations of
    cap = None
    if check_bounds:
        if algorithm == "demo":
            cap = demo_archive_capacity(n, g.w_max)
        elif dpbea:
            cap = 2 * (n + 1)
        elif opt is not None:
            cap = 2 * opt + 1

    table = ev._table
    batch, wait, backoff, stale = 32, 0, 16, True
    if table is not None:
        table_cost, table_lp2, table_ones = table
    width = n + 1 + use_alt  # parent pick, branch coin, n flip draws
    r = k = 0  # r of the k rows last decoded are read

    best_cost: int | None = None
    best_code: int | None = None
    hit0 = hitc = hitt = None
    violations = 0
    max_arch = 0
    series = [] if record_series else None

    def target_met() -> bool:
        if ratio is not None:
            done = hitt is not None
        elif want_cover:
            done = hitc is not None
        else:
            return False
        return done and (not until_zero or hit0 is not None)

    # iteration 0 inserts the random initial genotype into the empty archive
    it = 0
    done = False
    parent = None
    cand = ev.evaluate((rng.uniforms(n) < 0.5).view(np.uint8))
    # flows and selections are kept for this run's members only
    ev._states.clear()
    ev._sels.clear()
    left = archive.left
    while True:
        if cand is parent:
            accepted = False  # nothing flipped: every archive rejects a member as is
        else:
            # a candidate whose lp2 is only a bound is rejected, but still
            # inserted: a dpbea group may shrink on a rejected insert
            accepted = archive.insert(cand)
            if accepted or left:
                ev.retain(cand if accepted else None, left)
                left.clear()
                stale = True
            size = len(archive.members)
            if size > max_arch:
                max_arch = size
            # target_met() can change only where a milestone is set
            if cand.cost == 0 and hit0 is None:
                hit0 = it
                done = target_met()
            if cand.lp2 == 0 and (best_cost is None or cand.cost < best_cost):
                best_cost, best_code = cand.cost, cand.code
                if hitc is None:
                    hitc = it
                if ratio is not None and hitt is None and best_cost * tgt_den <= tgt_num:
                    hitt = it
                done = target_met()
        if cap is not None and (size > cap or dpbea and archive.max_group_size > 2):
            violations += 1
        if record_series:
            series.append((it, size, best_cost))
        if callback is not None and it:
            callback(it, cand, accepted, archive)
        if done or it == budget:
            break
        if table is not None and not wait:
            if stale:  # an accept or a dpbea collapse
                codes = np.array([m.code for m in archive.members])
                hots = np.array([m.hot() for m in archive.members]) if use_alt else None
                test = archive.batch_test(n)
                stale = False
            start = it
            while it != budget:
                if r == k:
                    picks, lo, hi = _decode(rng, n, width)
                    r, k = 0, len(picks)
                j = min(k, r + (batch if budget is None else min(batch, budget - it)))
                pick = (picks[r:j] * size).astype(np.intp)
                mask = lo[r:j] | (hi[r:j] & hots[pick]) if use_alt else lo[r:j]
                child = codes[pick] ^ mask
                cost, lp2 = table_cost[child], table_lp2[child]
                # commit up to a child unknown (-1) or that may change the run
                if not dpbea:
                    ok = test(cost, lp2, None)
                else:  # a reject may be a cheaper cover
                    ok = test(cost, lp2, table_ones[child])
                    ok &= (lp2 != 0) | (cost >= (_NEVER if best_cost is None else best_cost))
                c = int(ok.argmin())
                if ok[c]:
                    c = len(ok)
                r += c
                if record_series:
                    series += [(i, size, best_cost) for i in range(it + 1, it + c + 1)]
                if cap is not None and (size > cap or dpbea and archive.max_group_size > 2):
                    violations += c
                if callback is not None:
                    for i in range(c):
                        code = int(child[i])
                        callback(it + 1 + i, ev._cache.get(code) or ev._bounded[code],
                                 False, archive)
                it += c
                if c < len(ok):  # an event, for the scalar path
                    batch = 32
                    if it - start < 8:  # dense events: wait 16, 32, ... scalar iterations
                        wait, backoff = backoff, min(2 * backoff, 256)
                    else:
                        backoff = 16
                    break
                batch *= 2
            if it == budget:
                break
        elif wait:
            wait -= 1
        if r == k:
            picks, lo, hi = _decode(rng, n, width)
            r, k = 0, len(picks)
        it += 1
        members = archive.members
        parent = members[int(picks[r] * len(members))]
        mask = lo[r]
        if use_alt and hi[r] != mask:  # the focused branch
            mask |= hi[r] & parent.hot()
        r += 1
        cand = parent if not mask else ev._cache.get(parent.code ^ mask)
        if cand is None:  # a miss; at n <= 16 the mask is an np.int64, not a code
            mask = int(mask)
            cand = ev.evaluate(None, parent, threshold, _set_bits(mask), parent.code ^ mask)

    return RunTrace(
        algorithm=algorithm,
        seed=seed,
        n=n,
        iterations=it,
        max_archive=max_arch,
        best_cost=best_cost,
        best_cover=None if best_code is None else tuple(_selection(best_code, n)),
        iters_to_zero_string=hit0,
        iters_to_cover=hitc,
        iters_to_target=hitt,
        target_kind=termination.target_kind,
        bound_violations=violations,
        series=series,
    )
