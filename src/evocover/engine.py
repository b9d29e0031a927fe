"""Mutation operators, archive disciplines, and the four search loops.

The loops share one skeleton: pick a parent uniformly from the archive,
mutate, evaluate the two objectives (selection cost, doubled residual LP
value), and let the archive discipline decide acceptance and eviction.

  gsemo      Pareto archive under weak dominance, standard 1/n mutation.
  gsemo-alt  same archive, uncovered-incidence mutation (see below).
  demo       multiplicative boxing with delta = 1/(2n); one member per box,
             box ties resolved by minimal cost + lp2.
  dpbea      per-ones-count groups keeping the minimizers of 2*cost + lp2
             and cost + lp2; uncovered-incidence mutation.

All objective arithmetic is exact: lp2 = 2 * LP keeps dominance, box and
comparator decisions in integers. The linear forms "Cost + 2 LP" and
"Cost + LP" are evaluated as cost + lp2 and 2 * cost + lp2 respectively.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import log1p
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .graph import WeightedGraph, as_genotype
# solve_cover_lp is unused here but stays importable: the benchmark's tracer
# (bench/tracing.py) wraps engine.solve_cover_lp by name.
from .lp import DoubleCover, solve_cover_lp  # noqa: F401

ALGORITHMS = ("gsemo", "gsemo-alt", "demo", "dpbea")


class Fitness(NamedTuple):
    cost: int
    lp2: int


class BoxIndex(NamedTuple):
    b1: int
    b2: int


def dominates_weak(a: Fitness, b: Fitness) -> bool:
    """Componentwise <= on (cost, lp2)."""
    return a[0] <= b[0] and a[1] <= b[1]


def dominates_strong(a: Fitness, b: Fitness) -> bool:
    """Weak dominance plus inequality somewhere."""
    return a[0] <= b[0] and a[1] <= b[1] and a != b


class _PowerFloors:
    """floor(r^k) and floor(2 r^k) for r = (2n+1)/(2n) and k = 0, 1, ...

    Both lists are non-decreasing; they grow on demand, doubling. An entry
    is the floor of the float s * exp(E) with E = k * log1p(1/(2n)), whose
    relative error, a few ulp times (E + 1), is far below 1e-13 while the
    float is finite (E < 710). Only an entry within 1e-13 of an integer, or
    past the float range, is floored exactly, from (2n+1)^k and (2n)^k.
    """

    __slots__ = ("_bn", "_bd", "_log", "floors")

    def __init__(self, n: int):
        self._bn, self._bd = 2 * n + 1, 2 * n
        self._log = log1p(1 / (2 * n))
        self.floors = {1: [1], 2: [2]}  # scale -> [floor(scale * r^k) for k]

    def first_reaching(self, scale: int, target: int) -> int:
        """Smallest k with floor(scale * r^k) >= target."""
        table = self.floors[scale]
        while table[-1] < target:
            start = len(table)
            for s, floors in self.floors.items():
                with np.errstate(over="ignore", invalid="ignore"):  # inf is near
                    x = s * np.exp(np.arange(start, 2 * start) * self._log)
                    f = np.floor(x)
                    near = ~(np.minimum(x - f, f + 1 - x) > 1e-13 * x)
                new = np.where(near, 0, f).astype(np.int64).tolist()
                for i in np.flatnonzero(near).tolist():
                    k = start + i
                    new[i] = s * self._bn ** k // self._bd ** k
                floors += new
        return bisect_left(table, target)


_POWER_FLOORS: dict[int, _PowerFloors] = {}  # per n; pure, so shared by all callers


def _min_power_reaching(n: int, num: int, den: int) -> int:
    """Smallest k >= 0 with ((2n+1)/(2n))^k >= 1 + num/den, exactly, for den 1 or 2.

    r^k >= 1 + num/den holds iff den * r^k >= den + num, and as den + num is
    an integer, iff floor(den * r^k) >= den + num: a lookup in the table of
    floors for this n.
    """
    if num <= 0:
        return 0
    floors = _POWER_FLOORS.get(n)
    if floors is None:
        floors = _POWER_FLOORS[n] = _PowerFloors(n)
    return floors.first_reaching(den, den + num)


def box_index(fit: Fitness, n: int) -> BoxIndex:
    """Multiplicative box of a fitness vector, ratio 1 + 1/(2n) per axis.

    b1 covers the cost axis, b2 the LP axis; lp2 may be odd, so the LP-axis
    target 1 + lp2/2 is compared in exact rational form.
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
# Randomness
# ---------------------------------------------------------------------------

class RngStream:
    """Deterministic uniform stream backed by numpy PCG64.

    The generator is seeded through SeedSequence, so identical seeds give
    identical draw sequences and distinct seeds give independent streams.
    Draws come from fixed-size blocks of 4096 uniforms; a block is replaced
    (never overwritten) when fewer draws remain than requested.
    """

    BLOCK = 4096

    __slots__ = ("seed", "_gen", "_buf", "_pos", "_hits", "_hits_p")

    def __init__(self, seed: int):
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        self._next_block()
        self._pos = 0

    def _next_block(self) -> None:
        self._buf = self._gen.random(self.BLOCK)
        self._hits_p = None  # _hits lists the positions of the uniforms < _hits_p

    def uniform(self) -> float:
        pos = self._pos
        if pos >= self.BLOCK:
            self._next_block()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def uniforms(self, k: int) -> np.ndarray:
        """Next k uniforms in [0, 1) as an array (a view; do not mutate)."""
        pos = self._pos
        if pos + k > self.BLOCK:
            if k > self.BLOCK:
                return self._gen.random(k)
            self._next_block()
            pos = 0
        self._pos = pos + k
        return self._buf[pos:pos + k]

    def below(self, k: int, p: float) -> list[int]:
        """Ascending positions of the uniforms < p among the next k, drawn
        as ``uniforms(k)`` draws them, from a per-block list of such hits."""
        pos = self._pos
        end = pos + k
        if end > self.BLOCK:  # a new block, or more than a block
            return np.flatnonzero(self.uniforms(k) < p).tolist()
        self._pos = end
        if p != self._hits_p:
            self._hits_p = p
            self._hits = np.flatnonzero(self._buf < p).tolist()
        hits = self._hits
        lo = bisect_left(hits, pos)
        hi = bisect_left(hits, end, lo)
        if hi - lo < 2:  # at n bits and p = 1/n, about 2/e of the windows
            return [hits[lo] - pos] if lo < hi else []
        return [h - pos for h in hits[lo:hi]]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class Individual:
    """A genotype with its cached objective values and derived data."""

    __slots__ = ("bits", "key", "cost", "lp2", "ones", "uncovered", "graph", "box",
                 "_alt_pvec")

    def __init__(self, bits: np.ndarray, key: bytes, cost: int, lp2: int,
                 ones: int, uncovered: int, graph: WeightedGraph | None):
        self.bits = bits
        self.key = key
        self.cost = cost
        self.lp2 = lp2
        self.ones = ones
        self.uncovered = uncovered  # number of edges with no selected endpoint
        self.graph = graph
        self.box: BoxIndex | None = None
        self._alt_pvec: np.ndarray | None = None

    @property
    def fitness(self) -> Fitness:
        return Fitness(self.cost, self.lp2)

    def focused_pvec(self) -> np.ndarray:
        """Flip probabilities of the focused mutation branch, made on first use."""
        if self._alt_pvec is None:
            self._alt_pvec = _focused_pvec(self.graph, self.bits)
        return self._alt_pvec

    def __repr__(self) -> str:  # debugging aid
        return f"Individual(cost={self.cost}, lp2={self.lp2}, ones={self.ones})"


def _uncovered_ends(g: WeightedGraph, bits: np.ndarray) -> np.ndarray:
    # both ends of each edge that bits leaves uncovered, from one gather per side
    tails, heads = g._arcs
    sel = bits.view(np.bool_)
    return tails[~(sel[tails] | sel[heads])]


class Evaluator:
    """Memoizing objective evaluator for one graph.

    The LP solve dominates iteration cost, so evaluations are cached per
    genotype (keyed by the raw bit bytes). The cache is pure and may be
    shared across sequential runs on the same graph; concurrent runs must
    use separate Evaluator instances.

    A child is evaluated from its parent and the positions it flipped: it
    is keyed by toggling the parent's key, and on a miss it gets its cost,
    ones count and number of uncovered edges from the parent's, by a walk
    over the flipped vertices' neighbours. A whole genotype is its flips
    from 0^n. No uncovered edge means a cover, and no LP.

    LP values come from one ``DoubleCover`` flow per graph, created when
    first needed. A child is solved from its parent's maximum flow when the
    parent's residual state is stored, with the flipped positions as the
    edits; else from the last flow solved, with the positions where the two
    keys differ. States are stored only for archive members (see
    ``retain``), so they take memory in proportion to the archive, not to
    the cache.

    A solve given the archive's ``threshold`` stops once the flow reaches
    it, where the archive is sure to reject the candidate. Such a candidate's
    lp2 is a lower bound, not exact: it is held in a second dict, apart from
    the exact ``_cache``, and reused while it still meets the threshold of
    the moment. Otherwise the genotype is solved again without a limit and
    moves to ``_cache``, so no genotype is solved more than twice.
    """

    def __init__(self, g: WeightedGraph):
        self.graph = g
        self._cache: dict[bytes, Individual] = {}
        self._bounded: dict[bytes, Individual] = {}  # lp2 a lower bound only
        self._cover: DoubleCover | None = None
        self._solved = bytes(g.n)  # key of the network's current flow
        self._states: dict[bytes, tuple] = {}  # key -> DoubleCover state
        # the parent of whole genotypes: never cached or solved, so no lp2
        self._zero = Individual(None, self._solved, 0, None, 0, g.m, g)

    def __len__(self) -> int:
        return len(self._cache) + len(self._bounded)

    def evaluate(self, bits: np.ndarray | None, parent: Individual | None = None,
                 threshold: Callable[[int, int], int | None] | None = None,
                 flips: list[int] | None = None) -> Individual:
        """Objectives of the child of ``parent`` that differs from it at the
        distinct positions ``flips``; ``bits`` is then ignored (pass None).
        Without ``flips``, the objectives of the whole genotype ``bits``,
        whose parent is 0^n. The child's array is made on a memo miss only,
        read-only on the key's bytes.

        ``threshold(cost, ones)`` is the archive's smallest lp2 at which it
        is sure to reject the candidate, or None. With it, the returned lp2
        may be a lower bound that is at least that threshold (and at least
        1, so it never reads as a cover); without it, lp2 is exact.
        """
        if flips is None:
            parent, flips = self._zero, np.flatnonzero(bits).tolist()
        key = bytearray(parent.key)
        for v in flips:
            key[v] = 1 - key[v]  # bytes are 0 or 1
        key = bytes(key)
        ind = self._cache.get(key)
        if ind is not None:
            return ind
        ind = self._bounded.get(key)
        if ind is not None:
            limit = None if threshold is None else threshold(ind.cost, ind.ones)
            if limit is not None and ind.lp2 >= limit:
                return ind
            del self._bounded[key]
            ind.lp2 = self._solve(key, list(key), parent, flips, None)
            ind.box = None
            self._cache[key] = ind
            return ind
        cover = self._cover
        if cover is None:
            cover = self._cover = DoubleCover(self.graph)
        nbrs, w = cover._out, cover._w
        cost, ones, uncovered = parent.cost, parent.ones, parent.uncovered
        sel = list(parent.key)
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
            lp2 = self._solve(key, sel, parent, flips, limit)
        ind = Individual(np.frombuffer(key, np.uint8), key, cost, lp2, ones, uncovered,
                         self.graph)
        if limit is not None and lp2 >= limit:
            self._bounded[key] = ind
        else:
            self._cache[key] = ind
        return ind

    def _solve(self, key: bytes, sel: list[int], parent: Individual, flips: list[int],
               limit: int | None) -> int:
        cover = self._cover  # made by the evaluation that asks for this solve
        solved = self._solved
        if parent.key != solved:
            state = self._states.get(parent.key)
            if state is None:  # the flow is another genotype's: diff the keys
                flips = [v for v, (a, b) in enumerate(zip(solved, key)) if a != b]
            else:
                cover.load(state)
        self._solved = key
        return cover.solve(sel, flips, limit)

    def retain(self, ind: Individual, members: list[Individual]) -> None:
        """Report that ``ind`` entered the archive, now ``members``.

        Stores ``ind``'s flow if it is the last one solved, and drops the
        states of genotypes no longer in the archive.
        """
        states = self._states
        if ind.key == self._solved and ind.key not in states:
            states[ind.key] = self._cover.state()
        if len(states) > len(members):
            self._states = {m.key: states[m.key] for m in members if m.key in states}


# ---------------------------------------------------------------------------
# Mutation operators
# ---------------------------------------------------------------------------

def _focused_pvec(g: WeightedGraph, bits: np.ndarray) -> np.ndarray:
    pvec = np.full(g.n, 1.0 / g.n)
    pvec[_uncovered_ends(g, bits)] = 0.5
    return pvec


def _flip_positions(rng: RngStream, n: int,
                    focused: Callable[[], np.ndarray] | None = None) -> list[int]:
    """Ascending positions to flip, each with probability 1/n; or, given
    ``focused`` and if a fair coin picks it, with those in ``focused()``."""
    if focused is not None and rng.uniform() < 0.5:
        return (rng.uniforms(n) < focused()).nonzero()[0].tolist()
    return rng.below(n, 1.0 / n)


def standard_mutation(x: Sequence[int] | np.ndarray, rng: RngStream) -> np.ndarray:
    """Flip each bit independently with probability 1/n."""
    bits = np.array(x, dtype=np.uint8)
    bits[_flip_positions(rng, bits.size)] ^= 1
    return bits


def alternative_mutation(g: WeightedGraph, x: Sequence[int] | np.ndarray,
                         rng: RngStream) -> np.ndarray:
    """Uncovered-incidence mutation.

    A fair coin picks the branch: either plain 1/n flips, or a focused step
    where every vertex incident to an uncovered edge flips with probability
    1/2 and all others with probability 1/n. Selected vertices have no
    uncovered edges, so they always fall in the 1/n class.
    """
    bits = as_genotype(x, g.n).copy()
    bits[_flip_positions(rng, g.n, lambda: _focused_pvec(g, bits))] ^= 1
    return bits


# ---------------------------------------------------------------------------
# Archive disciplines
# ---------------------------------------------------------------------------
# gsemo and demo archives are mutually non-dominated, hence sortable by cost
# with strictly decreasing lp2; both checks and evictions then reduce to a
# bisect plus a contiguous slice.
#
# Each archive's threshold(cost, ones) is the smallest lp2 at which insert
# is sure to reject a candidate of that cost and ones count, or None; the
# Evaluator's LP search stops there (see Evaluator).

class SemoArchive:
    """Pareto archive: reject weakly dominated candidates, evict the dominated."""

    discipline = "semo"

    __slots__ = ("members", "_costs")

    def __init__(self):
        self.members: list[Individual] = []
        self._costs: list[int] = []

    def threshold(self, cost: int, ones: int) -> int | None:
        """The lp2 of the member with the largest cost <= ``cost``: at or above
        it, that member weakly dominates the candidate."""
        i = bisect_right(self._costs, cost)
        return self.members[i - 1].lp2 if i else None

    def insert(self, cand: Individual) -> bool:
        members, costs = self.members, self._costs
        i = bisect_right(costs, cand.cost)
        if i and members[i - 1].lp2 <= cand.lp2:
            return False  # weakly dominated (equality included)
        j = bisect_left(costs, cand.cost)
        k = j
        while k < len(members) and members[k].lp2 >= cand.lp2:
            k += 1
        del members[j:k]
        del costs[j:k]
        members.insert(j, cand)
        costs.insert(j, cand.cost)
        return True


class DemoArchive:
    """Boxed archive: reject on strong dominance or on losing a box tie."""

    discipline = "demo"

    __slots__ = ("n", "members", "_costs", "_by_box")

    def __init__(self, n: int):
        self.n = n
        self.members: list[Individual] = []
        self._costs: list[int] = []
        self._by_box: dict[BoxIndex, Individual] = {}

    # At or above that lp2, the member strongly dominates the candidate, or
    # has its fitness and so wins the tie of their common box.
    threshold = SemoArchive.threshold

    def insert(self, cand: Individual) -> bool:
        if cand.box is None:
            cand.box = box_index((cand.cost, cand.lp2), self.n)
        mate = self._by_box.get(cand.box)
        if mate is not None and mate.cost + mate.lp2 <= cand.cost + cand.lp2:
            return False
        members, costs = self.members, self._costs
        i = bisect_right(costs, cand.cost)
        if i:
            y = members[i - 1]
            if y.lp2 <= cand.lp2 and (y.cost != cand.cost or y.lp2 != cand.lp2):
                return False  # strongly dominated
        j = bisect_left(costs, cand.cost)
        k = j
        while k < len(members) and members[k].lp2 >= cand.lp2:
            del self._by_box[members[k].box]
            k += 1
        del members[j:k]
        del costs[j:k]
        mate = self._by_box.get(cand.box)
        if mate is not None:
            idx = bisect_left(costs, mate.cost)
            del members[idx]
            del costs[idx]
            del self._by_box[cand.box]
        j = bisect_left(costs, cand.cost)
        members.insert(j, cand)
        costs.insert(j, cand.cost)
        self._by_box[cand.box] = cand
        return True


class DpbeaArchive:
    """Per-ones-count groups; each keeps argmin(2*cost+lp2) and argmin(cost+lp2).

    Candidates always join their group; the group is then reduced to the two
    minimizers (which may coincide), kept as [argmin(2*cost+lp2)] or
    [argmin(2*cost+lp2), argmin(cost+lp2)]. Comparator ties favor incumbents.
    """

    discipline = "dpbea"

    __slots__ = ("members", "_groups", "max_group_size")

    def __init__(self):
        self.members: list[Individual] = []
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

    def _rebuild(self) -> None:
        groups = self._groups
        self.members = [ind for k in sorted(groups) for ind in groups[k]]

    def insert(self, cand: Individual) -> bool:
        groups = self._groups
        grp = groups.get(cand.ones)
        if grp is None:
            groups[cand.ones] = [cand]
            self._rebuild()
            if self.max_group_size < 1:
                self.max_group_size = 1
            return True
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
        if new_grp[0] is grp[0] and new_grp[-1] is grp[-1]:
            return False  # the candidate lost and the group is as it was
        groups[cand.ones] = new_grp
        if len(new_grp) > self.max_group_size:
            self.max_group_size = len(new_grp)
        self._rebuild()
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

@dataclass(frozen=True)
class Termination:
    """When a run stops.

    At least one of ``budget`` / ``any_cover`` / ``target_ratio`` must be
    set. A ratio target compares the best cover found against ratio * opt
    (exactly, via the Fraction); ``opt`` is also what the gsemo archive
    bound check uses. With ``until_zero_string`` the run keeps going until
    the all-zeros genotype has entered the archive as well, so zero-string
    hitting times stay measurable against the full budget.
    """

    budget: int | None = None
    any_cover: bool = False
    target_ratio: Fraction | None = None
    opt: int | None = None
    until_zero_string: bool = False

    def __post_init__(self):
        if self.budget is None and not self.any_cover and self.target_ratio is None:
            raise ValueError("termination needs a budget or a target")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.target_ratio is not None:
            # exact for a float too: Fraction(1.5) == 3/2
            try:
                ratio = Fraction(self.target_ratio)
            except OverflowError:  # an infinite float
                raise ValueError("target ratio must be finite") from None
            object.__setattr__(self, "target_ratio", ratio)
            if self.opt is None:
                raise ValueError("a ratio target requires opt")
            if self.target_ratio < 1:
                raise ValueError("target ratio must be >= 1")

    @property
    def target_kind(self) -> str | None:
        if self.target_ratio is not None:
            return "ratio"
        if self.any_cover:
            return "cover"
        return None


@dataclass
class RunTrace:
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
        callback: Callable[[int, Individual, bool, object], None] | None = None,
        ) -> RunTrace:
    """One run of the chosen algorithm; one iteration = one parent selection,
    one mutation, one insertion attempt. Deterministic for a fixed seed."""
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

    opt = termination.opt
    ratio = termination.target_ratio
    if ratio is not None:
        tgt_num = ratio.numerator * opt
        tgt_den = ratio.denominator
    budget = termination.budget
    want_cover = termination.any_cover
    until_zero = termination.until_zero_string

    gsemo_cap = (2 * opt + 1) if opt is not None else None
    demo_cap = (demo_archive_capacity(n, g.w_max)
                if check_bounds and algorithm == "demo" else None)
    dpbea_cap = 2 * (n + 1)

    best_cost: int | None = None
    best_bits: np.ndarray | None = None
    hit0 = hitc = hitt = None
    violations = 0

    init = ev.evaluate((rng.uniforms(n) < 0.5).view(np.uint8))
    archive.insert(init)
    ev.retain(init, archive.members)
    if init.cost == 0:
        hit0 = 0
    if init.lp2 == 0:
        best_cost, best_bits = init.cost, init.bits
        hitc = 0
        if ratio is not None and best_cost * tgt_den <= tgt_num:
            hitt = 0
    max_arch = len(archive.members)
    series = [(0, max_arch, best_cost)] if record_series else None

    def target_met() -> bool:
        if ratio is not None:
            done = hitt is not None
        elif want_cover:
            done = hitc is not None
        else:
            return False
        return done and (not until_zero or hit0 is not None)

    it = 0
    while not target_met() and (budget is None or it < budget):
        it += 1
        members = archive.members
        parent = members[int(rng.uniform() * len(members))]
        flips = _flip_positions(rng, n, parent.focused_pvec if use_alt else None)
        cand = ev.evaluate(None, parent, threshold, flips) if flips else parent
        # a candidate whose lp2 is only a bound is rejected, but still
        # inserted: a dpbea group may shrink on a rejected insert
        accepted = archive.insert(cand)
        if accepted:
            ev.retain(cand, archive.members)
        size = len(archive.members)
        if size > max_arch:
            max_arch = size
        if cand.cost == 0 and hit0 is None:
            hit0 = it
        if cand.lp2 == 0 and (best_cost is None or cand.cost < best_cost):
            best_cost, best_bits = cand.cost, cand.bits
            if hitc is None:
                hitc = it
            if ratio is not None and hitt is None and best_cost * tgt_den <= tgt_num:
                hitt = it
        if check_bounds:
            if algorithm == "demo":
                if size > demo_cap:
                    violations += 1
            elif algorithm == "dpbea":
                if size > dpbea_cap or archive.max_group_size > 2:
                    violations += 1
            elif gsemo_cap is not None and size > gsemo_cap:
                violations += 1
        if record_series:
            series.append((it, size, best_cost))
        if callback is not None:
            callback(it, cand, accepted, archive)

    return RunTrace(
        algorithm=algorithm,
        seed=seed,
        n=n,
        iterations=it,
        max_archive=max_arch,
        best_cost=best_cost,
        best_cover=None if best_bits is None else tuple(int(b) for b in best_bits),
        iters_to_zero_string=hit0,
        iters_to_cover=hitc,
        iters_to_target=hitt,
        target_kind=termination.target_kind,
        bound_violations=violations,
        series=series,
    )
