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

    Both lists are non-decreasing; they grow on demand from the exact powers
    (2n+1)^k and (2n)^k.
    """

    __slots__ = ("_bn", "_bd", "_num", "_den", "floors")

    def __init__(self, n: int):
        self._bn, self._bd = 2 * n + 1, 2 * n
        self._num = self._den = 1  # r^k = num / den for the last k tabulated
        self.floors = {1: [1], 2: [2]}  # scale -> [floor(scale * r^k) for k]

    def first_reaching(self, scale: int, target: int) -> int:
        """Smallest k with floor(scale * r^k) >= target."""
        table = self.floors[scale]
        while table[-1] < target:
            self._num *= self._bn
            self._den *= self._bd
            self.floors[1].append(self._num // self._den)
            self.floors[2].append(2 * self._num // self._den)
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

    __slots__ = ("seed", "_gen", "_buf", "_pos")

    def __init__(self, seed: int):
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        self._buf = self._gen.random(self.BLOCK)
        self._pos = 0

    def uniform(self) -> float:
        pos = self._pos
        if pos >= self.BLOCK:
            self._buf = self._gen.random(self.BLOCK)
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def uniforms(self, k: int) -> np.ndarray:
        """Next k uniforms in [0, 1) as an array (a view; do not mutate)."""
        pos = self._pos
        if pos + k > self.BLOCK:
            if k > self.BLOCK:
                return self._gen.random(k)
            self._buf = self._gen.random(self.BLOCK)
            pos = 0
        self._pos = pos + k
        return self._buf[pos:pos + k]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class Individual:
    """A genotype with its cached objective values and derived data."""

    __slots__ = ("bits", "key", "cost", "lp2", "ones", "incident", "box", "_alt_pvec")

    def __init__(self, bits: np.ndarray, key: bytes, cost: int, lp2: int,
                 ones: int, incident: np.ndarray):
        self.bits = bits
        self.key = key
        self.cost = cost
        self.lp2 = lp2
        self.ones = ones
        self.incident = incident  # vertices touching an uncovered edge
        self.box: BoxIndex | None = None
        self._alt_pvec: np.ndarray | None = None

    @property
    def fitness(self) -> Fitness:
        return Fitness(self.cost, self.lp2)

    @property
    def is_cover(self) -> bool:
        return self.lp2 == 0

    def __repr__(self) -> str:  # debugging aid
        return f"Individual(cost={self.cost}, lp2={self.lp2}, ones={self.ones})"


class Evaluator:
    """Memoizing objective evaluator for one graph.

    The LP solve dominates iteration cost, so evaluations are cached per
    genotype (keyed by the raw bit bytes). The cache is pure and may be
    shared across sequential runs on the same graph; concurrent runs must
    use separate Evaluator instances.

    LP values come from one ``DoubleCover`` network per graph, built at the
    first solve. A child is solved from its parent's maximum flow when the
    parent's residual state is stored, else from the last flow solved.
    States are stored only for archive members (see ``retain``), so they
    take memory in proportion to the archive, not to the cache.
    """

    def __init__(self, g: WeightedGraph):
        self.graph = g
        self.n = g.n
        self._w = g._w64
        self._eu = g._edge_u
        self._ev = g._edge_v
        self._cache: dict[bytes, Individual] = {}
        self._cover: DoubleCover | None = None
        self._solved: bytes | None = None  # key of the network's current flow
        self._states: dict[bytes, tuple] = {}  # key -> DoubleCover state

    def __len__(self) -> int:
        return len(self._cache)

    def evaluate(self, bits: np.ndarray, parent: Individual | None = None) -> Individual:
        """Objectives of ``bits``; ``parent`` names the genotype it was mutated
        from, whose stored flow the LP solve then starts from."""
        key = bits.tobytes()
        ind = self._cache.get(key)
        if ind is not None:
            return ind
        bits = np.array(bits, dtype=np.uint8)  # own the stored copy
        n = self.n
        cost = int(self._w @ bits)
        incident = np.zeros(n, dtype=bool)
        lp2 = 0
        if self._eu.size:
            sel = bits.view(np.bool_)
            unc = ~(sel[self._eu] | sel[self._ev])
            if unc.any():
                incident[self._eu[unc]] = True
                incident[self._ev[unc]] = True
                lp2 = self._solve(key, bits, parent)
        ind = Individual(bits, key, cost, lp2, int(bits.sum()), incident)
        self._cache[key] = ind
        return ind

    def _solve(self, key: bytes, bits: np.ndarray, parent: Individual | None) -> int:
        cover = self._cover
        if cover is None:
            cover = self._cover = DoubleCover(self.graph)
        if parent is not None and parent.key != self._solved:
            state = self._states.get(parent.key)
            if state is not None:
                cover.load(state)
        self._solved = key
        return cover.solve(bits)

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

def standard_mutation(x: Sequence[int] | np.ndarray, rng: RngStream) -> np.ndarray:
    """Flip each bit independently with probability 1/n."""
    bits = np.asarray(x, dtype=np.uint8)
    flips = rng.uniforms(bits.size) < (1.0 / bits.size)
    return bits ^ flips.view(np.uint8)


def alternative_mutation(g: WeightedGraph, x: Sequence[int] | np.ndarray,
                         rng: RngStream) -> np.ndarray:
    """Uncovered-incidence mutation.

    A fair coin picks the branch: either plain 1/n flips, or a focused step
    where every vertex incident to an uncovered edge flips with probability
    1/2 and all others with probability 1/n. Selected vertices have no
    uncovered edges, so they always fall in the 1/n class.
    """
    bits = as_genotype(x, g.n)
    n = g.n
    if rng.uniform() < 0.5:
        sel = bits.view(np.bool_)
        unc = ~(sel[g._edge_u] | sel[g._edge_v]) if g.edges else np.zeros(0, dtype=bool)
        incident = np.zeros(n, dtype=bool)
        if unc.size and unc.any():
            incident[g._edge_u[unc]] = True
            incident[g._edge_v[unc]] = True
        pvec = np.where(incident, 0.5, 1.0 / n)
        flips = rng.uniforms(n) < pvec
    else:
        flips = rng.uniforms(n) < (1.0 / n)
    return bits ^ flips.view(np.uint8)


# ---------------------------------------------------------------------------
# Archive disciplines
# ---------------------------------------------------------------------------
# gsemo and demo archives are mutually non-dominated, hence sortable by cost
# with strictly decreasing lp2; both checks and evictions then reduce to a
# bisect plus a contiguous slice.

class SemoArchive:
    """Pareto archive: reject weakly dominated candidates, evict the dominated."""

    discipline = "semo"

    __slots__ = ("members", "_costs")

    def __init__(self):
        self.members: list[Individual] = []
        self._costs: list[int] = []

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
    minimizers (which may coincide). Comparator ties favor incumbents.
    """

    discipline = "dpbea"

    __slots__ = ("members", "_groups", "max_group_size")

    def __init__(self):
        self.members: list[Individual] = []
        self._groups: dict[int, list[Individual]] = {}
        self.max_group_size = 0

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
        if any(y is cand for y in grp):
            return False  # proposing an existing member leaves the group as is
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
        groups[cand.ones] = new_grp
        if len(new_grp) > self.max_group_size:
            self.max_group_size = len(new_grp)
        self._rebuild()
        return any(y is cand for y in new_grp)


def semo_insert(archive: SemoArchive, cand: Individual) -> bool:
    return archive.insert(cand)


def demo_insert(archive: DemoArchive, cand: Individual) -> bool:
    return archive.insert(cand)


def dpbea_insert(archive: DpbeaArchive, cand: Individual) -> bool:
    return archive.insert(cand)


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
    use_alt = algorithm in ("gsemo-alt", "dpbea")
    inv_n = 1.0 / n
    std_pvec = np.full(n, inv_n)

    opt = termination.opt
    ratio = termination.target_ratio
    if ratio is not None:
        tgt_num = ratio.numerator * opt
        tgt_den = ratio.denominator
    budget = termination.budget
    want_cover = termination.any_cover
    until_zero = termination.until_zero_string

    gsemo_cap = (2 * opt + 1) if opt is not None else None
    demo_cap = demo_archive_capacity(n, g.w_max) if algorithm == "demo" else None
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
        if use_alt and rng.uniform() < 0.5:
            pvec = parent._alt_pvec
            if pvec is None:
                pvec = np.where(parent.incident, 0.5, inv_n)
                parent._alt_pvec = pvec
        else:
            pvec = std_pvec
        flips = rng.uniforms(n) < pvec
        if flips.any():
            cand = ev.evaluate(parent.bits ^ flips.view(np.uint8), parent)
        else:
            cand = parent
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
