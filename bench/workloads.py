"""The benchmark's workloads: instances, run schedules and the timed loop.

Every workload runs the four search loops round-robin, one trial after
another in a single process, through ``experiment.run_trial``. Blocks of
one algorithm are avoided because host speed drifts by tens of percent
over seconds; interleaving spreads that drift over all algorithms alike.

The instance of a workload is fixed (so its OPT and golden digests hold on
every invocation); the workload seed picks the trial seeds. A workload is
executed in *units*: the timed loop runs whole units until its time is up,
and a unit is the smallest block whose work is fixed by its index alone.
Host slowness (see ``hostspeed``) is sampled before each unit and after each
trial, so every trial carries the mean of the samples on either side of it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from hostspeed import slowness

ALGOS = ("gsemo", "gsemo-alt", "demo", "dpbea")
DEFAULT_SEED = 1
W_MAX = 16
# Trial seed = workload seed * SEED_STRIDE + index of the trial of that
# algorithm in the schedule, so distinct workload seeds never share trials.
SEED_STRIDE = 1_000_000

# RunTrace fields covered by the golden digest. Fields added to RunTrace
# later are left out, so new counters do not invalidate the goldens.
DIGEST_FIELDS = (
    "algorithm", "seed", "n", "iterations", "max_archive", "best_cost",
    "best_cover", "iters_to_zero_string", "iters_to_cover", "iters_to_target",
    "target_kind", "bound_violations",
)


def trace_digest(trace) -> str:
    payload = json.dumps([getattr(trace, f) for f in DIGEST_FIELDS], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    trials_per_round: trials of each algorithm in one round.
    rounds_per_unit: rounds sharing one set of Evaluators (0: one set of
        Evaluators for the whole phase, as a long-lived process would keep).
    targets: per-algorithm ratio targets; None runs a fixed budget.
    golden_units: units replayed at DEFAULT_SEED for the digest check.
    trace_units_per_s: units per second of a traced run's fixed work.
    """

    name: str
    n: int
    p: float
    instance_seed: int
    budget: int
    trials_per_round: dict
    rounds_per_unit: int
    targets: dict | None
    golden_units: int
    trace_units_per_s: float

    def termination(self, ec, algo: str, opt: int):
        if self.targets is None:
            return ec.engine.Termination(budget=self.budget)
        return ec.engine.Termination(budget=self.budget, target_ratio=self.targets[algo], opt=opt)

    def round_schedule(self) -> list[str]:
        """Algorithms of one round in run order, e.g. a b c d b d b d."""
        most = max(self.trials_per_round.values())
        return [a for j in range(most) for a in ALGOS if j < self.trials_per_round[a]]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="target-n24",
            n=24, p=0.25, instance_seed=2,
            # 23x the slowest of 300 gsemo and demo trials probed (8638
            # iterations), so nothing is censored
            budget=200_000,
            trials_per_round={"gsemo": 1, "gsemo-alt": 4, "demo": 1, "dpbea": 4},
            rounds_per_unit=4,
            targets={"gsemo": Fraction(2), "demo": Fraction(2),
                     "gsemo-alt": Fraction(5, 4), "dpbea": Fraction(5, 4)},
            golden_units=1,
            trace_units_per_s=0.3,
        ),
        Workload(
            name="budget-n100",
            n=100, p=0.05, instance_seed=1,
            budget=300,
            trials_per_round={a: 1 for a in ALGOS},
            # fresh Evaluators for every round: memo hits are about 1%
            # anyway, and the memos do not grow with the run's length
            rounds_per_unit=1,
            targets=None,
            golden_units=1,
            trace_units_per_s=0.5,
        ),
        Workload(
            name="budget-n12",
            n=12, p=0.4, instance_seed=1,
            budget=10_000,
            trials_per_round={a: 1 for a in ALGOS},
            rounds_per_unit=0,
            targets=None,
            golden_units=3,
            trace_units_per_s=4.0,
        ),
    )
}


@dataclass
class Instance:
    """A workload's graph, its OPT and the Evaluators runs currently share."""

    workload: Workload
    ec: object
    graph: object
    opt: int | None
    evaluators: dict = field(default_factory=dict)

    def fresh_evaluators(self) -> None:
        self.evaluators = {a: self.ec.engine.Evaluator(self.graph) for a in ALGOS}


@dataclass
class Trial:
    algo: str
    seed: int
    trace: object
    record: object
    seconds: float  # CPU time of the run_trial call
    slowness: float  # host slowness around the call

    @property
    def norm_seconds(self) -> float:
        """CPU time at reference host speed."""
        return self.seconds / self.slowness


def set_up(ec, wl: Workload) -> Instance:
    """Instance generation, exact OPT where branch and bound reaches, Evaluators.

    Each module is looked up at call time, so a traced set-up sees the
    wrapped functions.
    """
    g = ec.graph.gnp(wl.n, wl.p, w_max=W_MAX, seed=wl.instance_seed)
    opt = None
    if g.n <= ec.exact.BRANCH_BOUND_LIMIT:
        opt = ec.exact.opt_branch_bound(g).opt_cost
    inst = Instance(wl, ec, g, opt)
    inst.fresh_evaluators()
    return inst


def run_unit(inst: Instance, seed: int, unit: int, opt: int | None) -> list[Trial]:
    """Run unit ``unit`` of the schedule for workload seed ``seed``.

    ``opt`` is the value ratio targets are measured against (the golden OPT,
    so a wrong set-up OPT cannot change the work done).
    """
    wl, ec = inst.workload, inst.ec
    per_unit = max(wl.rounds_per_unit, 1)
    if wl.rounds_per_unit:
        inst.fresh_evaluators()
    schedule = wl.round_schedule()
    counters = {a: unit * per_unit * wl.trials_per_round[a] for a in ALGOS}
    terms = {a: wl.termination(ec, a, opt) for a in ALGOS}
    trials = []
    before = slowness()
    for _ in range(per_unit):
        for algo in schedule:
            s = seed * SEED_STRIDE + counters[algo]
            counters[algo] += 1
            t0 = time.process_time()
            record, trace = ec.experiment.run_trial(
                inst.graph, algo, s, terms[algo], evaluator=inst.evaluators[algo])
            cpu = time.process_time() - t0
            after = slowness()
            trials.append(Trial(algo, s, trace, record, cpu, (before + after) / 2))
            before = after
    return trials


def run_timed(inst: Instance, seed: int, opt: int | None, *, seconds: float | None = None,
              units: int | None = None, before_unit=None) -> tuple[list[list[Trial]], float]:
    """Run whole units until ``seconds`` of wall time have passed, or exactly
    ``units`` units. ``before_unit``, if given, is called with the wall time
    passed so far before each unit.

    Returns the trials of each unit and their total CPU time at reference
    host speed (see ``hostspeed``). Timings are
    process CPU time: the loops are single-threaded and never wait, so it
    equals wall time except for the time a shared host steals from this
    process, which is noise to the benchmark.
    """
    done: list[list[Trial]] = []
    t0 = time.perf_counter()
    while True:
        if before_unit is not None:
            before_unit(time.perf_counter() - t0)
        done.append(run_unit(inst, seed, len(done), opt))
        wall = time.perf_counter() - t0
        if (units is not None and len(done) >= units) or (units is None and wall >= seconds):
            return done, sum(t.norm_seconds for unit in done for t in unit)
