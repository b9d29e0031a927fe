"""Benchmark of the evocover search loops.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``. Prints a metric table, then as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 2 when the package cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check_all, load_golden
from hostspeed import slowness
from tracing import Tracer
from workloads import ALGOS, WORKLOADS, run_timed, set_up

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 40


def package_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "evocover" or k.startswith("evocover.")}


def import_evocover():
    """Import the package from this checkout's ``src/``, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in package_modules():
        del sys.modules[name]
    import evocover
    if Path(evocover.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"evocover imported from {evocover.__file__}, not from {SRC}")
    return evocover


def time_setup(wl):
    """One timed set-up: fresh package import, instance, OPT, Evaluators.

    Returns the instance and the set-up's CPU time at reference host speed.
    """
    before = slowness()
    t0 = time.process_time()
    inst = set_up(import_evocover(), wl)
    cpu = time.process_time() - t0
    return inst, cpu / ((before + slowness()) / 2)


def end_to_end(trials, setup_times) -> tuple[dict, dict]:
    """End-to-end metrics as name -> (value, unit), and what each table row adds.

    Times are CPU times at reference host speed (see ``hostspeed``), summed
    over every trial of the timed phase, which ends after a whole unit.
    """
    def per_iter(ts):
        return sum(t.norm_seconds for t in ts) / sum(t.trace.iterations for t in ts)

    def raw_per_iter(ts):
        return sum(t.seconds for t in ts) / sum(t.trace.iterations for t in ts)

    slow = statistics.median(t.slowness for t in trials)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "iters_per_s": (1 / per_iter(trials), "1/s"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "iters_per_s": f"{len(trials)} trials; host slowness median {slow:.3g}, "
                       f"unnormalised {1 / raw_per_iter(trials):.6g}",
    }
    for algo in ALGOS:
        mine = [t for t in trials if t.algo == algo]
        metrics[f"us_per_iter.{algo}"] = (per_iter(mine) * 1e6, "us")
        notes[f"us_per_iter.{algo}"] = (f"{len(mine)} trials; "
                                        f"unnormalised {raw_per_iter(mine) * 1e6:.6g}")
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, notes


def measure(name: str, seed: int, seconds: float, trace: bool, golden: dict | None = None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    wl = WORKLOADS[name]
    golden = golden if golden is not None else load_golden()[name]
    inst, first_setup = time_setup(wl)
    notes: dict = {}
    if not trace:
        setup_times = [first_setup]
        in_use = package_modules()

        def set_up_due(elapsed: float) -> None:
            # Set-ups are spread evenly over the timed phase: one set-up takes
            # tens of milliseconds, and host speed drifts over seconds.
            share = min(1.0, elapsed / seconds) if seconds else 1.0
            while len(setup_times) < SETUP_REPS * share:
                setup_times.append(time_setup(wl)[1])
                # the timed instance's code keeps finding its own modules
                sys.modules.update(in_use)

        units, _ = run_timed(inst, seed, golden["opt"], seconds=seconds, before_unit=set_up_due)
        set_up_due(seconds)
        metrics, notes = end_to_end([t for u in units for t in u], setup_times)
    else:
        # Fixed work, so counts repeat exactly for a seed: the same units run
        # untraced, then traced with fresh Evaluators.
        n_units = max(1, round(seconds / 2 * wl.trace_units_per_s))
        units, cpu = run_timed(inst, seed, golden["opt"], units=n_units)
        tracer = Tracer()
        tracer.install(inst.ec)
        try:
            inst = set_up(inst.ec, wl)
            traced, traced_cpu = run_timed(inst, seed, golden["opt"], units=n_units)
        finally:
            tracer.uninstall()
        units += traced
        metrics = tracer.per_layer(traced_cpu / cpu)
        tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.json",
                     workload=name, seed=seed, units=n_units,
                     untraced_cpu_s=cpu, traced_cpu_s=traced_cpu)
    trials = [t for u in units for t in u]
    attempted, problems = check_all(inst, trials, seed, golden)
    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import evocover from {SRC}: {exc}", file=sys.stderr)
        return 2
    notes = result.pop("notes")
    for k, m in result["metrics"].items():
        extra = f"  ({notes[k]})" if k in notes else ""
        print(f"{k:34s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{'failed_share':34s} {result['failed'] / result['attempted']:.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} checked items)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
