"""Record a baseline: ten runs per workload, each with its own seed.

    python3 bench/baseline.py

Runs ``bench/run.py`` once per (workload, seed), one process at a time,
each for the ``run_seconds`` of ``BENCHMARK.json``, and writes to
``bench/baseline.json`` every value with each metric's median, quartiles
and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), together with
facts about the host.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUNS = 10


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> None:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    out = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "machine": platform.machine(),
                 "processor": platform.processor()},
        "seconds": seconds,
        "workloads": {},
    }
    for name in WORKLOADS:
        seeds = list(range(101, 101 + RUNS))
        values: dict[str, list[float]] = {}
        units = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=180)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                raise SystemExit(f"{name} seed {seed}: incorrect\n{proc.stderr}")
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
                units[k] = m["unit"]
            print(f"{name} seed {seed}: done", file=sys.stderr, flush=True)
        out["workloads"][name] = {
            "seeds": seeds,
            "metrics": {k: dict(unit=units[k], **summarize(v)) for k, v in values.items()},
        }
        for k, v in values.items():
            s = out["workloads"][name]["metrics"][k]
            print(f"{name:12s} {k:24s} median {s['median']:.5g} {units[k]}  spread {s['spread']:.3f}")
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
