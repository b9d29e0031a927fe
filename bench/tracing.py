"""Spans and counts around the public calls of each evocover module.

The wrappers are installed only for a traced run and removed after it.
Each name is patched where its caller looks it up (``engine.solve_cover_lp``
for the Evaluator, ``exact.solve_cover_lp`` for branch and bound, class
attributes for methods). Self time is a call's duration minus the time of
the wrapped calls made inside it. Per-call spans are aggregated per layer;
full span records (id, name, start, end, parent id) are kept for the coarse
layers only, since the fine ones run millions of times.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# module, class (None for a module function), attribute, layer, keep span records
PATCH_POINTS = (
    ("graph", None, "gnp", "graph.gnp", True),
    ("exact", None, "opt_branch_bound", "exact.opt_branch_bound", True),
    ("exact", None, "solve_cover_lp", "exact.solve_cover_lp", False),
    ("experiment", None, "run_trial", "experiment.run_trial", True),
    ("experiment", None, "run", "engine.run", True),
    ("engine", None, "solve_cover_lp", "lp.solve_cover_lp", False),
    ("engine", None, "box_index", "engine.box_index", False),
    ("engine", "Evaluator", "evaluate", "engine.evaluate", False),
    ("engine", "SemoArchive", "insert", "engine.archive.insert", False),
    ("engine", "DemoArchive", "insert", "engine.archive.insert", False),
    ("engine", "DpbeaArchive", "insert", "engine.archive.insert", False),
    ("engine", "RngStream", "uniform", "engine.rng", False),
    ("engine", "RngStream", "uniforms", "engine.rng", False),
    ("maxflow", "MaxFlow", "max_flow", "maxflow.max_flow", False),
    ("maxflow", "MaxFlow", "source_side", "maxflow.source_side", False),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # layer -> [calls, total s, self s]
        self.spans: list[tuple] = []
        self.memo_hits = 0
        self.memo_max = 0
        self.accepted = 0
        self.archive_max = 0
        self._stack = [[0.0, 0]]  # frames: [time of wrapped children, nearest kept span id]
        self._next_id = 1
        self._saved: list[tuple] = []

    def _evaluate_pre(self, args):
        return len(args[0])

    def _evaluate_post(self, args, result, before):
        size = len(args[0])
        if size == before:
            self.memo_hits += 1
        if size > self.memo_max:
            self.memo_max = size

    def _insert_post(self, args, result, before):
        self.accepted += bool(result)
        size = len(args[0].members)
        if size > self.archive_max:
            self.archive_max = size

    def _wrap(self, layer, fn, keep, pre=None, post=None):
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            token = pre(args) if pre else None
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if keep:
                frame[1] = self._next_id
                self._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[0]
                parent[0] += d
                if keep:
                    spans.append((frame[1], layer, t0, t1, parent[1]))
            if post:
                post(args, result, token)
            return result

        return wrapper

    def install(self, ec) -> None:
        hooks = {
            "engine.evaluate": (self._evaluate_pre, self._evaluate_post),
            "engine.archive.insert": (None, self._insert_post),
        }
        for module, cls, attr, layer, keep in PATCH_POINTS:
            owner = getattr(ec, module)
            if cls is not None:
                owner = getattr(owner, cls)
            orig = owner.__dict__[attr] if cls is not None else getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(layer, orig, keep, *hooks.get(layer, (None, None))))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def per_layer(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        def get(layer):
            return self.stats.get(layer, [0, 0.0, 0.0])

        lp_e, lp_x = get("lp.solve_cover_lp"), get("exact.solve_cover_lp")
        solves = lp_e[0] + lp_x[0]
        ev, ins, bb = get("engine.evaluate"), get("engine.archive.insert"), get("exact.opt_branch_bound")
        return {
            "maxflow.max_flow.calls": (get("maxflow.max_flow")[0], "count"),
            "maxflow.max_flow.s": (get("maxflow.max_flow")[1], "s"),
            "maxflow.source_side.s": (get("maxflow.source_side")[1], "s"),
            "lp.solves": (solves, "count"),
            "lp.self_s": (lp_e[2] + lp_x[2], "s"),
            "lp.us_per_solve": ((lp_e[1] + lp_x[1]) / solves * 1e6 if solves else 0.0, "us"),
            "engine.box_index.calls": (get("engine.box_index")[0], "count"),
            "engine.box_index.s": (get("engine.box_index")[1], "s"),
            "engine.archive.insert.self_s": (ins[2], "s"),
            "engine.archive.inserts": (ins[0], "count"),
            "engine.archive.accept_ratio": (self.accepted / ins[0] if ins[0] else 0.0, "ratio"),
            "engine.archive.max_size": (self.archive_max, "count"),
            "engine.evaluate.calls": (ev[0], "count"),
            "engine.evaluate.self_s": (ev[2], "s"),
            "engine.evaluate.memo_hit_ratio": (self.memo_hits / ev[0] if ev[0] else 0.0, "ratio"),
            "engine.evaluate.memo_entries": (self.memo_max, "count"),
            "engine.rng.calls": (get("engine.rng")[0], "count"),
            "engine.rng.s": (get("engine.rng")[1], "s"),
            "engine.run.self_s": (get("engine.run")[2], "s"),
            "exact.bb_s": (bb[1], "s"),
            "exact.bb_lp_solves": (lp_x[0], "count"),
            "graph.gen_s": (get("graph.gnp")[1], "s"),
            "experiment.trials": (get("experiment.run_trial")[0], "count"),
            "experiment.run_trial.self_s": (get("experiment.run_trial")[2], "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }

    def write(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["layers"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                         for k, v in sorted(self.stats.items())}
        doc["counts"] = {"memo_hits": self.memo_hits, "memo_max_entries": self.memo_max,
                         "archive_accepted": self.accepted, "archive_max_size": self.archive_max}
        doc["span_fields"] = ["id", "name", "start", "end", "parent"]
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc) + "\n")
