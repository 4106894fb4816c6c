"""In-memory spans around the calls one layer of the program makes into another.

Tracing needs no change to the program. A layer reaches another through a
module-level name (``run_scenario`` calls ``simulator.validate_schedule``
through its own module's globals), so replacing that name with a wrapper for
the length of a traced pass puts a span around every such call. Spans of one
pass share a run id; they stay in memory and are written out when the run
ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from ofdmasched import experiment, simulator, slotted


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (span id, parent id, run id, name, start, end)
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.run_id, name, start, end)

    def add(self, name: str, value: int = 1):
        self.counts[self.run_id][name] += value

    def self_times(self, run_id: int) -> dict[str, float]:
        """Seconds per span name: each span's duration less its children's."""
        spans = [s for s in self.spans if s[2] == run_id]
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            if parent is not None:
                covered[parent] += end - start  # children run one after another
        totals: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in spans:
            totals[name] += end - start - covered[sid]
        return totals

    @contextlib.contextmanager
    def patched(self):
        """Route every hooked call through this tracer until the block ends."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in HOOKS]
        try:
            for module, attr, name, count in HOOKS:
                setattr(module, attr, _wrap(self, getattr(module, attr), name, count))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w") as f:
            for sid, parent, run_id, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "run": run_id,
                                    "name": name, "start": start, "end": end}) + "\n")


def _local_search(name):
    def count(tracer, args, kwargs, out):
        schedule, stats = out
        tracer.add(f"{name}.candidate_intervals", stats.candidate_intervals)
        tracer.add(f"{name}.commits", stats.commits)
        tracer.add(f"{name}.evictions", stats.evictions)
        tracer.add(f"{name}.batches", len(schedule.batches))
    return name, count


def _benchmark_name(args, kwargs):
    return f"benchmarks.{args[0]}"


def _count_batches(tracer, args, kwargs, out):
    tracer.add(f"benchmarks.{args[0]}.batches", len(out.batches))


def _config_search(tracer, args, kwargs, out):
    tracer.add("matching.config_search.calls")
    tracer.add("matching.config_search.matched", bool(out[2]))


def _slotted_name(args, kwargs):
    window = args[3] if len(args) > 3 else kwargs.get("window_n")
    return "slotted.optimal" if window is None else "slotted.heuristic"


# (module, attribute, span name or function of the call's arguments, counter)
HOOKS = (
    (experiment, "run", "experiment.self", None),
    (experiment, "load_use_case", "workload.generate",
     lambda t, a, k, out: t.add("workload.jobs", len(out))),
    (experiment, "dump_jobs", "workload.dump", None),
    (experiment, "dump_schedule", "scheduling.dump",
     lambda t, a, k, out: t.add("scheduling.dump.bytes", len(out.encode()))),
    (experiment, "run_scenario", "simulator.scenario", None),
    (simulator, "lsds_run", *_local_search("local_search.lsds")),
    (simulator, "lsdsf_run", *_local_search("local_search.lsdsf")),
    (simulator, "greedy_benchmark", _benchmark_name, _count_batches),
    (simulator, "validate_schedule", "simulator.validate",
     lambda t, a, k, out: t.add("simulator.validate.calls")),
    (simulator, "lsds_config_search", "matching.config_search", _config_search),
    (simulator, "best_effort_overlay", "simulator.overlay", None),
    (slotted, "slotted_schedule", _slotted_name,
     lambda t, a, k, out: t.add("slotted.jobs", len(out[1]))),
)


def _wrap(tracer, fn, name, count):
    def wrapper(*args, **kwargs):
        with tracer.span(name if isinstance(name, str) else name(args, kwargs)):
            out = fn(*args, **kwargs)
        if count is not None:
            count(tracer, args, kwargs, out)
        return out
    return wrapper
