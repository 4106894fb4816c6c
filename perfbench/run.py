"""The repository benchmark: one workload, its end-to-end metrics or its
traced per-layer breakdown, with every output checked.

    python3 perfbench/run.py --workload uc3-160 --seed 1 --seconds 30 --trace 0

Run it from anywhere; it imports the program from ``src/`` beside this
directory and from nowhere else. Load comes from this one process in a
closed loop: each call into the program starts after the previous one
returns, with no threads and no process pool.

A run has three phases.

1. Set-up: fresh interpreters import ``ofdmasched`` and enumerate the
   workload's RU configurations; ``setup_s`` is the median time from
   spawning one to its ready line (after one unmeasured spawn that fills
   the bytecode cache).
2. Warm-up: one pass over the workload, untimed, whose every output is
   checked (``validate_schedule`` again, delivered + dropped = jobs, the
   overlay keeps every factory assignment) and hashed.
3. Measurement for ``--seconds``: timed passes, each of whose outputs must
   hash the same as the warm-up's. With ``--trace 1`` untraced and traced
   passes alternate; the traced ones give per-layer self times and counts,
   and must give the same hashes and local-search counts as untraced calls.

Standard output lists each timed pass, the sha256 of every schedule the
workload dumps and every metric with its unit; its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. An operation fails if it raises or if its output fails a
check. A traced run also writes its spans to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
MIN_PASSES = 3  # of each kind, untraced and traced

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "lsds_s": "s",
    "peak_rss_mb": "MB",
    "profit_ratio.lsds": "ratio",
    "profit_ratio.min": "ratio",
    # the complements of critical_drop_pct.lsds and error_rate, which are 0
    # on most workloads and so cannot carry a relative bound
    "critical_delivered_pct.lsds": "%",
    "be_satisfaction": "ratio",
    "ok_rate": "ratio",
}

# per-layer self times: metric -> span name
LAYER_TIMES = {
    "workload.generate_s": "workload.generate",
    "workload.dump_s": "workload.dump",
    "local_search.lsds.s": "local_search.lsds",
    "local_search.lsdsf.s": "local_search.lsdsf",
    "benchmarks.edf.s": "benchmarks.edf",
    "benchmarks.lrf.s": "benchmarks.lrf",
    "benchmarks.nlrf.s": "benchmarks.nlrf",
    "matching.config_search.s": "matching.config_search",
    "slotted.optimal.s": "slotted.optimal",
    "slotted.heuristic.s": "slotted.heuristic",
    "simulator.overlay.s": "simulator.overlay",
    "simulator.validate.s": "simulator.validate",
    "simulator.scenario.s": "simulator.scenario",
    "scheduling.dump.s": "scheduling.dump",
    "experiment.self.s": "experiment.self",
}
LAYER_COUNTS = (
    "workload.jobs",
    "local_search.lsds.candidate_intervals", "local_search.lsds.commits",
    "local_search.lsds.evictions",
    "local_search.lsdsf.candidate_intervals", "local_search.lsdsf.commits",
    "local_search.lsdsf.evictions",
    "benchmarks.edf.batches", "benchmarks.lrf.batches", "benchmarks.nlrf.batches",
    "matching.config_search.calls",
    "slotted.jobs",
    "simulator.validate.calls",
    "scheduling.dump.bytes",
)
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "local_search.lsds.kept_ratio": "ratio",
    "local_search.lsdsf.kept_ratio": "ratio",
    "matching.config_search.matched_ratio": "ratio",
    "phy.enumerate_s": "s",
    "phy.configs": "count",
    "trace.overhead_s": "s",
}

SETUP_PROBE = """\
import json, time
start = time.perf_counter()
import ofdmasched
from ofdmasched.phy import enumerate_configurations
imported = time.perf_counter()
configs = len(enumerate_configurations({width}))
print(json.dumps({{"enumerate_s": time.perf_counter() - imported, "configs": configs,
                  "file": ofdmasched.__file__}}), flush=True)
"""


def measure_setup(width: int) -> dict:
    """Median spawn-to-ready time of fresh interpreters, and what they report."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ready, enumerate_s = [], []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE.format(width=width)],
                              stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with status {proc.returncode}")
        info = json.loads(line)
        if not Path(info["file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe imported {info['file']}, not {SRC}")
        if i:
            ready.append(elapsed)
            enumerate_s.append(info["enumerate_s"])
    return {"setup_s": statistics.median(ready),
            "phy.enumerate_s": statistics.median(enumerate_s),
            "phy.configs": info["configs"]}


class Bench:
    """Runs one workload's operations and keeps the checks' ledger."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, tuple] = {}
        self.outcomes: dict = {}

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)

    def _call(self, op):
        """Time one operation; None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            traceback.print_exc()
            self.fail(f"{op.name}: raised")
            return None
        return time.perf_counter() - start, out

    def warm_up(self):
        for op in self.ops:
            called = self._call(op)
            if called is None:
                continue
            outcome = op.verify(called[1])
            self.outcomes[op.name] = outcome
            self.digests[op.name] = op.digest(called[1])
            if outcome.problems:
                self.fail(f"{op.name}: {outcome.problems[:3]}")

    def timed_pass(self) -> dict[str, float] | None:
        """Seconds per operation; None unless every operation succeeded."""
        gc.collect()
        seconds = {}
        for op in self.ops:
            called = self._call(op)
            if called is None:
                return None
            seconds[op.name], out = called
            if op.digest(out) != self.digests.get(op.name):
                self.fail(f"{op.name}: output differs from the warm-up pass")
                return None
            if self.outcomes[op.name].problems:
                self.fail(f"{op.name}: output fails its checks")
                return None
        return seconds


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(bench: Bench, passes: list[dict], setup: dict) -> dict:
    outcomes = bench.outcomes
    lsds = outcomes.get("lsds")
    others = [o.profit_ratio for name, o in outcomes.items()
              if name != "lsds" and o.profit_ratio is not None]
    overlay = outcomes.get("overlay")
    return {
        "setup_s": setup["setup_s"],
        "wall_s": _median([sum(p.values()) for p in passes]),
        "lsds_s": _median([p["lsds"] for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "profit_ratio.lsds": lsds and lsds.profit_ratio,
        "profit_ratio.min": min(others, default=None),
        "critical_delivered_pct.lsds": lsds and 100.0 - lsds.critical_drop_pct,
        # the overlay counts satisfaction as 1.0 when no best-effort load is offered
        "be_satisfaction": overlay.be_satisfaction if overlay else 1.0,
        "ok_rate": 1.0 - bench.failed / bench.attempted,
    }


def per_layer(bench: Bench, tracer, plain: list[dict], with_trace: list[dict],
              setup: dict) -> dict:
    runs = range(1, len(with_trace) + 1)
    times = [tracer.self_times(run) for run in runs]
    counts = [dict(tracer.counts[run]) for run in runs]
    if any(c != counts[0] for c in counts):
        bench.fail("traced passes disagree on the layer counts")
    count = counts[0] if counts else {}
    for op in bench.ops:
        if not hasattr(op, "local_search_counts"):
            continue
        for name, value in op.local_search_counts().items():
            if count.get(name) != value:
                bench.fail(f"traced {name} = {count.get(name)}, untraced {value}")
    metrics = {name: _median([t.get(span, 0.0) for t in times])
               for name, span in LAYER_TIMES.items()}
    metrics.update({name: count.get(name, 0) for name in LAYER_COUNTS})
    for scheduler in ("lsds", "lsdsf"):
        commits = count.get(f"local_search.{scheduler}.commits", 0)
        batches = count.get(f"local_search.{scheduler}.batches", 0)
        metrics[f"local_search.{scheduler}.kept_ratio"] = batches / commits if commits else 0.0
    calls = count.get("matching.config_search.calls", 0)
    metrics["matching.config_search.matched_ratio"] = (
        count.get("matching.config_search.matched", 0) / calls if calls else 0.0)
    metrics["phy.enumerate_s"] = setup["phy.enumerate_s"]
    metrics["phy.configs"] = setup["phy.configs"]
    metrics["trace.overhead_s"] = (
        _median([sum(p.values()) for p in with_trace])
        - _median([sum(p.values()) for p in plain])) if with_trace else None
    return metrics


def measure(bench: Bench, seconds: int, tracer=None) -> tuple[list, list]:
    """Timed passes for about ``seconds``; with a tracer, each untraced pass is
    followed by a traced one. Returns the untraced and the traced passes."""
    plain, with_trace = [], []
    start = time.perf_counter()
    step = 0.0
    while len(plain) < MIN_PASSES or time.perf_counter() - start + step <= seconds:
        began = time.perf_counter()
        seconds_by_op = bench.timed_pass()
        if seconds_by_op is None:
            break
        plain.append(seconds_by_op)
        if tracer is not None:
            tracer.run_id = len(plain)
            with tracer.patched():
                seconds_by_op = bench.timed_pass()
            if seconds_by_op is None:
                break
            with_trace.append(seconds_by_op)
        step = time.perf_counter() - began
    return plain, with_trace


def _print_result(correct, bench, metrics, units):
    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"metric {name:<40} {shown:>14} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    if not (SRC / "ofdmasched" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of each horizon to run (for quick smoke runs)")
    args = parser.parse_args(argv)
    if not 0 < args.scale <= 1 or args.seconds < 1:
        parser.error("need 0 < --scale <= 1 and --seconds >= 1")

    os.environ.pop("DPMSS_THREADS", None)
    width, make_ops = WORKLOADS[args.workload]
    setup = measure_setup(width)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bench = Bench(make_ops(args.seed, args.scale, Path(tmp)))
        bench.warm_up()
        tracer = Tracer() if args.trace else None
        plain, with_trace = measure(bench, args.seconds, tracer)
        if tracer is None:
            metrics, units = end_to_end(bench, plain, setup), END_TO_END
        else:
            metrics, units = per_layer(bench, tracer, plain, with_trace, setup), PER_LAYER
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        passes = [("untraced", p) for p in plain] + [("traced", p) for p in with_trace]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} timed passes after one warm-up")
    for kind, seconds_by_op in passes:
        print(f"pass {kind:<8} total={sum(seconds_by_op.values()):.4f} "
              + " ".join(f"{name}={s:.4f}" for name, s in seconds_by_op.items()))
    for name, digest in bench.digests.items():
        print(f"sha256 {name:<18} {digest[0]}")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    if not args.trace:
        print(f"metric {'error_rate':<40} {bench.failed / bench.attempted:>14.6g} ratio")
        lsds = bench.outcomes.get("lsds")
        if lsds is not None:
            print(f"metric {'critical_drop_pct.lsds':<40} {lsds.critical_drop_pct:>14.6g} %")
    correct = bench.failed == 0 and all(v is not None for v in metrics.values())
    _print_result(correct, bench, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
