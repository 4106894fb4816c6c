"""Reproducible experiment pipeline: workload -> scheduler -> validator ->
simulator -> metrics, with all artifacts written to disk.

Every run emits ``jobs.txt``, ``schedule.txt``, ``report.json`` and
``metrics.csv`` into the output directory. Repetitions re-run the
pipeline with consecutive seeds and aggregate mean and 95% confidence
intervals; the worker count is capped by the ``DPMSS_THREADS``
environment variable (sequential by default).
"""

from __future__ import annotations

import json
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .local_search import resolve_grid_us
from .phy import root_tones
from .scheduling import DEFAULT_TXOP_US, Schedule, check_txop, dump_schedule
from .simulator import (
    GRID_SCHEDULERS,
    SCHEDULERS,
    ChannelScenario,
    SimulationReport,
    run_scenario,
)
from .workload import JobSet, dump_jobs, load_use_case, use_case_profiles

__all__ = ["CSV_HEADER", "ExperimentConfig", "MetricsRow", "run", "compare"]

CSV_HEADER = ("use_case,scheduler,bandwidth_mhz,channel,seed,"
              "profit_ratio,drop_pct,critical_drop_pct,runtime_ms")
_TYPES = {"int": int, "str": str, "bool": bool}


@dataclass(frozen=True)
class ExperimentConfig:
    use_case: str
    scheduler: str
    bandwidth_mhz: int = 40
    channel: str = "ideal"
    seed: int = 1
    horizon_us: int = 200_000
    txop_us: int = DEFAULT_TXOP_US
    grid_us: int | None = None
    reps: int = 1
    out_dir: str | None = None
    force: bool = False

    def validate(self):
        for f in fields(self):
            # annotations are strings here: "int", "int | None", "str", "bool", ...
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            # exact type: a bool is not an int, nor an int a bool
            if not (value is None and optional) and type(value) is not _TYPES[kind]:
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        use_case_profiles(self.use_case)  # owners raise their rules, naming the choices
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler}; choose from {tuple(SCHEDULERS)}")
        root_tones(self.bandwidth_mhz)
        phy = ChannelScenario(self.channel).phy()
        if self.horizon_us <= 0 or self.reps < 1:
            raise ValueError("horizon and reps must be positive")
        if self.grid_us is not None and self.grid_us <= 0:
            raise ValueError(f"grid_us must be positive, got {self.grid_us}")
        if self.scheduler in GRID_SCHEDULERS:
            resolve_grid_us(self.grid_us, phy, self.horizon_us, self.txop_us)
        check_txop(self.txop_us, phy)
        if self.use_case == "UC3" and self.bandwidth_mhz < 160 and not self.force:
            raise ValueError(
                f"A bandwidth of {self.bandwidth_mhz} MHz cannot handle this much load: "
                "UC3 is sized for 160 MHz. Pass --bandwidth 160, or --force to run anyway.")


@dataclass(frozen=True)
class MetricsRow:
    use_case: str
    scheduler: str
    bandwidth_mhz: int
    channel: str
    seed: int
    profit_ratio: float
    drop_pct: float
    critical_drop_pct: float | None
    runtime_ms: float

    def csv(self) -> str:
        crit = "" if self.critical_drop_pct is None else f"{self.critical_drop_pct:.4f}"
        return (f"{self.use_case},{self.scheduler},{self.bandwidth_mhz},"
                f"{self.channel},{self.seed},{self.profit_ratio:.6f},"
                f"{self.drop_pct:.4f},{crit},{self.runtime_ms:.3f}")


def _metrics_from(config, jobs: JobSet, report: SimulationReport) -> MetricsRow:
    total_profit = jobs.total_profit
    achieved = sum(j.profit for j in jobs.jobs if j.id in report.delivered)
    criticals = [j for j in jobs.jobs if j.critical]
    # a use case where every application carries the top profit has no
    # distinguished critical class; its critical breakdown stays blank
    if len(criticals) == len(jobs.jobs) or not criticals:
        crit_pct = None
    else:
        crit_dropped = sum(1 for j in criticals if j.id in report.dropped)
        crit_pct = 100.0 * crit_dropped / len(criticals)
    return MetricsRow(
        use_case=config.use_case,
        scheduler=config.scheduler,
        bandwidth_mhz=config.bandwidth_mhz,
        channel=config.channel,
        seed=jobs.seed,
        profit_ratio=achieved / total_profit if total_profit else 1.0,
        drop_pct=100.0 * len(report.dropped) / len(jobs) if len(jobs) else 0.0,
        critical_drop_pct=crit_pct,
        runtime_ms=report.runtime_ms,
    )


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"stage '{name}' failed: {exc}") from exc


def _load_jobs(config: ExperimentConfig) -> JobSet:
    with _stage("workload"):
        return load_use_case(config.use_case, config.horizon_us, config.seed)


def _single_run(config: ExperimentConfig,
                jobs: JobSet) -> tuple[MetricsRow, Schedule, SimulationReport]:
    with _stage(f"scheduler {config.scheduler}"):
        report, schedule = run_scenario(
            jobs, config.scheduler, ChannelScenario(config.channel), config.bandwidth_mhz,
            txop=config.txop_us, grid_us=config.grid_us)
    with _stage("metrics"):
        row = _metrics_from(config, jobs, report)
    return row, schedule, report


def _rep_worker(args):
    config, seed = args
    config = replace(config, seed=seed)
    row, *_ = _single_run(config, _load_jobs(config))
    return row


def _confidence(values):
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    return mean, half


def run(config: ExperimentConfig) -> MetricsRow:
    """Run one experiment (plus repetitions) and write artifacts."""
    config.validate()
    jobs = _load_jobs(config)
    row, schedule, report = _single_run(config, jobs)

    rows = [row]
    if config.reps > 1:
        seeds = list(range(config.seed + 1, config.seed + config.reps))
        threads = os.environ.get("DPMSS_THREADS", "1")
        try:
            workers = int(threads)
        except ValueError:
            raise ValueError(f"DPMSS_THREADS must be an integer, got {threads!r}") from None
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                extra = list(pool.map(_rep_worker, [(config, s) for s in seeds]))
        else:
            extra = [_rep_worker((config, s)) for s in seeds]
        rows += sorted(extra, key=lambda r: r.seed)

    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "jobs.txt").write_text(dump_jobs(jobs))
        (out / "schedule.txt").write_text(dump_schedule(schedule))
        (out / "metrics.csv").write_text(
            "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n")
        payload = {
            # out_dir and force do not change what a run computes
            "config": {k: v for k, v in asdict(config).items()
                       if k not in ("out_dir", "force")},
            "delivered": sorted(report.delivered),
            "dropped": sorted(report.dropped),
            "per_app": report.per_app,
            "runtime_ms": report.runtime_ms,
            "metrics": [r.__dict__ for r in rows],
        }
        if len(rows) > 1:
            ratio_mean, ratio_ci = _confidence([r.profit_ratio for r in rows])
            drop_mean, drop_ci = _confidence([r.drop_pct for r in rows])
            payload["aggregate"] = {
                "profit_ratio_mean": ratio_mean, "profit_ratio_ci95": ratio_ci,
                "drop_pct_mean": drop_mean, "drop_pct_ci95": drop_ci,
            }
        (out / "report.json").write_text(json.dumps(payload, indent=2))
    return rows[0]


def compare(configs: list[ExperimentConfig]) -> tuple[str, list[MetricsRow]]:
    """Run several schedulers on one workload; returns (table, rows)."""
    if len(configs) < 2:
        raise ValueError("compare needs at least two configurations")
    anchor = configs[0]
    for c in configs[1:]:
        if (c.use_case, c.seed, c.horizon_us) != (anchor.use_case, anchor.seed,
                                                  anchor.horizon_us):
            raise ValueError("compared configurations must share use case, seed "
                             "and horizon")
    for c in configs:
        c.validate()
    jobs = _load_jobs(anchor)
    rows = [_single_run(c, jobs)[0] for c in configs]
    header = f"{'scheduler':<18}{'profit_ratio':>14}{'drop_pct':>10}{'crit_drop':>11}{'runtime_ms':>12}"
    lines = [header, "-" * len(header)]
    for r in rows:
        crit = "-" if r.critical_drop_pct is None else f"{r.critical_drop_pct:.2f}"
        lines.append(f"{r.scheduler:<18}{r.profit_ratio:>14.6f}{r.drop_pct:>10.2f}"
                     f"{crit:>11}{r.runtime_ms:>12.1f}")
    return "\n".join(lines), rows
