"""The benchmark's workloads: what one pass runs, and how its outputs are checked.

A pass is a fixed list of operations, each one call into the program's
public API: ``experiment.run`` for a registry scheduler on a use case,
``best_effort_overlay`` on the lsds schedule, or ``slotted_schedule``.
Each operation is timed alone; the harness checks its output outside the
timed region.

Why each workload exists, which ROADMAP item it is meant to show, and the
seed held out for checking a claim are in each workload's docstring below
and, shortened, in its ``why`` in ``BENCHMARK.json``.

The slotted schedulers get an app set generated here from the seed, because
no use case can reach them: UC1 and UC3 have 250 us periods, UC2 has a
1,333,333 us period, and UC4 has deadlines no shorter than their periods,
so ``ofdmasched run --scheduler slotted_*`` exits with an error on every
use case.

UC2 and UC4 have fixed packet sizes and zero arrival offsets, so their job
sets do not depend on the seed; the seed still drives UC3's arrivals, the
best-effort arrivals and the slotted packet sizes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from ofdmasched import experiment, simulator, slotted
from ofdmasched.experiment import ExperimentConfig
from ofdmasched.local_search import DEFAULT_TXOP_US, default_grid_us, lsds_run, lsdsf_run
from ofdmasched.phy import PhyProfile, full_26_tone_configuration, machines_for_configuration
from ofdmasched.scheduling import Schedule, dump_schedule, parse_schedule
from ofdmasched.simulator import generate_best_effort, validate_schedule
from ofdmasched.slotted import SlottedApp
from ofdmasched.workload import Job, JobSet, load_use_case, parse_jobs

# experiment.run always runs the ideal channel, whose PHY is the default profile.
PHY = PhyProfile()

BE_LOAD_MBPS = 20.0
SLOTTED_WIDTH = 40
SLOTTED_WINDOW = 10
# Every period divides 60, so the hyper-period is 60 slots; each app offers
# the same packets per slot and the slot set as a whole offers twice the
# 18 RUs of a 40 MHz 26-tone configuration. The more frequent an app, the
# higher its profit, as for control traffic.
SLOTTED_PERIODS = (3, 4, 5, 6, 10, 12, 15, 20)
SLOTTED_PROFITS = (60.0, 50.0, 40.0, 30.0, 20.0, 15.0, 10.0, 5.0)
SLOTTED_SIZES = (100, 200, 400, 800)
SLOTTED_PACKETS_PER_SLOT = 36


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What the checks learnt from one operation's output."""

    problems: list[str]
    profit_ratio: float | None = None
    critical_drop_pct: float | None = None
    be_satisfaction: float | None = None


class ExperimentOp:
    """``experiment.run`` of one scheduler; reads back the artifacts it writes."""

    def __init__(self, name: str, config: ExperimentConfig, out_dir: Path):
        self.name = name
        self.config = replace(config, scheduler=name, out_dir=str(out_dir / name))
        self.dir = out_dir / name
        self.schedule: Schedule | None = None  # set by verify, for dependants
        self.jobs: JobSet | None = None

    def run(self):
        return experiment.run(self.config)

    def digest(self, row) -> tuple:
        return sha256((self.dir / "schedule.txt").read_text()), row.profit_ratio

    def verify(self, row) -> Outcome:
        c = self.config
        text = (self.dir / "schedule.txt").read_text()
        jobs = parse_jobs((self.dir / "jobs.txt").read_text())
        report = json.loads((self.dir / "report.json").read_text())
        problems = []
        try:
            schedule = parse_schedule(text, {j.id: j.profit for j in jobs.jobs},
                                      c.bandwidth_mhz, PHY)
        except ValueError as exc:
            return Outcome([f"schedule.txt unreadable: {exc}"])
        problems += validate_schedule(schedule, jobs, c.bandwidth_mhz, PHY, c.txop_us)
        delivered, dropped = set(report["delivered"]), set(report["dropped"])
        if len(delivered) + len(dropped) != len(jobs) or \
                delivered | dropped != {j.id for j in jobs.jobs}:
            problems.append("delivered + dropped is not the job set")
        if delivered != set(schedule.scheduled_jobs):
            problems.append("delivered differs from the scheduled jobs")
        self.schedule, self.jobs = schedule, jobs
        return Outcome(problems, row.profit_ratio, row.critical_drop_pct)

    def local_search_counts(self) -> dict[str, int]:
        """The local-search counters of this run, from a direct, untraced call
        made the way the scheduler registry makes it; empty for other schedulers."""
        c = self.config
        if c.scheduler not in ("lsds", "lsdsf"):
            return {}
        jobs = load_use_case(c.use_case, c.horizon_us, c.seed)
        grid = default_grid_us(PHY) if c.grid_us is None else c.grid_us
        if c.scheduler == "lsds":
            schedule, stats = lsds_run(jobs, c.bandwidth_mhz, PHY, txop=c.txop_us, grid_us=grid)
        else:
            config = full_26_tone_configuration(c.bandwidth_mhz)
            schedule, stats = lsdsf_run(jobs, machines_for_configuration(config, PHY),
                                        txop=c.txop_us, grid_us=grid, config=config)
        prefix = f"local_search.{c.scheduler}"
        return {f"{prefix}.candidate_intervals": stats.candidate_intervals,
                f"{prefix}.commits": stats.commits,
                f"{prefix}.evictions": stats.evictions,
                f"{prefix}.batches": len(schedule.batches)}


class OverlayOp:
    """``best_effort_overlay`` of seeded Poisson best-effort load on the lsds schedule."""

    name = "overlay"

    def __init__(self, base: ExperimentOp, seed: int):
        self.base = base
        self.width = base.config.bandwidth_mhz
        self.txop = base.config.txop_us
        self.packets = generate_best_effort(BE_LOAD_MBPS, base.config.horizon_us, seed)

    def run(self):
        return simulator.best_effort_overlay(self.base.schedule, self.base.jobs,
                                             self.packets, self.width, PHY, txop=self.txop)

    def digest(self, result) -> tuple:
        schedule, satisfaction, _ = result
        return sha256(dump_schedule(schedule)), satisfaction

    def verify(self, result) -> Outcome:
        schedule, satisfaction, _ = result
        base, jobs = self.base.schedule, self.base.jobs
        # the overlay numbers best-effort packets after the last factory job
        first = max((j.id for j in jobs.jobs), default=-1) + 1
        be_jobs = [Job(id=first + p.id, station=-1, release=p.arrival_us,
                       deadline_abs=jobs.horizon, profit=p.profit, size=p.size)
                   for p in self.packets]
        union = JobSet(jobs=jobs.jobs + tuple(be_jobs), horizon=jobs.horizon, seed=jobs.seed)
        problems = validate_schedule(schedule, union, self.width, PHY, self.txop)
        # C8: every factory batch survives with all its assignments
        kept = {(b.interval, b.config): set(b.assignments) for b in schedule.batches}
        for b in base.batches:
            if not set(b.assignments) <= kept.get((b.interval, b.config), set()):
                problems.append(f"overlay changed the factory batch at {b.interval}")
        factory = {j.id for j in jobs.jobs}
        if factory & set(schedule.scheduled_jobs) != set(base.scheduled_jobs):
            problems.append("overlay changed which factory jobs are delivered")
        return Outcome(problems, be_satisfaction=satisfaction)


def slotted_apps(seed: int) -> list[SlottedApp]:
    """An oversubscribed, slot-aligned app set whose packet sizes come from the seed.

    Periods, deadlines, profits and load are fixed: the Hungarian solver's
    running time depends on the profit structure, and drawing it from the
    seed moved the optimal matcher's time by a quarter from seed to seed.
    """
    rng = random.Random(f"{seed}:perfbench:slotted")
    per_app = SLOTTED_PACKETS_PER_SLOT / len(SLOTTED_PERIODS)
    return [SlottedApp(name=f"app-{i}", period_slots=period,
                       size=rng.choice(SLOTTED_SIZES), deadline_slots=period // 2,
                       profit=profit, node_count=round(per_app * period))
            for i, (period, profit) in enumerate(zip(SLOTTED_PERIODS, SLOTTED_PROFITS))]


class SlottedOp:
    """``slotted_schedule``, optimal (window None) or windowed."""

    def __init__(self, name: str, seed: int, horizon_slots: int, window: int | None):
        self.name = name
        self.apps = slotted_apps(seed)
        self.config = full_26_tone_configuration(SLOTTED_WIDTH)
        self.horizon_slots = horizon_slots
        self.window = window

    def run(self):
        return slotted.slotted_schedule(self.apps, self.config, self.horizon_slots,
                                        self.window, PHY)

    def digest(self, result) -> tuple:
        schedule, jobs = result
        return sha256(dump_schedule(schedule)), schedule.total_profit

    def verify(self, result) -> Outcome:
        schedule, jobs = result
        problems = validate_schedule(schedule, jobs, SLOTTED_WIDTH, PHY,
                                     DEFAULT_TXOP_US)
        if not set(schedule.scheduled_jobs) <= {j.id for j in jobs.jobs}:
            problems.append("schedule delivers packets outside the job set")
        return Outcome(problems, schedule.total_profit / jobs.total_profit)


def _horizon(us: int, scale: float) -> int:
    return max(1_000, round(us * scale))


def uc3_160(seed, scale, out):
    """UC3, Poisson arrivals, 160 MHz, grid 16 us, TXOP 500 us, 40 ms: lsds,
    lsdsf (26-tone), edf and nlrf.

    The largest pool and the 1827-configuration space: the engine's
    configuration search and commits and the baselines' per-round scoring of
    every configuration do most of the work, and every ``experiment.run``
    regenerates the jobs. ROADMAP item 2 (engine hot path) must show here.
    Held-out seed: 7.
    """
    base = ExperimentConfig("UC3", "lsds", bandwidth_mhz=160, seed=seed,
                            horizon_us=_horizon(40_000, scale), txop_us=500, grid_us=16)
    return [ExperimentOp(s, base, out) for s in ("lsds", "lsdsf", "edf", "nlrf")]


def uc2_grid16(seed, scale, out):
    """UC2, periodic arrivals, 40 MHz, grid 16 us, TXOP 4 ms, 50 ms: all five
    registry schedulers.

    Long-deadline video and logging traffic keeps the pool live across many
    intervals, so lsds does far more conflict lookups and exact evaluations
    than configuration searches, over only 36 configurations. The conflict
    lookup half of ROADMAP item 2, and item 4 (one registry), show here; a
    configuration-search change should not move it. Held-out seed: 7.
    """
    base = ExperimentConfig("UC2", "lsds", bandwidth_mhz=40, seed=seed,
                            horizon_us=_horizon(50_000, scale), txop_us=4_000, grid_us=16)
    return [ExperimentOp(s, base, out) for s in ("lsds", "lsdsf", "edf", "lrf", "nlrf")]


def uc4_overlay_slotted(seed, scale, out):
    """UC4 lsds at 40 MHz over 200 ms, a 20 Mbps best-effort overlay on its
    schedule, and optimal and window-10 slotted matching of a 60-slot app set
    over 360 slots.

    The engine does almost nothing; the Hungarian-backed matching in the
    overlay's gap fills and in slotted windows does the work. ROADMAP item 3
    (one matching kernel per graph shape) shows here; engine changes should
    not move it. Held-out seed: 7.
    """
    lsds = ExperimentOp("lsds", ExperimentConfig(
        "UC4", "lsds", bandwidth_mhz=40, seed=seed,
        horizon_us=_horizon(200_000, scale), txop_us=4_000), out)
    slots = max(1, round(360 * scale))
    return [lsds, OverlayOp(lsds, seed),
            SlottedOp("slotted_optimal", seed, slots, None),
            SlottedOp("slotted_heuristic", seed, slots, SLOTTED_WINDOW)]


# name -> (channel width whose configurations set-up enumerates,
#          ops for (seed, horizon scale, output directory))
WORKLOADS: dict[str, tuple[int, Callable[[int, float, Path], list]]] = {
    "uc3-160": (160, uc3_160),
    "uc2-grid16": (40, uc2_grid16),
    "uc4-overlay-slotted": (40, uc4_overlay_slotted),
}
