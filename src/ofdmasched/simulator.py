"""Scheduler table, schedule validation, channel scenarios, best-effort overlay.

The validator re-derives every feasibility constraint from scratch:
batch intervals within the TXOP, configurations legal for the channel,
every assigned RU on the channel's PHY, one job per machine,
admissibility of every assignment (release by the batch start,
completion by batch end and deadline), bandwidth within the budget,
pairwise disjoint batches, and no job in two batches. Violations
come back as data; an empty list means the schedule is feasible.

The best-effort overlay adds best-effort packets to a factory schedule
without moving factory traffic: on the free RUs of its batches and in
new batches between them, both chosen by the ``local_search`` kernel.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .benchmarks import BENCHMARK_KINDS, greedy_benchmark
from .local_search import lsds_config_search, lsds_run, lsdsf_run, pick_jobs
from .phy import (
    TONE_CLASSES,
    PhyProfile,
    config_table,
    configuration_index,
    full_26_tone_configuration,
    machines_for_configuration,
    root_tones,
    tx_duration,
)
from .scheduling import DEFAULT_TXOP_US, Batch, Interval, Schedule, conflicts, make_schedule
from .workload import Job, JobSet, _poisson_releases, _station_rng

__all__ = [
    "CHANNEL_QUALITIES",
    "DEFAULT_MCS_MAP",
    "ChannelScenario",
    "SimulationReport",
    "BestEffortPacket",
    "validate_schedule",
    "run_scenario",
    "SCHEDULERS",
    "GRID_SCHEDULERS",
    "escalate_profit",
    "generate_best_effort",
    "best_effort_overlay",
]

# Channel quality -> MCS. The 5/15/40 m rings map to progressively lower
# rates; 40 m lands at BPSK 1/2, which is what makes the most loaded use
# case shed critical packets only there.
DEFAULT_MCS_MAP = {
    "ideal": 11,
    "slightly_poor": 9,
    "moderately_poor": 7,
    "very_poor": 0,
}

CHANNEL_QUALITIES = tuple(DEFAULT_MCS_MAP)


@dataclass(frozen=True)
class ChannelScenario:
    quality: str = "ideal"

    def __post_init__(self):
        if self.quality not in CHANNEL_QUALITIES:
            raise ValueError(f"unknown channel quality: {self.quality}; "
                             f"choose from {CHANNEL_QUALITIES}")

    def phy(self) -> PhyProfile:
        return PhyProfile(mcs=DEFAULT_MCS_MAP[self.quality])


def validate_schedule(
    schedule: Schedule | list[Batch],
    jobs: JobSet,
    channel_width: int,
    phy: PhyProfile,
    txop: int,
) -> list[str]:
    """All feasibility violations of a schedule; empty list means feasible."""
    batches = list(schedule.batches) if isinstance(schedule, Schedule) else list(schedule)
    by_id = {j.id: j for j in jobs.jobs}
    budget = root_tones(channel_width)
    violations = []

    for i, b in enumerate(batches):
        t1, t2 = b.interval.start, b.interval.end
        if b.interval.length > txop:
            violations.append(f"txop: batch {i} length {b.interval.length} exceeds {txop}")
        if b.config is not None:
            try:
                if b.config.channel_width != channel_width:
                    raise ValueError("width mismatch")
                configuration_index(b.config)
            except ValueError:
                violations.append(f"configuration: batch {i} uses illegal config {b.config}")
            batch_classes = sorted(m.tone_class for m in b.machines)
            config_classes = sorted(b.config.ru_classes_desc())
            if batch_classes != config_classes:
                violations.append(f"configuration: batch {i} machines disagree with config")
        used = [m for _, m in b.assignments]
        if len(set(used)) != len(used):
            violations.append(f"machine reuse: batch {i} assigns a machine twice")
        active_bw = 0
        for job_id, m_idx in b.assignments:
            if not 0 <= m_idx < len(b.machines):
                violations.append(f"machine index: batch {i} machine {m_idx} out of range")
                continue
            machine = b.machines[m_idx]
            active_bw += machine.bandwidth
            if machine.phy != phy:
                violations.append(f"phy: batch {i} machine {m_idx} runs {machine.phy}, "
                                  f"not the channel's {phy}")
            job = by_id.get(job_id)
            if job is None:
                violations.append(f"unknown job: batch {i} job {job_id}")
                continue
            if job.release > t1:
                violations.append(
                    f"admissibility: batch {i} job {job_id} released {job.release} after start {t1}")
                continue
            p = tx_duration(job.size, machine)
            if t1 + p > min(t2, job.deadline_abs):
                violations.append(
                    f"admissibility: batch {i} job {job_id} finish {t1 + p} "
                    f"misses min(end={t2}, deadline={job.deadline_abs})")
        if active_bw > budget:
            violations.append(f"bandwidth: batch {i} uses {active_bw} tones > {budget}")

    ordered = sorted(range(len(batches)), key=lambda k: batches[k].interval.start)
    for a, b in zip(ordered, ordered[1:]):
        if conflicts(batches[a].interval, batches[b].interval):
            violations.append(f"conflict: batches {a} and {b} overlap")

    seen: dict[int, int] = {}
    for i, b in enumerate(batches):
        for job_id, _ in b.assignments:
            if job_id in seen:
                violations.append(f"job reuse: job {job_id} in batches {seen[job_id]} and {i}")
            seen[job_id] = i
    return violations


@dataclass(frozen=True)
class SimulationReport:
    delivered: frozenset[int]
    dropped: frozenset[int]
    per_app: dict
    runtime_ms: float

    def __post_init__(self):
        if self.delivered & self.dropped:
            raise ValueError("delivered and dropped overlap")


def _run_lsds(jobs, width, phy, txop, grid_us):
    return lsds_run(jobs, width, phy, txop=txop, grid_us=grid_us)[0]


def _run_lsdsf(jobs, width, phy, txop, grid_us):
    config = full_26_tone_configuration(width)
    machines = machines_for_configuration(config, phy)
    return lsdsf_run(jobs, machines, txop=txop, grid_us=grid_us, config=config)[0]


def _run_benchmark(kind, jobs, width, phy, txop, grid_us):
    return greedy_benchmark(kind, jobs, width, phy, txop=txop)


# name -> runner(jobs, channel_width, phy, txop, grid_us) -> Schedule; the runners
# reach the schedulers through this module's globals, which tracing wraps.
SCHEDULERS = {
    "lsds": _run_lsds,
    "lsdsf": _run_lsdsf,
    **{kind: partial(_run_benchmark, kind) for kind in BENCHMARK_KINDS},
}
# the schedulers that try intervals on a time grid
GRID_SCHEDULERS = ("lsds", "lsdsf")


def run_scenario(
    jobs: JobSet,
    scheduler: str,
    scenario: ChannelScenario,
    channel_width: int,
    txop: int = DEFAULT_TXOP_US,
    grid_us: int | None = None,
) -> tuple[SimulationReport, Schedule]:
    """Run one scheduler under a channel scenario and tally the outcome.

    Processing times are recomputed under the scenario's MCS before the
    scheduler runs. A scheduler's ``ValueError`` passes through; a violation
    in its schedule is a ``RuntimeError`` (schedules are feasible by contract).
    """
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unregistered scheduler: {scheduler}")
    phy = scenario.phy()
    t0 = time.perf_counter()
    schedule = SCHEDULERS[scheduler](jobs, channel_width, phy, txop, grid_us)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    violations = validate_schedule(schedule, jobs, channel_width, phy, txop)
    if violations:
        raise RuntimeError(f"infeasible schedule: {violations[:3]}")

    delivered = frozenset(schedule.scheduled_jobs)
    dropped = frozenset(j.id for j in jobs.jobs) - delivered
    per_app: dict = {}
    for j in jobs.jobs:
        row = per_app.setdefault(j.app or "default", {
            "generated": 0, "delivered": 0, "dropped": 0,
            "critical": bool(j.critical),
        })
        row["generated"] += 1
        row["delivered" if j.id in delivered else "dropped"] += 1
    report = SimulationReport(
        delivered=delivered, dropped=dropped, per_app=per_app,
        runtime_ms=runtime_ms)
    return report, schedule


# ---- best-effort traffic ----------------------------------------------------

BEST_EFFORT_NODES = 3
BEST_EFFORT_PROFIT = 2.0


@dataclass(frozen=True)
class BestEffortPacket:
    id: int
    arrival_us: int
    size: int
    profit: float


def escalate_profit(profit: float, critical_threshold: float) -> float:
    """One deferral round of profit escalation; fixed point at the threshold."""
    return (profit + critical_threshold) / 2.0


def generate_best_effort(
    mean_load_mbps: float,
    horizon: int,
    seed: int,
    size: int = 1500,
) -> list[BestEffortPacket]:
    """Poisson best-effort arrivals from ``BEST_EFFORT_NODES`` nodes totalling
    ``mean_load_mbps`` offered load, numbered in arrival order."""
    if size < 1:
        raise ValueError(f"best-effort packet size must be at least 1 byte, got {size}")
    if not math.isfinite(mean_load_mbps):
        raise ValueError(f"best-effort load must be finite, got {mean_load_mbps} Mbps")
    if mean_load_mbps <= 0:
        return []
    rate_per_node = mean_load_mbps * 1e6 / (size * 8) / BEST_EFFORT_NODES  # packets per second
    mean_us = 1e6 / rate_per_node
    arrivals = [arrival for node in range(BEST_EFFORT_NODES)
                for arrival in _poisson_releases(_station_rng(seed, "best-effort", node),
                                                 mean_us, horizon)]
    return [BestEffortPacket(i, arrival, size, BEST_EFFORT_PROFIT)
            for i, arrival in enumerate(sorted(arrivals))]


def best_effort_overlay(
    base_schedule: Schedule,
    jobs: JobSet,
    be_packets: list[BestEffortPacket],
    channel_width: int,
    phy: PhyProfile | None = None,
    txop: int = DEFAULT_TXOP_US,
) -> tuple[Schedule, float, float]:
    """Admit best-effort packets onto the factory schedule's spare capacity.

    Packet ``p`` becomes job ``first + p.id``, ``first`` being one past the
    highest factory id, released at its arrival with the horizon as its
    deadline. Factory assignments are never touched: packets ride the free
    RUs of existing batches, and the idle time between batches is filled
    with best-effort-only batches. Both steps take their packets from the
    ``local_search`` kernel, free RUs as a one-row table and gaps through
    ``lsds_config_search``; the chosen packets go most constrained first,
    then by id, onto the widest free RU. A packet that misses a factory
    batch has its profit escalated toward the highest factory profit,
    which raises its admission priority. Returns the augmented schedule,
    the satisfaction ratio (bits delivered / offered) and best-effort
    airtime: RU bandwidth x transmission duration, summed over its
    packets, as a fraction of root-RU tones x horizon.
    """
    phy = phy or PhyProfile()
    top = max((j.profit for j in jobs.jobs), default=1.0)
    horizon = jobs.horizon
    late = next((p for p in be_packets if p.arrival_us >= horizon), None)
    if late is not None:
        raise ValueError(f"best-effort packet {late.id} arrives at {late.arrival_us} us, "
                         f"not before the horizon {horizon} us")
    first = max((j.id for j in jobs.jobs), default=-1) + 1
    # unserved packets, in release order
    waiting = sorted((Job(id=first + p.id, station=-1, release=p.arrival_us,
                          deadline_abs=horizon, profit=p.profit, size=p.size,
                          app="best-effort") for p in be_packets),
                     key=lambda j: j.release)
    served: dict[int, Job] = {}

    def arrived(t):
        return bisect.bisect_right(waiting, t, key=lambda j: j.release)

    def serve(placed, t):
        served.update((j.id, j) for j in placed)
        n = arrived(t)
        waiting[:n] = [j for j in waiting[:n] if j.id not in served]

    def admit_on_free(batch):
        used = {m for _, m in batch.assignments}
        # machines run widest first, so free RUs do too
        free = [i for i in range(len(batch.machines)) if i not in used]
        if not free:
            return batch
        counts = np.bincount([TONE_CLASSES.index(batch.machines[i].tone_class) for i in free],
                             minlength=len(TONE_CLASSES))
        _, placed = pick_jobs(waiting[: arrived(batch.interval.start)], batch.interval,
                              counts[None, :], phy)
        if not placed:
            return batch
        serve(placed, batch.interval.start)
        extra = tuple((job.id, free[k]) for k, job in enumerate(placed))
        return replace(batch, assignments=tuple(sorted(batch.assignments + extra)))

    def fill_gap(gap_start, gap_end):
        t = gap_start
        while t < gap_end and waiting:
            n = arrived(t)
            if n == 0:
                t = waiting[0].release
                continue
            end_limit = min(gap_end, t + txop)
            if (end_limit - t) * 1_000 < phy.symbol_duration_ns:
                break
            config, pairs, matched = lsds_config_search(
                waiting[:n], Interval(t, end_limit), channel_width, phy)
            if not matched:
                break
            serve(matched, t)
            machines = config_table(channel_width).machines(configuration_index(config), phy)
            batch_end = max(t + tx_duration(served[i].size, machines[m]) for i, m in pairs)
            gap_batches.append(Batch(interval=Interval(t, batch_end),
                                     assignments=tuple(sorted(pairs)),
                                     machines=machines, config=config))
            t = batch_end + 1

    augmented = []
    gap_batches = []
    cursor = 0
    for batch in sorted(base_schedule.batches, key=lambda b: b.interval.start):
        start = batch.interval.start
        if start - cursor > 1:
            fill_gap(cursor + 1, start - 1)
        augmented.append(admit_on_free(batch))
        n = arrived(start)
        waiting[:n] = [j._replace(profit=escalate_profit(j.profit, top)) for j in waiting[:n]]
        cursor = batch.interval.end
    if horizon - cursor > 1:
        fill_gap(cursor + 1, horizon)

    profit_of = {j.id: j.profit for j in jobs.jobs}
    profit_of.update((j.id, j.profit) for j in served.values())
    schedule = make_schedule(augmented + gap_batches, profit_of)

    sent = [(served[i], b.machines[m])
            for b in schedule.batches for i, m in b.assignments if i in served]
    delivered_bits = sum(job.size * 8 for job, _ in sent)
    airtime = sum(m.bandwidth * tx_duration(job.size, m) for job, m in sent)
    offered_bits = sum(p.size * 8 for p in be_packets)
    satisfaction = 1.0 if offered_bits == 0 else delivered_bits / offered_bits
    return schedule, satisfaction, airtime / (root_tones(channel_width) * horizon)
