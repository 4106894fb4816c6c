"""Schedule validation, channel scenarios, and the best-effort overlay.

The validator re-derives every feasibility constraint from scratch:
batch intervals within the TXOP, configurations legal for the channel,
one job per machine, admissibility of every assignment (release by the
batch start, completion by batch end and deadline), bandwidth within the
budget, pairwise disjoint batches, and no job in two batches. Violations
come back as data; an empty list means the schedule is feasible.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace

from .benchmarks import greedy_benchmark
from .local_search import default_grid_us, lsds_config_search, lsds_run, lsdsf_run
from .phy import (
    PhyProfile,
    config_table,
    configuration_index,
    full_26_tone_configuration,
    machines_for_configuration,
    root_tones,
    tx_duration,
)
from .scheduling import Batch, Interval, Schedule, conflicts, make_schedule
from .workload import Job, JobSet

__all__ = [
    "CHANNEL_QUALITIES",
    "DEFAULT_MCS_MAP",
    "ChannelScenario",
    "SimulationReport",
    "BestEffortPacket",
    "validate_schedule",
    "run_scenario",
    "scheduler_registry",
    "escalate_profit",
    "generate_best_effort",
    "best_effort_overlay",
]

CHANNEL_QUALITIES = ("ideal", "slightly_poor", "moderately_poor", "very_poor")

# Channel quality -> MCS. The 5/15/40 m rings map to progressively lower
# rates; 40 m lands at BPSK 1/2, which is what makes the most loaded use
# case shed critical packets only there.
DEFAULT_MCS_MAP = {
    "ideal": 11,
    "slightly_poor": 9,
    "moderately_poor": 7,
    "very_poor": 0,
}


@dataclass(frozen=True)
class ChannelScenario:
    quality: str = "ideal"
    mcs_map: dict = field(default_factory=lambda: dict(DEFAULT_MCS_MAP))

    def __post_init__(self):
        if self.quality not in CHANNEL_QUALITIES:
            raise ValueError(f"unknown channel quality: {self.quality}")
        ordered = [self.mcs_map[q] for q in CHANNEL_QUALITIES]
        if any(a < b for a, b in zip(ordered, ordered[1:])):
            raise ValueError("mcs_map must be non-increasing with worsening quality")
        if self.mcs_map["ideal"] != 11:
            raise ValueError("ideal quality must map to MCS 11")

    def phy(self, base: PhyProfile | None = None) -> PhyProfile:
        base = base or PhyProfile()
        return replace(base, mcs=self.mcs_map[self.quality])


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
    scheduler: str
    quality: str

    def __post_init__(self):
        if self.delivered & self.dropped:
            raise ValueError("delivered and dropped overlap")


def scheduler_registry():
    """Name -> callable(jobs, channel_width, phy, txop, grid_us) -> Schedule.

    The one list of schedulers that ``run_scenario``, ``experiment`` and
    the CLI accept.
    """

    def run_lsds(jobs, width, phy, txop, grid_us):
        return lsds_run(jobs, width, phy, txop=txop, grid_us=grid_us)[0]

    def run_lsdsf(jobs, width, phy, txop, grid_us):
        config = full_26_tone_configuration(width)
        machines = machines_for_configuration(config, phy)
        return lsdsf_run(jobs, machines, txop=txop, grid_us=grid_us, config=config)[0]

    def bench(kind):
        def run(jobs, width, phy, txop, grid_us):
            return greedy_benchmark(kind, jobs, width, phy, txop=txop)
        return run

    return {
        "lsds": run_lsds,
        "lsdsf": run_lsdsf,
        "edf": bench("edf"),
        "lrf": bench("lrf"),
        "nlrf": bench("nlrf"),
    }


def run_scenario(
    jobs: JobSet,
    scheduler: str,
    scenario: ChannelScenario,
    channel_width: int,
    phy: PhyProfile | None = None,
    txop: int = 4_000,
    grid_us: int | None = None,
) -> tuple[SimulationReport, Schedule]:
    """Run one scheduler under a channel scenario and tally the outcome.

    Processing times are recomputed under the scenario's MCS before the
    scheduler runs; its schedule is validated and any violation is a
    hard error (schedulers must emit feasible schedules by contract).
    """
    registry = scheduler_registry()
    if scheduler not in registry:
        raise ValueError(f"unregistered scheduler: {scheduler}")
    phy = scenario.phy(phy)
    grid_us = default_grid_us(phy) if grid_us is None else grid_us
    t0 = time.perf_counter()
    try:
        schedule = registry[scheduler](jobs, channel_width, phy, txop, grid_us)
    except Exception as exc:
        raise RuntimeError(f"scheduler {scheduler} failed: {exc}") from exc
    runtime_ms = (time.perf_counter() - t0) * 1e3
    violations = validate_schedule(schedule, jobs, channel_width, phy, txop)
    if violations:
        raise RuntimeError(
            f"scheduler {scheduler} produced an infeasible schedule: {violations[:3]}")

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
        runtime_ms=runtime_ms, scheduler=scheduler, quality=scenario.quality,
    )
    return report, schedule


# ---- best-effort traffic ----------------------------------------------------


@dataclass
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
    nodes: int = 3,
    initial_profit: float = 2.0,
) -> list[BestEffortPacket]:
    """Poisson best-effort arrivals totalling ``mean_load_mbps`` offered load."""
    packets = []
    if mean_load_mbps <= 0:
        return packets
    rate_per_node = mean_load_mbps * 1e6 / (size * 8) / nodes  # packets per second
    mean_us = 1e6 / rate_per_node
    for node in range(nodes):
        rng = random.Random(f"{seed}:best-effort:{node}")
        t = 0.0
        while True:
            t += -mean_us * math.log(1.0 - rng.random())
            arrival = int(t)
            if arrival >= horizon:
                break
            packets.append(BestEffortPacket(0, arrival, size, initial_profit))
    packets.sort(key=lambda p: p.arrival_us)
    for i, p in enumerate(packets):
        p.id = i
    return packets


def best_effort_overlay(
    base_schedule: Schedule,
    jobs: JobSet,
    be_packets: list[BestEffortPacket],
    channel_width: int,
    phy: PhyProfile | None = None,
    txop: int = 4_000,
    critical_threshold: float | None = None,
) -> tuple[Schedule, float, float]:
    """Admit best-effort packets onto the factory schedule's spare capacity.

    Factory assignments are never touched: best-effort packets ride free
    RUs of existing batches, and the idle time between batches is filled
    with extra best-effort-only batches, each taking the configuration and
    packets of ``lsds_config_search``. A packet that keeps missing
    rounds has its profit escalated toward ``critical_threshold``, which
    raises its admission priority. Returns the augmented schedule, the
    satisfaction ratio (throughput achieved / offered) and the fraction
    of total RU-time consumed by best-effort traffic.
    """
    phy = phy or PhyProfile()
    if critical_threshold is None:
        critical_threshold = max((j.profit for j in jobs.jobs), default=1.0)
    horizon = jobs.horizon
    offered_bits = sum(p.size * 8 for p in be_packets)

    be_id_base = (max((j.id for j in jobs.jobs), default=-1)) + 1
    pending = [BestEffortPacket(be_id_base + p.id, p.arrival_us, p.size, p.profit)
               for p in be_packets]
    be_jobs = {
        p.id: Job(id=p.id, station=-1, release=p.arrival_us, deadline_abs=horizon,
                  profit=p.profit, size=p.size, app="best-effort")
        for p in pending
    }

    delivered_bits = 0
    be_ru_time = 0  # tone-microseconds
    new_batches = []
    augmented = []
    waiting: list[BestEffortPacket] = []
    queue = list(pending)
    qi = 0

    def admit_on_free(batch):
        nonlocal delivered_bits, be_ru_time
        t1, t2 = batch.interval.start, batch.interval.end
        used = {m for _, m in batch.assignments}
        free = [i for i in range(len(batch.machines)) if i not in used]
        free.sort(key=lambda i: int(batch.machines[i].tone_class))  # smallest first
        extra = []
        waiting.sort(key=lambda p: (-p.profit, p.id))
        for p in list(waiting):
            if p.arrival_us > t1 or not free:
                continue
            chosen = None
            for idx in free:
                if t1 + tx_duration(p.size, batch.machines[idx]) <= t2:
                    chosen = idx
                    break
            if chosen is None:
                continue
            free.remove(chosen)
            extra.append((p.id, chosen))
            waiting.remove(p)
            delivered_bits += p.size * 8
            be_ru_time += batch.machines[chosen].bandwidth * (t2 - t1)
        if extra:
            return Batch(interval=batch.interval,
                         assignments=tuple(sorted(batch.assignments + tuple(extra))),
                         machines=batch.machines, config=batch.config)
        return batch

    def fill_gap(gap_start, gap_end):
        nonlocal delivered_bits, be_ru_time
        t = gap_start
        while t < gap_end and waiting:
            candidates = [be_jobs[p.id] for p in waiting if p.arrival_us <= t]
            if not candidates:
                arrivals = [p.arrival_us for p in waiting if p.arrival_us > t]
                if not arrivals:
                    break
                t = min(arrivals)
                continue
            end_limit = min(gap_end, t + txop)
            if end_limit - t < 16:
                break
            config, pairs, matched = lsds_config_search(
                candidates, Interval(t, end_limit), channel_width, phy)
            if not matched:
                break
            machines = config_table(channel_width).machines(configuration_index(config), phy)
            batch_end = t
            for job_id, m_idx in pairs:
                job = be_jobs[job_id]
                d = tx_duration(job.size, machines[m_idx])
                batch_end = max(batch_end, t + d)
                delivered_bits += job.size * 8
                be_ru_time += machines[m_idx].bandwidth * d
            new_batches.append(Batch(
                interval=Interval(t, batch_end),
                assignments=tuple(sorted(pairs)),
                machines=machines, config=config,
            ))
            matched_ids = {j.id for j in matched}
            waiting[:] = [p for p in waiting if p.id not in matched_ids]
            t = batch_end + 1

    ordered = sorted(base_schedule.batches, key=lambda b: b.interval.start)
    cursor = 0
    for batch in ordered:
        while qi < len(queue) and queue[qi].arrival_us <= batch.interval.start:
            waiting.append(queue[qi])
            qi += 1
        if batch.interval.start - cursor > 1:
            fill_gap(cursor + 1, batch.interval.start - 1)
        augmented.append(admit_on_free(batch))
        for p in waiting:
            if p.arrival_us <= batch.interval.start:
                p.profit = escalate_profit(p.profit, critical_threshold)
                be_jobs[p.id] = replace(be_jobs[p.id], profit=p.profit)
        cursor = batch.interval.end
    while qi < len(queue):
        waiting.append(queue[qi])
        qi += 1
    if horizon - cursor > 1:
        fill_gap(cursor + 1, horizon)

    profit_of = {j.id: j.profit for j in jobs.jobs}
    profit_of.update({j.id: j.profit for j in be_jobs.values()})
    schedule = make_schedule(augmented + new_batches, profit_of)

    satisfaction = 1.0 if offered_bits == 0 else delivered_bits / offered_bits
    utilization = be_ru_time / (root_tones(channel_width) * horizon)
    return schedule, satisfaction, utilization
