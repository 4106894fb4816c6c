"""Slot-based packet-to-RU matching over equal-RU configurations.

Time is cut into fixed 1 ms slots and every slot offers the same j equal
RUs. Packets of periodic applications arrive at period boundaries; a
packet arriving in slot a with delay tolerance d may occupy one RU in
any slot of [a, a+d]. Packet-to-(slot, RU) assignment is a maximum
weight bipartite matching with the application profit on every edge.

The optimal variant builds the graph over one full hyper-period (the
LCM of the periods, after which the arrival pattern repeats), so its
matching is the true optimum; the windowed heuristic looks only
``window_n`` slots ahead and keeps a record of already-scheduled packets
so they do not reappear in later windows. Both are restricted to
equal-RU configurations and reject anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .phy import PhyProfile, RuConfiguration, machines_for_configuration, tx_duration_us
from .scheduling import Batch, Interval, Schedule, make_schedule
from .workload import ApplicationProfile, Job, JobSet

__all__ = [
    "SLOT_US",
    "SlottedApp",
    "slotted_apps_from_profiles",
    "slotted_jobset",
    "slotted_optimal",
    "slotted_heuristic",
    "slotted_schedule",
]

SLOT_US = 1_000
LCM_GUARD_SLOTS = 10_000
MATRIX_GUARD_CELLS = 4_000_000


@dataclass(frozen=True)
class SlottedApp:
    """Periodic application described in slot units.

    ``deadline_slots`` counts additional slots after the arrival slot in
    which the packet may still be sent (0 = only the arrival slot).
    """

    name: str
    period_slots: int
    size: int
    deadline_slots: int
    profit: float
    node_count: int = 1

    def __post_init__(self):
        if self.period_slots < 1:
            raise ValueError("period must be at least one slot")
        if not 0 <= self.deadline_slots < self.period_slots:
            raise ValueError("need 0 <= deadline < period (no station queuing)")


def slotted_apps_from_profiles(profiles: list[ApplicationProfile]) -> list[SlottedApp]:
    """Convert microsecond profiles to slot units; rejects off-grid periods."""
    apps = []
    for p in profiles:
        period_us = p.period_us
        if period_us % SLOT_US:
            raise ValueError(f"{p.name}: period {period_us} us is not a whole slot")
        apps.append(SlottedApp(
            name=p.name,
            period_slots=period_us // SLOT_US,
            size=p.size_max,
            deadline_slots=p.deadline_us // SLOT_US,
            profit=p.profit,
            node_count=p.node_count,
        ))
    return apps


def _check_equal_config(config: RuConfiguration) -> int:
    nonzero = [n for n in config.counts if n]
    if len(nonzero) != 1:
        raise ValueError(f"{config} does not split the channel into equal RUs")
    return nonzero[0]


def _hyperperiod(apps) -> int:
    lcm = 1
    for a in apps:
        lcm = math.lcm(lcm, a.period_slots)
    if lcm > LCM_GUARD_SLOTS:
        raise ValueError(f"hyper-period {lcm} slots exceeds the {LCM_GUARD_SLOTS}-slot guard")
    return lcm


def slotted_jobset(apps: list[SlottedApp], horizon_slots: int) -> JobSet:
    """The concrete packets implied by the slot model, as a JobSet."""
    horizon_us = horizon_slots * SLOT_US
    jobs = []
    max_profit = max(a.profit for a in apps)
    station_base = {}
    base = 0
    for app in apps:
        station_base[app.name] = base
        base += app.node_count
    for slot in range(horizon_slots):
        for app in apps:
            if slot % app.period_slots:
                continue
            for node in range(app.node_count):
                deadline = min((slot + app.deadline_slots + 1) * SLOT_US, horizon_us)
                jobs.append(Job(
                    id=len(jobs), station=station_base[app.name] + node,
                    release=slot * SLOT_US, deadline_abs=deadline,
                    profit=app.profit, size=app.size,
                    critical=app.profit == max_profit, app=app.name,
                ))
    return JobSet(jobs=tuple(jobs), horizon=horizon_us, seed=0)


def _window_batches(jobset, config, phy, w_start, w_len, record):
    """Match the packets not in ``record`` against the (slot, RU) grid of one
    window, add the matched ones to ``record`` and return their batches."""
    j_rus = _check_equal_config(config)
    machines = tuple(machines_for_configuration(config, phy))
    ru_class = machines[0].tone_class
    w_end = w_start + w_len  # exclusive
    packets = [job for job in jobset.jobs
               if job.id not in record
               and job.release // SLOT_US < w_end
               and job.deadline_abs > w_start * SLOT_US]
    if not packets:
        return []
    for job in packets:
        if tx_duration_us(job.size, ru_class, phy) >= SLOT_US:
            raise ValueError(f"packet of {job.size} B does not fit a slot on {config}")
    cells = len(packets) * w_len * j_rus
    if cells > MATRIX_GUARD_CELLS:
        raise ValueError("matching graph exceeds the size guard")
    weights = np.zeros((len(packets), w_len * j_rus))
    allowed = np.zeros_like(weights, dtype=bool)
    for i, job in enumerate(packets):
        a = job.release // SLOT_US
        last = min((job.deadline_abs - 1) // SLOT_US, w_end - 1)
        for slot in range(max(a, w_start), last + 1):
            col = (slot - w_start) * j_rus
            weights[i, col: col + j_rus] = job.profit
            allowed[i, col: col + j_rus] = True
    rows, cols = linear_sum_assignment(weights, maximize=True)
    by_slot: dict[int, list] = {}
    for r, c in zip(rows, cols):
        if allowed[r, c]:
            record.add(packets[r].id)
            slot, ru = divmod(int(c), j_rus)
            by_slot.setdefault(w_start + slot, []).append((ru, packets[r]))
    batches = []
    for slot in sorted(by_slot):
        pairs = by_slot[slot]
        t1 = slot * SLOT_US
        end = max(t1 + tx_duration_us(job.size, ru_class, phy) for _, job in pairs)
        batches.append(Batch(
            interval=Interval(t1, end),
            assignments=tuple(sorted((job.id, ru) for ru, job in pairs)),
            machines=machines,
            config=config,
        ))
    return batches


def _schedule_of(batches, jobset):
    return make_schedule(batches, {j.id: j.profit for j in jobset.jobs}), jobset


def slotted_optimal(
    apps: list[SlottedApp],
    config: RuConfiguration,
    start_slot: int = 0,
    phy: PhyProfile | None = None,
) -> tuple[Schedule, JobSet]:
    """Optimal packet-to-RU matching over one hyper-period from start_slot."""
    phy = phy or PhyProfile()
    lcm = _hyperperiod(apps)
    jobset = slotted_jobset(apps, start_slot + lcm)
    return _schedule_of(_window_batches(jobset, config, phy, start_slot, lcm, set()), jobset)


def slotted_heuristic(
    apps: list[SlottedApp],
    config: RuConfiguration,
    start_slot: int,
    window_n: int,
    scheduled_record: set[int],
    phy: PhyProfile | None = None,
    jobset: JobSet | None = None,
) -> tuple[Schedule, JobSet]:
    """One windowed invocation; matched packet ids are added to the record."""
    if window_n < 1:
        raise ValueError("window must be at least one slot")
    phy = phy or PhyProfile()
    if jobset is None:
        jobset = slotted_jobset(apps, start_slot + window_n)
    batches = _window_batches(jobset, config, phy, start_slot, window_n, scheduled_record)
    return _schedule_of(batches, jobset)


def slotted_schedule(
    apps: list[SlottedApp],
    config: RuConfiguration,
    horizon_slots: int,
    window_n: int | None = None,
    phy: PhyProfile | None = None,
) -> tuple[Schedule, JobSet]:
    """Cover a horizon by repeated invocation.

    ``window_n`` = None runs the optimal matcher per hyper-period; an
    integer runs the windowed heuristic with the shared scheduled-packet
    record.
    """
    phy = phy or PhyProfile()
    jobset = slotted_jobset(apps, horizon_slots)
    record: set[int] = set()
    batches = []
    step = _hyperperiod(apps) if window_n is None else window_n
    start = 0
    while start < horizon_slots:
        w_len = min(step, horizon_slots - start)
        batches.extend(_window_batches(jobset, config, phy, start, w_len, record))
        start += w_len
    return _schedule_of(batches, jobset)
