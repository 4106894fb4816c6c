"""Slot-based packet-to-RU matching over equal-RU configurations.

Time is cut into fixed 1 ms slots and every slot offers the same j equal
RUs. Packets of periodic applications arrive at period boundaries; a
packet arriving in slot a with delay tolerance d may occupy one RU in
any slot of [a, a+d]. Packet-to-(slot, RU) assignment is a maximum
weight bipartite matching with the application profit on every edge.
Each packet's slots form one interval, so the graph is convex and an
interval greedy solves it exactly (see ``_window_batches``).

``slotted_schedule`` without ``window_n`` builds the graph over one full
hyper-period at a time (the LCM of the periods, after which the arrival
pattern repeats), so its matching is the true optimum; with
``window_n`` it is the windowed heuristic, which looks only ``window_n``
slots ahead and keeps a record of already-scheduled packets so they do
not reappear in later windows. Both are restricted to equal-RU
configurations and reject anything else.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .phy import PhyProfile, RuConfiguration, machines_for_configuration, tx_duration_us
from .scheduling import Batch, Interval, Schedule, make_schedule
from .workload import ApplicationProfile, Job, JobSet

__all__ = [
    "SLOT_US",
    "SlottedApp",
    "slotted_apps_from_profiles",
    "slotted_jobset",
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


def _window_batches(packets, config, phy, w_start, w_len):
    """Match ``packets`` (released before the window ends, with deadlines
    after it starts) against the (slot, RU) grid of one window; return the
    batches of the matched ones.

    A packet may take any of the j RUs of any slot of its in-window range
    [s, e], so the graph is convex and a packet set fits iff every slot
    interval [x, y] contains at most j * (y - x + 1) of its ranges. Packets
    are accepted greedily by descending profit, then deadline, then id,
    which gives a maximum-profit set; earliest-deadline-first then places
    every accepted packet, slot by slot.
    """
    j_rus = _check_equal_config(config)
    machines = tuple(machines_for_configuration(config, phy))
    ru_class = machines[0].tone_class
    w_end = w_start + w_len  # exclusive
    if not packets:
        return []
    duration = {size: tx_duration_us(size, ru_class, phy) for size in {p.size for p in packets}}
    for size, d in duration.items():
        if d >= SLOT_US:
            raise ValueError(f"packet of {size} B does not fit a slot on {config}")
    ranges = {job.id: (max(job.release // SLOT_US, w_start),
                       min((job.deadline_abs - 1) // SLOT_US, w_end - 1))
              for job in packets}
    # Hall's condition needs checking only on intervals from some range's
    # start to some range's end
    starts = sorted({s for s, _ in ranges.values()})
    ends = sorted({e for _, e in ranges.values()})
    if len(starts) * len(ends) > MATRIX_GUARD_CELLS:
        raise ValueError("matching graph exceeds the size guard")
    spare = j_rus * (np.subtract.outer(ends, starts).T + 1)  # [x, y] -> room left
    accepted = []
    for job in sorted(packets, key=lambda p: (-p.profit, p.deadline_abs, p.id)):
        s, e = ranges[job.id]
        # the intervals [x, y] with x <= s and y >= e contain the range
        room = spare[: bisect.bisect_right(starts, s), bisect.bisect_left(ends, e):]
        if room.min() > 0:
            room -= 1
            accepted.append(job)

    accepted.sort(key=lambda p: (ranges[p.id][0], p.deadline_abs, p.id))
    ready = []  # (deadline, id, job) of arrived, unplaced packets
    nxt = 0
    batches = []
    for slot in range(w_start, w_end):
        while nxt < len(accepted) and ranges[accepted[nxt].id][0] == slot:
            job = accepted[nxt]
            heapq.heappush(ready, (job.deadline_abs, job.id, job))
            nxt += 1
        sent = [heapq.heappop(ready)[2] for _ in range(min(j_rus, len(ready)))]
        if not sent:
            continue
        if ranges[sent[0].id][1] < slot:
            raise AssertionError("accepted packet missed its range; Hall check bug")
        t1 = slot * SLOT_US
        batches.append(Batch(
            interval=Interval(t1, t1 + max(duration[job.size] for job in sent)),
            assignments=tuple(sorted((job.id, ru) for ru, job in enumerate(sent))),
            machines=machines,
            config=config,
        ))
    if ready:
        raise AssertionError("accepted packet left unplaced; Hall check bug")
    return batches


def slotted_schedule(
    apps: list[SlottedApp],
    config: RuConfiguration,
    horizon_slots: int,
    window_n: int | None = None,
    phy: PhyProfile | None = None,
) -> tuple[Schedule, JobSet]:
    """Cover a horizon by repeated invocation.

    ``window_n`` = None runs the optimal matcher per hyper-period; an
    integer runs the windowed heuristic: windows of ``window_n`` slots,
    each offered the packets that earlier windows left unmatched.
    """
    if not apps:
        raise ValueError("no slotted apps to schedule")
    if horizon_slots < 1:
        raise ValueError(f"horizon must be at least one slot, got {horizon_slots}")
    if window_n is not None and window_n < 1:
        raise ValueError("window must be at least one slot")
    phy = phy or PhyProfile()
    jobset = slotted_jobset(apps, horizon_slots)
    jobs = jobset.jobs  # in release order
    step = _hyperperiod(apps) if window_n is None else window_n
    batches = []
    waiting = []  # released, unmatched packets
    nxt = 0
    for start in range(0, horizon_slots, step):
        w_len = min(step, horizon_slots - start)
        while nxt < len(jobs) and jobs[nxt].release < (start + w_len) * SLOT_US:
            waiting.append(jobs[nxt])
            nxt += 1
        waiting = [j for j in waiting if j.deadline_abs > start * SLOT_US]
        window = _window_batches(waiting, config, phy, start, w_len)
        matched = {j for b in window for j in b.job_ids}
        waiting = [j for j in waiting if j.id not in matched]
        batches.extend(window)
    return make_schedule(batches, {j.id: j.profit for j in jobset.jobs}), jobset
