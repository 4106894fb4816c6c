"""The per-packet slotted matcher: the test oracle for ``slotted_schedule``.

This is ``ofdmasched.slotted`` as it matched windows before runs: the job
set is built packet by packet, every packet gets its own Hall check, its
own sort key and its own heap entry, and the windowed heuristic carries
unmatched packets one by one. The package's matcher must return the same
``Schedule`` and the same ``JobSet`` for every input.
"""

from __future__ import annotations

import bisect
import heapq

import numpy as np

from ofdmasched.phy import PhyProfile, RuConfiguration, machines_for_configuration, tx_duration_us
from ofdmasched.scheduling import Batch, Interval, Schedule, make_schedule
from ofdmasched.slotted import (
    MATRIX_GUARD_CELLS,
    SLOT_US,
    SlottedApp,
    _check_equal_config,
    _hyperperiod,
)
from ofdmasched.workload import Job, JobSet

__all__ = ["slotted_jobset", "slotted_schedule"]


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
