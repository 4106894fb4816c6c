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

The matcher works on runs, not packets. A run is the packets one app
releases in one slot: they share release, deadline, profit and size, and
they get consecutive ids. A window checks Hall's condition once per run
and places a run's packets together; the windowed heuristic carries the
unmatched tail of a run to the next window. This is exact: the ids of a
run, and of any tail of it, form one block that no other packet's id
falls inside, so ordering runs by their first id orders their packets
exactly as ordering the packets one by one would. Schedules are the same,
byte for byte, as those of the per-packet matcher in
``tests/oracles/slotted.py``.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .phy import PhyProfile, RuConfiguration, machines_for_configuration, tx_duration_us
from .scheduling import Batch, Interval, Schedule, make_schedule
from .workload import Job, JobSet

__all__ = [
    "SLOT_US",
    "SlottedApp",
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
        if self.node_count < 1:
            raise ValueError(f"app {self.name!r}: node_count must be >= 1, got {self.node_count}")
        if self.period_slots < 1:
            raise ValueError("period must be at least one slot")
        if not 0 <= self.deadline_slots < self.period_slots:
            raise ValueError("need 0 <= deadline < period (no station queuing)")


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


class _Run(NamedTuple):
    """Packets ``first`` .. ``end - 1``, all released by one app in one slot.

    They differ only in id and station, so the matcher handles them as a
    unit; a tail left unmatched by one window is the run with a later
    ``first``.
    """

    first: int
    end: int  # exclusive
    slot: int  # of arrival
    deadline_abs: int
    profit: float
    size: int


def _runs(apps: list[SlottedApp], horizon_slots: int) -> tuple[list[_Run], JobSet]:
    """The packets implied by the slot model, as runs in id order and as a JobSet."""
    horizon_us = horizon_slots * SLOT_US
    max_profit = max(a.profit for a in apps)
    per_app = []
    station = 0  # an app's stations follow those of the apps before it
    for app in apps:
        per_app.append((app, station, (app.deadline_slots + 1) * SLOT_US,
                        app.profit == max_profit))
        station += app.node_count
    runs, jobs = [], []
    for slot in range(horizon_slots):
        release = slot * SLOT_US
        for app, station, reach, critical in per_app:
            if slot % app.period_slots:
                continue
            first = len(jobs)
            deadline = min(release + reach, horizon_us)
            # positional arguments: keywords cost a quarter of the build
            jobs += [Job(first + node, station + node, release, deadline, app.profit,
                         app.size, critical, app.name)
                     for node in range(app.node_count)]
            runs.append(_Run(first, len(jobs), slot, deadline, app.profit, app.size))
    return runs, JobSet(jobs=tuple(jobs), horizon=horizon_us, seed=0)


def slotted_jobset(apps: list[SlottedApp], horizon_slots: int) -> JobSet:
    """The concrete packets implied by the slot model, as a JobSet."""
    return _runs(apps, horizon_slots)[1]


def _window_batches(runs, config, phy, w_start, w_len):
    """Match the packets of ``runs`` (released before the window ends, with
    deadlines after it starts) against the (slot, RU) grid of one window;
    return the batches of the matched packets and the unmatched tails.

    A packet may take any of the j RUs of any slot of its in-window range
    [s, e], so the graph is convex and a packet set fits iff every slot
    interval [x, y] contains at most j * (y - x + 1) of its ranges. Packets
    are accepted greedily by descending profit, then deadline, then id,
    which gives a maximum-profit set; earliest-deadline-first then places
    every accepted packet, slot by slot. All packets of a run share their
    range and sort next to each other in both orders, so each step takes as
    many of a run's packets, from its front, as the step allows.
    """
    j_rus = _check_equal_config(config)
    machines = tuple(machines_for_configuration(config, phy))
    ru_class = machines[0].tone_class
    w_end = w_start + w_len  # exclusive
    if not runs:
        return [], []
    duration = {size: tx_duration_us(size, ru_class, phy) for size in {r.size for r in runs}}
    for size, d in duration.items():
        if d >= SLOT_US:
            raise ValueError(f"packet of {size} B does not fit a slot on {config}")
    # by descending profit, then deadline, then id; ``first`` is unique
    ranked = sorted((-r.profit, r.deadline_abs, r.first, max(r.slot, w_start),
                     min((r.deadline_abs - 1) // SLOT_US, w_end - 1), r) for r in runs)
    # Hall's condition needs checking only on intervals from some range's
    # start to some range's end
    starts = sorted({item[3] for item in ranked})
    ends = sorted({item[4] for item in ranked})
    if len(starts) * len(ends) > MATRIX_GUARD_CELLS:
        raise ValueError("matching graph exceeds the size guard")
    spare = j_rus * (np.subtract.outer(ends, starts).T + 1)  # [x, y] -> room left
    accepted = []  # (s, deadline, first, end, e, size) of accepted fronts of runs
    unmatched = []
    for _, deadline, first, s, e, run in ranked:
        # the intervals [x, y] with x <= s and y >= e contain the range
        room = spare[: bisect.bisect_right(starts, s), bisect.bisect_left(ends, e):]
        k = min(run.end - first, int(room.min()))
        if k:
            room -= k
            accepted.append((s, deadline, first, first + k, e, run.size))
        if first + k < run.end:
            unmatched.append(run._replace(first=first + k))

    accepted.sort()
    ready = []  # (deadline, first, end, e, size) of arrived, unplaced packets
    nxt = 0
    batches = []
    for slot in range(w_start, w_end):
        while nxt < len(accepted) and accepted[nxt][0] == slot:
            heapq.heappush(ready, accepted[nxt][1:])
            nxt += 1
        if not ready:
            continue
        if ready[0][3] < slot:
            raise AssertionError("accepted packet missed its range; Hall check bug")
        sent = []  # (first id, count, first RU)
        ru = longest = 0
        while ru < j_rus and ready:
            deadline, first, end, e, size = heapq.heappop(ready)
            take = min(j_rus - ru, end - first)
            sent.append((first, take, ru))
            longest = max(longest, duration[size])
            if first + take < end:
                heapq.heappush(ready, (deadline, first + take, end, e, size))
            ru += take
        sent.sort()
        t1 = slot * SLOT_US
        batches.append(Batch(
            interval=Interval(t1, t1 + longest),
            assignments=tuple(pair for first, take, ru in sent
                              for pair in zip(range(first, first + take), range(ru, ru + take))),
            machines=machines,
            config=config,
        ))
    if ready:
        raise AssertionError("accepted packet left unplaced; Hall check bug")
    return batches, unmatched


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
    runs, jobset = _runs(apps, horizon_slots)  # runs in release order
    step = _hyperperiod(apps) if window_n is None else window_n
    batches = []
    waiting = []  # unmatched tails of released runs
    nxt = 0
    for start in range(0, horizon_slots, step):
        w_len = min(step, horizon_slots - start)
        while nxt < len(runs) and runs[nxt].slot < start + w_len:
            waiting.append(runs[nxt])
            nxt += 1
        waiting = [r for r in waiting if r.deadline_abs > start * SLOT_US]
        window, waiting = _window_batches(waiting, config, phy, start, w_len)
        batches.extend(window)
    return make_schedule(batches, {j.id: j.profit for j in jobset.jobs}), jobset
