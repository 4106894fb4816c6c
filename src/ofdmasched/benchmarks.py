"""Round-based benchmark schedulers: EDF, LRF and non-starving LRF.

Each round sorts the stations by a scheduling metric, assigns the first
M stations positionally to the M RUs of a configuration (widest RU to
the front of the order), and keeps the configuration with the maximum
round profit over the whole configuration space. A station's head-of-line
packet transmits only if it fits its assigned RU within the TXOP and its
own deadline; the round then advances to the batch end.

Metrics: EDF uses the packet's absolute deadline (ascending). LRF uses
profit over the packet's effective relative deadline (descending), which
is the application's profit-to-deadline ratio except where the horizon
clipped the deadline. NLRF divides that ratio by
(transmitted+1)/(generated+1), tracked per application, so starved
applications drift upward. Ties break by station id.

Waking stations. A station whose head-of-line packet is released is
awake; every other station sleeps in a heap keyed by (release of its
head, station), so a round touches only the awake stations and the
sleepers its time has reached. A station is awake or asleep, never both.
When no head can go, the run waits for the earliest of the heap's top and
the awake heads' deadlines.

Scoring a round. RU durations never grow as the tone class widens, so
head p fits the RU at its position exactly when that RU's class is
``kmin[p]`` or wider, where ``kmin[p]`` is the narrowest class whose
duration fits within min(TXOP, deadline - now). A configuration lists
its RUs widest first, so it fits the heads of class k that sit before
position ``ConfigTable.suffix[row, k]``, its count of RUs of class k
or wider. Configurations that fit as many heads of each class fit the
same heads and score the same; ``_fit_groups`` finds these groups once
per run for each ``kmin`` vector. A round then sums one row per group
exactly as numpy sums the rows of a configurations x positions matrix,
so any float profits give the same sums as summing every row: below
eight heads numpy adds head by head in position order, which plain
Python does faster; from eight heads on numpy sums pairwise, so the
round keeps numpy's row reduction there.
Tie rule: the first configuration (in ``enumerate_configurations``
order) with the maximum round profit wins; it is the first row of the
first best group.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right

import numpy as np

from .phy import PhyProfile, class_durations, config_table
from .scheduling import DEFAULT_TXOP_US, Batch, Interval, Schedule, check_txop, make_schedule
from .workload import JobSet

__all__ = ["BENCHMARK_KINDS", "greedy_benchmark"]

BENCHMARK_KINDS = ("edf", "lrf", "nlrf")

# fewest heads at which numpy's row sum stops adding in position order
_PAIRWISE_HEADS = 8


class _Station:
    """One station's jobs in release order, with their releases and
    deadlines copied to plain lists: a list item reads faster than a
    ``Job`` field."""

    def __init__(self, station: int, queue: list):
        self.station = station
        self.queue = queue
        self.releases = [j.release for j in queue]
        self.deadlines = [j.deadline_abs for j in queue]
        self.head = 0

    def pending(self, now):
        """The released head at ``now``, after dropping expired jobs."""
        deadlines = self.deadlines
        while self.head < len(deadlines) and deadlines[self.head] <= now:
            self.head += 1  # expired
        if self.head < len(deadlines) and self.releases[self.head] <= now:
            return self.queue[self.head]
        return None

    def pop(self):
        job = self.queue[self.head]
        self.head += 1
        return job


def _fit_groups(table, kmin):
    """Configurations grouped by the heads they fit (see the module
    docstring): the first row of each group, ascending, and that row's
    fit mask over the heads."""
    n_positions = table.class_mat.shape[1]
    heads_per_class = np.bincount(kmin, minlength=table.suffix.shape[1] + 1)
    key = np.zeros(len(table.configs), dtype=np.int64)
    for k in np.flatnonzero(heads_per_class[:-1]):
        at_k = np.zeros(n_positions + 1, dtype=np.int64)
        at_k[1:len(kmin) + 1] = kmin == k
        fitted = at_k.cumsum()  # heads of class k before each position
        key = key * (heads_per_class[k] + 1) + fitted[table.suffix[:, k]]
    rows = np.sort(np.unique(key, return_index=True)[1])
    return rows, table.class_mat[rows, :len(kmin)] >= kmin[None, :]


def greedy_benchmark(
    kind: str,
    jobs: JobSet,
    channel_width: int,
    phy: PhyProfile | None = None,
    txop: int = DEFAULT_TXOP_US,
) -> Schedule:
    """Round-based station-sorting scheduler (EDF, LRF or NLRF)."""
    if kind not in BENCHMARK_KINDS:
        raise ValueError(f"unknown benchmark kind: {kind}")
    phy = phy or PhyProfile()
    check_txop(txop, phy)
    table = config_table(channel_width)
    n_positions = table.class_mat.shape[1]
    # kmin -> each group's first row, its fit mask over the heads and,
    # below _PAIRWISE_HEADS heads, its fitted positions; for this run
    fit_groups = {}
    durations = {}  # size -> class durations, and the same negated for bisect

    queues: dict[int, list] = {}
    app_releases: dict[str, list] = {}
    for job in jobs.jobs:
        queues.setdefault(job.station, []).append(job)
        app_releases.setdefault(job.app, []).append(job.release)
    asleep = []  # (release of the head, station id, station)
    for s, queue in queues.items():
        st = _Station(s, sorted(queue, key=lambda j: (j.release, j.id)))
        asleep.append((st.releases[0], s, st))
    heapq.heapify(asleep)
    awake = []
    for releases in app_releases.values():
        releases.sort()
    transmitted = dict.fromkeys(app_releases, 0)

    def metric(job, now):
        if kind == "edf":
            return job.deadline_abs
        ratio = job.profit / (job.deadline_abs - job.release)
        if kind == "lrf":
            return -ratio
        generated = bisect_right(app_releases[job.app], now)
        starvation = (transmitted[job.app] + 1) / (generated + 1)
        return -ratio / starvation

    batches = []
    now = 0
    while now < jobs.horizon:
        while asleep and asleep[0][0] <= now:
            awake.append(heapq.heappop(asleep)[2])
        heads = []
        for st in awake:
            job = st.pending(now)
            if job is not None:
                heads.append((metric(job, now), st.station, st, job))
            elif st.head < len(st.queue):
                heapq.heappush(asleep, (st.releases[st.head], st.station, st))
        awake = [h[2] for h in heads]
        best = 0.0
        if heads:
            heads.sort()  # by (metric, station): station ids are unique
            front = heads[:n_positions]
            dur = []
            kmin = []
            for h in front:
                job = h[3]
                d = durations.get(job.size)
                if d is None:
                    full = class_durations(job.size, phy)
                    d = durations[job.size] = (full, tuple(-x for x in full))
                dur.append(d[0])
                # durations never grow with the class, so head p fits exactly
                # the classes from kmin[p] up (kmin == 6: none of them)
                kmin.append(bisect_left(d[1], -min(txop, job.deadline_abs - now)))
            kmin = tuple(kmin)
            groups = fit_groups.get(kmin)
            if groups is None:
                rows, ok = _fit_groups(table, np.array(kmin))
                fits = None
                if len(kmin) < _PAIRWISE_HEADS:
                    fits = [np.flatnonzero(r).tolist() for r in ok]
                groups = fit_groups[kmin] = (rows.tolist(), ok, fits)
            rows, ok, fits = groups
            profit = [h[3].profit for h in front]
            # each group's first row, summed as summing every row would;
            # the first row of the first best group is the first best row
            if fits is not None:
                # a plain loop, not sum(): from Python 3.12 sum() compensates
                # float rounding, and numpy's left fold does not
                for first, fit in zip(rows, fits):
                    total = 0.0
                    for p in fit:
                        total += profit[p]
                    if total > best:
                        best, row, fitted = total, first, fit
            else:
                round_profit = (ok * np.array(profit)[None, :]).sum(axis=1)
                best = float(round_profit.max())
                group = int(np.argmax(round_profit == best))  # canonical tie-break
                row, fitted = rows[group], np.flatnonzero(ok[group]).tolist()
        if best <= 0:
            # nothing can go now: wait for the next arrival or expiry
            events = [h[3].deadline_abs for h in heads]
            if asleep:
                events.append(asleep[0][0])
            if not events:
                break
            now = min(events)
            continue

        classes = table.class_mat[row, :len(front)].tolist()
        assignments = []
        longest = 0
        for p in fitted:
            job = front[p][2].pop()
            transmitted[job.app] += 1
            assignments.append((job.id, p))
            longest = max(longest, dur[p][classes[p]])
        end = now + longest
        batches.append(Batch(
            interval=Interval(now, end),
            assignments=tuple(sorted(assignments)),
            machines=table.machines(row, phy),
            config=table.configs[row],
        ))
        now = end + 1  # closed intervals: the next batch may not share the endpoint

    return make_schedule(batches, {j.id: j.profit for j in jobs.jobs})
