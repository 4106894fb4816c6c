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

Scoring a round. RU durations never grow as the tone class widens, so
head p fits the RU at its position exactly when that RU's class is
``kmin[p]`` or wider, where ``kmin[p]`` is the narrowest class whose
duration fits within min(TXOP, deadline - now). A configuration lists
its RUs widest first, so it fits the heads of class k that sit before
position ``ConfigTable.suffix[row, k]``, its count of RUs of class k
or wider. Configurations that fit as many heads of each class fit the
same heads and score the same; ``_fit_groups`` finds these groups once
per run for each ``kmin`` vector. A round then sums one row per group,
head by head in position order as a configurations x positions matrix
would, so any float profits give the same sums as summing every row.
Tie rule: the first configuration (in ``enumerate_configurations``
order) with the maximum round profit wins; it is the first row of the
first best group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phy import PhyProfile, class_durations, config_table
from .scheduling import DEFAULT_TXOP_US, Batch, Interval, Schedule, make_schedule
from .workload import JobSet

__all__ = ["BENCHMARK_KINDS", "greedy_benchmark"]

BENCHMARK_KINDS = ("edf", "lrf", "nlrf")


@dataclass
class _Station:
    station: int
    queue: list  # jobs, release-sorted
    head: int = 0

    def pending(self, now):
        q = self.queue
        while self.head < len(q) and q[self.head].deadline_abs <= now:
            self.head += 1  # expired
        if self.head < len(q) and q[self.head].release <= now:
            return q[self.head]
        return None

    def next_event(self, now):
        """Earliest future time at which this station's state can change."""
        q = self.queue
        for i in range(self.head, len(q)):
            if q[i].deadline_abs > now:
                if q[i].release > now:
                    return q[i].release
                return q[i].deadline_abs
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
    if txop <= 0:
        raise ValueError(f"txop must be positive, got {txop}")
    phy = phy or PhyProfile()
    if txop * 1_000 < phy.symbol_duration_ns:
        raise ValueError(f"txop {txop} us is shorter than one OFDM symbol "
                         f"({phy.symbol_duration_ns} ns)")
    table = config_table(channel_width)
    n_positions = table.class_mat.shape[1]
    fit_groups = {}  # kmin bytes -> _fit_groups, for this run

    stations: dict[int, _Station] = {}
    for job in jobs.jobs:
        st = stations.get(job.station)
        if st is None:
            st = stations[job.station] = _Station(job.station, [])
        st.queue.append(job)
    for st in stations.values():
        st.queue.sort(key=lambda j: (j.release, j.id))
    station_list = sorted(stations.values(), key=lambda s: s.station)

    apps = sorted({j.app for j in jobs.jobs})
    app_releases = {a: np.array(sorted(j.release for j in jobs.jobs if j.app == a))
                    for a in apps}
    transmitted = {a: 0 for a in apps}

    def metric(job, now):
        if kind == "edf":
            return job.deadline_abs
        ratio = job.profit / (job.deadline_abs - job.release)
        if kind == "lrf":
            return -ratio
        generated = int(app_releases[job.app].searchsorted(now, side="right"))
        starvation = (transmitted[job.app] + 1) / (generated + 1)
        return -ratio / starvation

    batches = []
    now = 0
    while now < jobs.horizon:
        heads = []
        for st in station_list:
            job = st.pending(now)
            if job is not None:
                heads.append((metric(job, now), st.station, st, job))
        if heads:
            heads.sort(key=lambda h: (h[0], h[1]))
            front = [h[3] for h in heads[:n_positions]]
            dur = np.array([class_durations(j.size, phy) for j in front], dtype=np.int64)
            limit = np.array([min(txop, j.deadline_abs - now) for j in front], dtype=np.int64)
            profit = np.array([j.profit for j in front])
            # durations never grow with the class, so head p fits exactly
            # the classes from kmin[p] up (kmin == 6: none of them)
            kmin = (dur > limit[:, None]).sum(axis=1)
            groups = fit_groups.get(kmin.tobytes())
            if groups is None:
                groups = fit_groups[kmin.tobytes()] = _fit_groups(table, kmin)
            rows, ok = groups
            # each group's first row, summed as summing every row would;
            # the first row of the first best group is the first best row
            round_profit = (ok * profit[None, :]).sum(axis=1)
            best = float(round_profit.max())
        if not heads or best <= 0:
            # nothing can go now: wait for the next arrival or expiry
            events = [e for e in (st.next_event(now) for st in station_list) if e is not None]
            if not events:
                break
            now = min(events)
            continue

        group = int(np.argmax(round_profit == best))  # canonical tie-break
        cfg_idx = int(rows[group])
        fits = np.flatnonzero(ok[group])
        assignments = []
        for pos in fits:
            st, job = heads[pos][2], heads[pos][3]
            st.pop()
            transmitted[job.app] += 1
            assignments.append((job.id, int(pos)))
        end = now + int(dur[fits, table.class_mat[cfg_idx, fits]].max())
        batches.append(Batch(
            interval=Interval(now, end),
            assignments=tuple(sorted(assignments)),
            machines=table.machines(cfg_idx, phy),
            config=table.configs[cfg_idx],
        ))
        now = end + 1  # closed intervals: the next batch may not share the endpoint

    return make_schedule(batches, {j.id: j.profit for j in jobs.jobs})
