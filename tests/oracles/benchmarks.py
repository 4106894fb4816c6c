"""The matrix-scoring round scheduler: the test oracle for ``greedy_benchmark``.

This is ``ofdmasched.benchmarks.greedy_benchmark`` as it scored rounds
before suffix counts: each round builds a configurations x positions
matrix of the duration every head needs on the RU its position gets,
marks the heads that fit, and sums their profits row by row. The first
row with the maximum sum wins. The package's scheduler must return the
same ``Schedule`` for every input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ofdmasched.benchmarks import BENCHMARK_KINDS
from ofdmasched.phy import PhyProfile, class_durations, config_table
from ofdmasched.scheduling import Batch, Interval, Schedule, make_schedule
from ofdmasched.workload import JobSet

__all__ = ["greedy_benchmark"]


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


def greedy_benchmark(
    kind: str,
    jobs: JobSet,
    channel_width: int,
    phy: PhyProfile | None = None,
    txop: int = 4_000,
) -> Schedule:
    """Round-based station-sorting scheduler (EDF, LRF or NLRF)."""
    if kind not in BENCHMARK_KINDS:
        raise ValueError(f"unknown benchmark kind: {kind}")
    if txop <= 0:
        raise ValueError(f"txop must be positive, got {txop}")
    phy = phy or PhyProfile()
    table = config_table(channel_width)

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
        generated = int(np.searchsorted(app_releases[job.app], now, side="right"))
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
            dur = np.array([class_durations(h[3].size, phy) for h in heads], dtype=np.int64)
            limit = np.array([min(txop, h[3].deadline_abs - now) for h in heads],
                             dtype=np.int64)
            profit = np.array([h[3].profit for h in heads])

            width = min(table.class_mat.shape[1], len(heads))
            cls = table.class_mat[:, :width]
            valid = cls >= 0
            d = dur[np.arange(width)[None, :], np.where(valid, cls, 0)]
            ok = valid & (d <= limit[None, :width])
            round_profit = (ok * profit[None, :width]).sum(axis=1)
            best = float(round_profit.max())
        if not heads or best <= 0:
            # nothing can go now: wait for the next arrival or expiry
            events = [e for e in (st.next_event(now) for st in station_list) if e is not None]
            if not events:
                break
            now = min(events)
            continue
        cfg_idx = int(np.argmax(round_profit == best))  # canonical tie-break

        assignments = []
        end = now
        for pos in np.nonzero(ok[cfg_idx])[0]:
            st, job = heads[pos][2], heads[pos][3]
            st.pop()
            transmitted[job.app] += 1
            assignments.append((job.id, int(pos)))
            end = max(end, now + int(d[cfg_idx, pos]))
        batches.append(Batch(
            interval=Interval(now, end),
            assignments=tuple(sorted(assignments)),
            machines=table.machines(cfg_idx, phy),
            config=table.configs[cfg_idx],
        ))
        now = end + 1  # closed intervals: the next batch may not share the endpoint

    return make_schedule(batches, {j.id: j.profit for j in jobs.jobs})
