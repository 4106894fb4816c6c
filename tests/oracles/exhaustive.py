"""Exhaustive optimum for tiny instances; the test oracle.

Enumerates every placement of disjoint batches on the grid: a DP over
(next allowed start, set of used jobs), with the admissible job subsets
of each (start, length) interval precomputed per machine set. Guarded to
small state spaces. The 12x-bound tests of the local search and the
slotted-optimum test compare the schedulers with it.
"""

from __future__ import annotations

from functools import lru_cache

from ofdmasched.phy import (
    Machine,
    PhyProfile,
    enumerate_configurations,
    machines_for_configuration,
    tx_duration,
)
from ofdmasched.workload import Job, JobSet

__all__ = ["brute_force_optimal"]

STATE_GUARD = 10_000_000
JOB_GUARD = 16


def _matchable(jobs_in_subset, machines, t1, t2):
    """Can every job of the subset go on a distinct admissible machine?"""

    def ok(job, machine):
        if job.release > t1:
            return False
        return t1 + tx_duration(job.size, machine) <= min(t2, job.deadline_abs)

    def rec(i, used):
        if i == len(jobs_in_subset):
            return True
        for m in machines:
            if m.id not in used and ok(jobs_in_subset[i], m):
                if rec(i + 1, used | {m.id}):
                    return True
        return False

    return rec(0, set())


def brute_force_optimal(
    jobs: JobSet | list[Job],
    machines: list[Machine] | None = None,
    channel_width: int | None = None,
    phy: PhyProfile | None = None,
    horizon: int | None = None,
    txop: int = 4_000,
    grid_us: int = 1,
) -> float:
    """True optimum profit over all feasible batch schedules.

    Pass either a fixed ``machines`` list or a ``channel_width`` (every
    batch may then pick any legal configuration). Raises when the state
    space exceeds the guard.
    """
    job_list = list(jobs.jobs) if isinstance(jobs, JobSet) else list(jobs)
    if horizon is None:
        horizon = jobs.horizon if isinstance(jobs, JobSet) else (
            max((j.deadline_abs for j in job_list), default=0))
    if machines is None and channel_width is None:
        raise ValueError("need machines or a channel width")
    if machines is not None and channel_width is not None:
        raise ValueError("machines and channel width are mutually exclusive")

    machine_sets: list[list[Machine]]
    if machines is not None:
        machine_sets = [list(machines)]
    else:
        phy = phy or PhyProfile()
        machine_sets = [machines_for_configuration(c, phy)
                        for c in enumerate_configurations(channel_width)]

    n = len(job_list)
    t_units = horizon // grid_us
    delta_units = min(txop // grid_us, t_units)
    if n > JOB_GUARD or (t_units + 1) * (1 << n) > STATE_GUARD:
        raise ValueError("instance too large for exhaustive search")
    if n == 0:
        return 0.0

    profit = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        profit[mask] = profit[mask ^ low] + job_list[low.bit_length() - 1].profit

    # matchable[(t_idx, l)] = set of job-subset masks schedulable in that interval
    feasible: dict[tuple[int, int], list[int]] = {}
    for t_idx in range(t_units):
        for l in range(1, min(delta_units, t_units - t_idx) + 1):
            t1, t2 = t_idx * grid_us, (t_idx + l) * grid_us
            masks = []
            for mask in range(1, 1 << n):
                subset = [job_list[b] for b in range(n) if mask >> b & 1]
                if any(_matchable(subset, ms, t1, t2) for ms in machine_sets):
                    masks.append(mask)
            if masks:
                feasible[(t_idx, l)] = masks

    @lru_cache(maxsize=None)
    def best(t_idx: int, used: int) -> float:
        if t_idx >= t_units:
            return 0.0
        out = best(t_idx + 1, used)
        for l in range(1, min(delta_units, t_units - t_idx) + 1):
            for mask in feasible.get((t_idx, l), ()):
                if mask & used:
                    continue
                # closed intervals conflict at shared endpoints, so the
                # next batch starts at least one grid step later
                out = max(out, profit[mask] + best(t_idx + l + 1, used | mask))
        return out

    result = best(0, 0)
    best.cache_clear()
    return result
