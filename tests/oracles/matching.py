"""Maximum-weight bipartite matching: the test oracle.

No scheduler imports this module; the schedulers, the best-effort overlay
and the slotted matcher use the exact greedy kernels of
``ofdmasched.local_search`` and ``ofdmasched.slotted``, which the tests,
``tests/reference_impl.py`` and the acceptance suite check against the
solvers here. It is the only code that needs scipy, a test dependency.

``max_weight_matching`` is backed by scipy's shortest-augmenting-path
assignment solver (Hungarian-style, O(n^3)); missing edges are encoded
as zero-weight cells and filtered from the result, which preserves the
optimum exactly for non-negative weights. The solver is deterministic
for a fixed input, which is what reproducible schedules require.

``max_profit`` builds the admissibility graph of one candidate interval:
job j can go on machine i iff it is released by the interval start and
finishes by both the interval end and its own deadline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from ofdmasched.phy import (
    Machine,
    PhyProfile,
    RuConfiguration,
    RuToneClass,
    enumerate_configurations,
    machines_for_configuration,
    tx_duration,
)
from ofdmasched.scheduling import Interval
from ofdmasched.workload import Job

__all__ = [
    "BipartiteInstance",
    "Matching",
    "max_weight_matching",
    "budgeted_max_weight_matching",
    "max_profit",
    "relaxed_machine_set",
    "lsds_config_search",
    "MAX_RU_COUNTS",
]

BUDGETED_MACHINE_LIMIT = 20

# Maximum RU count per tone class (26, 52, 106, 242, 484, 996), per channel
# width, written out apart from ``ofdmasched.phy`` so that the tests can
# check the enumerated configurations against a second table.
MAX_RU_COUNTS = {
    20: (9, 4, 2, 1, 0, 0),
    40: (18, 8, 4, 2, 1, 0),
    80: (37, 16, 8, 4, 2, 1),
    160: (74, 32, 16, 8, 4, 2),
}


@dataclass(frozen=True)
class BipartiteInstance:
    """Weighted bipartite graph between jobs and machines."""

    left: tuple[int, ...]                       # job ids
    right: tuple[int, ...]                      # machine ids
    edges: tuple[tuple[int, int, float], ...]   # (job, machine, weight)
    bandwidths: dict[int, int] | None = None    # machine id -> b_i, budgeted only

    def __post_init__(self):
        seen = set()
        lset, rset = set(self.left), set(self.right)
        for j, m, w in self.edges:
            if w < 0:
                raise ValueError("negative edge weight")
            if (j, m) in seen:
                raise ValueError(f"duplicate edge ({j}, {m})")
            if j not in lset or m not in rset:
                raise ValueError(f"edge ({j}, {m}) off the vertex sets")
            seen.add((j, m))


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]  # (job, machine)
    total_weight: float

    def __post_init__(self):
        jobs = [j for j, _ in self.pairs]
        machines = [m for _, m in self.pairs]
        if len(set(jobs)) != len(jobs) or len(set(machines)) != len(machines):
            raise ValueError("endpoint repeated in matching")


def max_weight_matching(instance: BipartiteInstance) -> Matching:
    """Maximum-total-weight matching (not necessarily maximum cardinality)."""
    if not instance.edges:
        return Matching((), 0.0)
    lidx = {j: i for i, j in enumerate(instance.left)}
    ridx = {m: i for i, m in enumerate(instance.right)}
    w = np.zeros((len(instance.left), len(instance.right)))
    edge_set = {}
    for j, m, wt in instance.edges:
        w[lidx[j], ridx[m]] = wt
        edge_set[(lidx[j], ridx[m])] = wt
    rows, cols = linear_sum_assignment(w, maximize=True)
    pairs, total = [], 0.0
    for r, c in zip(rows, cols):
        if (r, c) in edge_set:
            pairs.append((instance.left[r], instance.right[c]))
            total += edge_set[(r, c)]
    pairs.sort()
    return Matching(tuple(pairs), total)


def budgeted_max_weight_matching(instance: BipartiteInstance, budget: int) -> Matching:
    """Maximum-weight matching with the matched machines' total bandwidth <= budget.

    Exact search over (machine index, remaining budget) with monotone
    pruning; intended for the small instances where exactness is needed
    (the production path goes through the configuration search instead).
    An over-tight budget yields an empty matching, not an error.
    """
    if instance.bandwidths is None:
        raise ValueError("instance has no bandwidth data")
    if len(instance.right) > BUDGETED_MACHINE_LIMIT:
        raise ValueError(f"budgeted search limited to {BUDGETED_MACHINE_LIMIT} machines")
    machines = sorted(instance.right, key=lambda m: (-instance.bandwidths[m], m))
    edges_all = instance.edges

    def value(active: tuple[int, ...]) -> Matching:
        keep = set(active)
        sub = BipartiteInstance(
            left=instance.left,
            right=tuple(active),
            edges=tuple(e for e in edges_all if e[1] in keep),
        )
        return max_weight_matching(sub)

    best = Matching((), 0.0)

    def search(i: int, chosen: tuple[int, ...], left_budget: int):
        nonlocal best
        remaining = [m for m in machines[i:] if instance.bandwidths[m] <= left_budget]
        bound = value(chosen + tuple(remaining))
        if bound.total_weight <= best.total_weight:
            return
        if sum(instance.bandwidths[m] for m in remaining) <= left_budget:
            best = bound
            return
        if i == len(machines):
            if bound.total_weight > best.total_weight:
                best = bound
            return
        m = machines[i]
        if instance.bandwidths[m] <= left_budget:
            search(i + 1, chosen + (m,), left_budget - instance.bandwidths[m])
        search(i + 1, chosen, left_budget)

    search(0, (), budget)
    return best


def max_profit(
    candidates: list[Job],
    interval: Interval,
    machines: list[Machine],
) -> tuple[Matching, list[Job]]:
    """Maximum-profit admissible job subset for one interval (exact).

    Builds the admissibility graph and solves it as a maximum weight
    bipartite matching; returns the matching and the matched jobs.
    """
    edges = []
    eligible = {}
    for job in candidates:
        if job.release > interval.start:
            continue
        horizon = min(interval.end, job.deadline_abs) - interval.start
        if horizon <= 0:
            continue
        for machine in machines:
            if tx_duration(job.size, machine) <= horizon:
                edges.append((job.id, machine.id, job.profit))
                eligible[job.id] = job
    if not edges:
        return Matching((), 0.0), []
    instance = BipartiteInstance(
        left=tuple(sorted({j for j, _, _ in edges})),
        right=tuple(m.id for m in machines),
        edges=tuple(edges),
    )
    matching = max_weight_matching(instance)
    matched = [eligible[j] for j, _ in matching.pairs]
    return matching, matched


def relaxed_machine_set(channel_width: int, phy: PhyProfile) -> list[Machine]:
    """The table-maximum count of every RU class, widest first, ignoring
    the bandwidth budget; used to prune candidates before the
    per-configuration pass."""
    classes = []
    for cls, n in reversed(list(zip(RuToneClass, MAX_RU_COUNTS[channel_width]))):
        classes.extend([cls] * n)
    return [Machine(id=i, tone_class=cls, phy=phy) for i, cls in enumerate(classes)]


def lsds_config_search(
    candidates: list[Job],
    interval: Interval,
    channel_width: int,
    phy: PhyProfile,
) -> tuple[RuConfiguration, Matching, list[Job]]:
    """Best RU configuration for one interval, with its matching.

    Stage 1 prunes candidates with a relaxed machine set holding the
    maximum number of RUs of each class; stage 2 evaluates every legal
    configuration on the pruned set. The oracle of
    ``local_search.lsds_config_search``. Ties break toward fewer RUs, then
    lexicographically smaller counts; the winner does not depend on
    evaluation order.
    """
    relaxed = relaxed_machine_set(channel_width, phy)
    _, pruned = max_profit(candidates, interval, relaxed)
    best = None
    for config in enumerate_configurations(channel_width):
        machines = machines_for_configuration(config, phy)
        matching, jobs = max_profit(pruned, interval, machines)
        key = (-matching.total_weight, config.total_rus, config.counts)
        if best is None or key < best[0]:
            best = (key, config, matching, jobs)
    _, config, matching, jobs = best
    return config, matching, jobs
