"""Local-search schedulers over candidate transmission intervals.

The scheduler walks every interval length 1..txop and every start on a
coarse time grid, computes the best admissible job set for the interval,
and commits it iff its profit strictly exceeds twice the profit of the
already-committed batches it conflicts with (evicting those).
``lsds_run`` also picks each batch's RU configuration and ``lsdsf_run``
keeps one machine set; both return the run's ``LocalSearchStats`` too.

The per-interval subproblem is a maximum weight bipartite matching, but
the instances here have special structure: edge weights depend only on
the job, all machines of one RU class are interchangeable, and a job
admissible to some class is admissible to every faster class. Job sets
matchable under such nested (suffix) neighborhoods form a matroid whose
feasibility is a simple capacity condition, so a profit-ordered greedy
over per-class counts is exact. That makes one interval evaluation a few
binary searches per (job group, class) instead of a Hungarian solve.
``_greedy``, ``_eval_configs`` and ``_config_search`` are that kernel.
``pick_jobs`` applies it to one interval of loose jobs over any rows of
per-class RU counts: the best-effort overlay passes a batch's free RUs
as one row, and ``lsds_config_search`` the channel's configuration
table for a gap fill. The tests check both against the Hungarian oracle
in ``tests/oracles/matching.py``.

A configuration table has up to 1827 rows (160 MHz), but a row's greedy
value does not depend on columns no item binds: ``_greedy``'s room is
smallest at some item's ``c_min`` column. So for each set of ``c_min``
classes the engine keeps the first table row of each distinct projection
onto those columns (at 160 MHz, 898 rows on classes {0, 1}, 81 on
{2, 3}). ``_config_search`` evaluates those rows and returns the first of
best value, which maps back to the first row of best value in the whole
table. The search reads its items only through ``(profit, c_min,
count)``, and the rows are fixed for a run, so the engine searches each
such signature once and answers repeats from a memo that lives for one
run.

Committed batches are pairwise disjoint, so sorted by start they are
sorted by end too; the engine keeps their starts, ends and weights in
aligned lists, and the batches conflicting with an interval are one
contiguous range found by two bisections. The vectorized bounds read
them as arrays, rebuilt on demand only from the first index a commit
changed.

Each group of unscheduled jobs (one profit, per-class durations and
deadline offset) keeps its releases as a sorted int64 array, which the
sweeps and ``_items_for`` search vectorized, and its job ids as a plain
list aligned with it. A committed batch is its table row and the pool
slices it took, each (group, releases, ids, first machine); the run reads
its (id, machine) pairs off them once, at the end. An eviction puts the
slices back in the order they were taken, before the members of an equal
release. That order breaks later ties, so it is part of the output.

Two vectorized bounds screen the intervals of one length before any is
evaluated exactly. ``_sweep`` bounds each start of a range by the best
profits that fit the relaxed machine set, class-blind, and keeps
the starts whose bound beats twice their conflict weight. ``_scan``
then takes those survivors in chunks of 64 starts, doubling from chunk to
chunk, and ``_tighten`` computes for a whole chunk at once the exact
value ``_greedy`` would give the interval's items under ``suffix_caps``:
under nested capacities the best job count is a closed-form rank, so the
value is that rank's increments per profit level, weighted by profit.
Only starts whose value still beats twice their conflict weight go on.
Both screens read conflict weights as differences of cumulative sums,
and both allow for their rounding (``_may_beat``).
A chunk is computed against the pool and batches as they stand when the
scalar loop reaches it, so later chunks see the earlier commits. Commits
the scan makes inside a chunk come after its values, so ``_scan``
re-screens each start against its conflict weight as it now stands: until
an eviction the pool only shrinks, so a chunk value can only over-estimate,
and a start whose value, with a margin for its summation order, no longer
beats twice that weight is dropped before ``_items_for``. Drops of both
kinds count as ``bound_rejects``.

Commits keep every computed bound valid (the pool only shrinks and
conflict weights only grow), so the first sweep of a length bounds every
start at once. An eviction returns jobs to the pool and so ends the
sweep: the rest of its survivors, and the chunks never computed, are
dropped. The scan then goes on from the next start in blocks of
``_BLOCK`` starts, doubling from block to block, and a block is swept only
when the scan reaches it, so it sees every commit before it. Evictions
come in runs: on UC3 at 160 MHz over 200 ms, 344 restarts take 345
blocks, so bounding only the next block, not every remaining start, is
what keeps them cheap.

For one start, an interval's items depend on its length only through
which durations fit it (``d <= length``). So ``run`` scans a length only
if some group's duration on some active class first fits it, ``ceil(d /
grid)`` grid steps (a fit length), or if the length before it evicted;
the first length is always scanned. At any other length the plain scan
commits nothing. Each start has the items it had one length earlier, and
that length evicted nothing, so since then the pool has only shrunk and
the batches only grown. A start it rejected is still rejected: its value
can only have fallen, and its interval, now longer, overlaps at least the
batches it did. A start it committed with weight ``w`` now overlaps that
batch, and its value is at most ``w < 2w``. This needs more batches never
to sum to less, which holds for a left fold (``_fold_sum``) on every
interpreter. On UC2 at 40 MHz over grid 16, lsds scans 11 of 250 lengths.

Within a scan, a start whose exact evaluation finds no items idles it
until the next release: the earliest release after that start ``t1`` in
the pool of a group that some class fits at this length (``_shifts``
gives it ``c0 < K``). The scan skips the survivors before it and
tightens no chunk below it (``idle_starts`` counts them). No start ``t``
before that release has items either. The members released by ``t``
are those released by ``t1``, in the groups that can fit at all, and the
pool has not changed: no start in between committed, and a start at
which the pool could grow, by an eviction, ends the scan. None of those
members was admissible at ``t1``, and none is at ``t``, because its
deadline test ``t + d <= deadline`` only gets harder as ``t`` grows. On
UC4 at 40 MHz over 200 ms, lsds makes 63 exact evaluations instead of
1,548; on UC3, whose Poisson releases come every few microseconds, the
scan hardly idles.

Each stage skips only intervals the exact commit test would reject, so
the result is identical to the plain sequential scan.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .phy import (
    Machine,
    PhyProfile,
    RuConfiguration,
    TONE_CLASSES,
    class_durations,
    config_table,
)
from .scheduling import DEFAULT_TXOP_US, Batch, Interval, Schedule, check_txop, make_schedule
from .workload import Job, JobSet

__all__ = [
    "LocalSearchStats",
    "pick_jobs",
    "lsds_config_search",
    "default_grid_us",
    "resolve_grid_us",
    "lsdsf_run",
    "lsds_run",
    "DEFAULT_TXOP_US",
]

# survivors in the first chunk of a sweep that ``_scan`` tightens; the
# chunks double from there
_CHUNK = 64
# starts in the first block a sweep bounds after an eviction; the blocks
# double from there
_BLOCK = 256
# deadline offset of jobs whose deadline sits on the horizon: no interval
# ends past the horizon, so their deadline never binds
_UNBOUND = 1 << 62


def default_grid_us(phy: PhyProfile) -> int:
    """Smallest multiple of the OFDM symbol >= 100 us, in microseconds."""
    sym_ns = phy.symbol_duration_ns
    return -(-100_000 // sym_ns) * sym_ns // 1000


def resolve_grid_us(grid_us: int | None, phy: PhyProfile, horizon: int, txop: int) -> int:
    """``grid_us``, or ``default_grid_us`` when None; ``ValueError`` unless
    it is positive and fits in the horizon and the TXOP."""
    grid_us = default_grid_us(phy) if grid_us is None else grid_us
    if grid_us <= 0:
        raise ValueError(f"grid_us must be positive, got {grid_us}")
    for name, span in (("horizon", horizon), ("txop", txop)):
        if span < grid_us:
            raise ValueError(f"{name} {span} us is shorter than one grid step of {grid_us} us")
    return grid_us


@dataclass
class LocalSearchStats:
    candidate_intervals: int = 0
    config_searches: int = 0            # intervals that reached the configuration search
    config_searches_computed: int = 0   # of those, searches not answered by the run's memo
    sweep_survivors: int = 0            # starts that passed ``_sweep``'s bound
    bound_rejects: int = 0              # of those, starts ``_tighten`` or ``_scan``'s
                                        # re-screen dropped
    idle_starts: int = 0                # of those, starts skipped as having no items
                                        # before the next release
    exact_evaluations: int = 0          # ``_items_for`` calls
    lengths_skipped: int = 0            # lengths where no start can commit, not scanned
    config_rows: int = 0                # table rows the computed searches evaluated
    commits: int = 0
    evictions: int = 0
    restarts: int = 0                   # sweeps restarted by an eviction
    commit_log: list[tuple[float, float]] = field(default_factory=list)


# ---- the nested-capacity kernel --------------------------------------------
#
# An item is ``(profit, c_min, count, ref)``: ``count`` interchangeable
# jobs of one profit that fit RU class ``c_min`` and every wider class;
# ``ref`` is the caller's handle on them. A row of suffix capacities holds,
# per class k (ascending), the number of RUs of class k or wider.


def _fold_sum(values):
    """Float sum, left to right. ``sum()`` compensates rounding from Python
    3.12 on, so a commit test at a near tie would depend on the interpreter."""
    return functools.reduce(operator.add, values, 0.0)


def _suffix(counts):
    """Suffix capacities of per-class counts (along the last axis)."""
    return counts[..., ::-1].cumsum(axis=-1)[..., ::-1]


def _greedy(items, suffix_caps):
    """Profit-ordered selection under nested class capacities (exact).

    ``items`` must come in descending profit. Returns the total profit and
    the takes, as items whose count is the number taken.
    """
    avail = suffix_caps.tolist()
    value = 0.0
    takes = []
    for profit, c, count, ref in items:
        room = min(avail[: c + 1])
        if room <= 0:
            continue
        take = min(count, room)
        for k in range(c + 1):
            avail[k] -= take
        value += profit * take
        takes.append((profit, c, take, ref))
    return value, takes


def _eval_configs(items, suffix_rows):
    """``_greedy``'s value of ``items`` under each row of ``suffix_rows``."""
    rem = suffix_rows.copy()
    values = np.zeros(len(suffix_rows))
    for profit, c, count, _ in items:
        room = rem[:, : c + 1].min(axis=1)
        take = np.minimum(count, room)
        values += profit * take
        rem[:, : c + 1] -= take[:, None]
    return values


def _config_search(items, suffix_rows):
    """First row of ``suffix_rows`` of best greedy value for ``items``, and
    that value, bit-identical to ``_greedy``'s: ``_eval_configs`` adds the
    same products in the same order. ``ref`` is never read, so
    ``_Engine._best_row`` memoizes the result by ``(profit, c_min, count)``.
    """
    values = _eval_configs(items, suffix_rows)
    row = int(np.argmax(values))
    return row, float(values[row])


def pick_jobs(
    candidates: list[Job],
    interval: Interval,
    counts: np.ndarray,
    phy: PhyProfile,
) -> tuple[int, list[Job]]:
    """Best row of ``counts`` (RUs per class of ``TONE_CLASSES``, one row
    per configuration) for one interval, and the jobs it takes.

    A candidate is admissible if it is released by the interval start and
    finishes on some RU class by the interval end and its deadline. Items
    are taken by descending profit, then ascending id; among rows of equal
    value the first wins. The taken jobs come most-constrained first, then
    by id: the k-th of them fits the row's k-th RU, widest first.
    """
    t1, t2 = interval.start, interval.end
    admitted = []
    for job in sorted(candidates, key=lambda j: (-j.profit, j.id)):
        if job.release > t1:
            continue
        limit = min(t2, job.deadline_abs) - t1
        durations = class_durations(job.size, phy)
        c = next((c for c, d in enumerate(durations) if d <= limit), None)
        if c is not None:
            admitted.append((job.profit, c, job))
    items = []
    for (profit, c), run in itertools.groupby(admitted, key=lambda a: a[:2]):
        jobs = [job for _, _, job in run]
        items.append((profit, c, len(jobs), jobs))

    # prune under the most RUs of each class, then search the rows
    suffix_rows = _suffix(counts)
    _, pruned = _greedy(items, _suffix(counts.max(axis=0)))
    row, _ = _config_search(pruned, suffix_rows)
    _, takes = _greedy(pruned, suffix_rows[row])
    placed = sorted(((c, job) for _, c, take, jobs in takes for job in jobs[:take]),
                    key=lambda cj: (-cj[0], cj[1].id))
    return row, [job for _, job in placed]


def lsds_config_search(
    candidates: list[Job],
    interval: Interval,
    channel_width: int,
    phy: PhyProfile,
) -> tuple[RuConfiguration, tuple[tuple[int, int], ...], list[Job]]:
    """``pick_jobs`` over every configuration of the channel: the best
    configuration (the first of the table on ties: fewer RUs, then counts),
    its (job id, machine index) pairs and the matched jobs."""
    table = config_table(channel_width)
    row, placed = pick_jobs(candidates, interval, table.counts, phy)
    pairs = tuple(sorted((job.id, m) for m, job in enumerate(placed)))
    return table.configs[row], pairs, placed


class _Group:
    """Unscheduled jobs sharing profit, per-class durations and deadline shape."""

    __slots__ = ("profit", "durations", "off", "releases", "ids")

    def __init__(self, profit, durations, off):
        self.profit = profit
        self.durations = durations  # per class, ascending class order (non-increasing)
        self.off = off              # deadline - release, or _UNBOUND (deadline == horizon)
        self.releases = None        # np.int64, sorted
        self.ids = None             # list of job ids, aligned with releases

    def remove(self, spans):
        """Drop the members at positions [lo, lo+n) for each disjoint (lo, n)."""
        kept, end = [], len(self.ids)
        for lo, n in sorted(spans, reverse=True):
            kept.append(self.releases[lo + n: end])
            del self.ids[lo: lo + n]
            end = lo
        kept.append(self.releases[:end])
        self.releases = np.concatenate(kept[::-1])

    def add(self, releases, ids):
        """Put back members of sorted ``releases``, before equal releases."""
        pos = self.releases.searchsorted(releases).tolist()
        self.releases = np.insert(self.releases, pos, releases)
        # last first, so the positions still index the old pool
        for p, i in zip(reversed(pos), reversed(ids)):
            self.ids.insert(p, i)


class _Engine:
    """Local search over one configuration table.

    Row i of ``counts`` is configuration ``configs[i]``'s RU count per
    class of ``classes`` (ascending); ``machines(i)`` is its machine list,
    widest RU first. Only classes that some row gives a nonzero count
    take part in the search. ``run`` returns the schedule and its stats.
    """

    def __init__(self, jobset, txop, grid_us, phy, classes, configs, counts, machines):
        grid_us = resolve_grid_us(grid_us, phy, jobset.horizon, txop)
        check_txop(txop, phy)
        self.jobset = jobset
        self.horizon = jobset.horizon
        self.grid = grid_us
        self.t_units = self.horizon // grid_us
        self.delta_units = min(txop // grid_us, self.t_units)
        self.phy = phy
        self.stats = LocalSearchStats()

        active = counts.any(axis=0)
        counts = counts[:, active]
        self.configs = configs
        self.machines = machines
        self.cfg_suffix = _suffix(counts)
        self.suffix_caps = _suffix(counts.max(axis=0))  # the relaxed machine set
        self.sigma_total = int(self.suffix_caps[0])
        self.caps_ext = np.append(self.suffix_caps, 0)  # S_0 .. S_K, with S_K = 0
        self.K = int(active.sum())

        self._build_groups(jobset, [TONE_CLASSES.index(c) for c in classes],
                           np.nonzero(active)[0])
        # committed batches, disjoint and so sorted by t1 and by t2 alike,
        # with their starts, ends and weights in aligned lists; a batch is
        # (table row, slices), as ``_commit`` builds it
        self.batches: list[tuple[int, list[tuple]]] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.weights: list[float] = []
        # the aligned lists as arrays, the weights as cumulative sums; see
        # _conflict_arrays
        self._arrays = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.zeros(1))
        self._stale_from = None  # first index a commit changed since they were built
        self._shift_length = None
        self._shift_rows = None
        # the winning table row and its value by (profit, c_min, count) of
        # the takes, and per set of c_min classes the first table row of each
        # distinct suffix projection onto them; the rows are fixed for the
        # engine's life, so entries never go stale
        self.searched: dict[tuple, tuple[int, float]] = {}
        self.class_rows: dict[tuple, np.ndarray] = {}

    # ---- pool construction -------------------------------------------------

    def _build_groups(self, jobset, table_cols, active):
        members = {}
        for job in jobset.jobs:
            off = _UNBOUND if job.deadline_abs >= self.horizon else job.deadline_abs - job.release
            members.setdefault((job.profit, job.size, off), []).append((job.release, job.id))
        # groups are keyed and ordered by the durations on every class of the
        # table, which fixes the order of equal-profit jobs; the search itself
        # only needs the active classes
        table = {}
        for (profit, size, off), rel_ids in members.items():
            full = class_durations(size, self.phy)
            table.setdefault((profit, tuple(full[c] for c in table_cols), off), []).extend(rel_ids)
        self.groups = []
        for key in sorted(table, key=lambda k: (-k[0], k[2], k[1])):
            profit, durations, off = key
            grp = _Group(profit, tuple(durations[c] for c in active), off)
            rel_ids = sorted(table[key])
            grp.releases = np.array([r for r, _ in rel_ids], dtype=np.int64)
            grp.ids = [i for _, i in rel_ids]
            self.groups.append(grp)
        # groups of one profit are adjacent: (profit, first, end) per profit
        self.levels = []
        for profit, run in itertools.groupby(range(len(self.groups)),
                                             key=lambda gi: self.groups[gi].profit):
            run = list(run)
            self.levels.append((profit, run[0], run[-1] + 1))

    # ---- committed-batch bookkeeping ---------------------------------------

    def _conflict_range(self, t1, t2):
        """Indices of committed batches sharing a point with [t1, t2]."""
        return bisect.bisect_left(self.ends, t1), bisect.bisect_right(self.starts, t2)

    def _conflict_arrays(self):
        """Starts, ends and cumulative weights of the committed batches.

        A commit changes the lists only from its first conflicting index
        on, so the arrays are rebuilt on demand from the first index any
        commit changed since the last build. cumsum adds left to right, so
        the sums are those of one cumsum over all the weights.
        """
        d = self._stale_from
        if d is not None:
            starts, ends, cumw = self._arrays
            self._arrays = (np.concatenate((starts[:d], self.starts[d:])),
                            np.concatenate((ends[:d], self.ends[d:])),
                            np.concatenate((cumw[:d + 1],
                                            np.cumsum([cumw[d], *self.weights[d:]])[1:])))
            self._stale_from = None
        return self._arrays

    def _conflict_weight_vector(self, t1v, t2v):
        starts, ends, cumw = self._conflict_arrays()
        hi = starts.searchsorted(t2v, side="right")
        lo = ends.searchsorted(t1v, side="left")
        return cumw[hi] - cumw[lo]

    def _may_beat(self, bound, t1v, t2v):
        """Where a profit ``bound`` of [t1v, t2v] may beat twice its conflict
        weight. A bound of 0 never passes; otherwise keep a margin for the
        rounding of cumulative weights, whose differences err with their total."""
        cw = self._conflict_weight_vector(t1v, t2v)
        total_w = self._conflict_arrays()[2][-1]
        return (bound > 0) & (bound * (1 + 1e-12) + 2e-12 * total_w > 2.0 * cw)

    # ---- per-interval evaluation -------------------------------------------

    def _shifts(self, length):
        """Per group, what to add to a start ``t1`` to search the group's
        pool for an interval of ``length``: ``1`` (released by ``t1``), then
        per class ``d - off`` (meets the deadline on that class). A class
        that the interval or the deadline cannot fit gets ``1`` as well, so
        it admits no one, and the searches fall as the classes widen.

        Also per group, the first class that can fit and its shift (``K``
        and 0 if none). Kept for the last length asked.
        """
        if self._shift_length != length:
            rows, first = [], []
            for g in self.groups:
                row = [d - g.off if d <= length and d - g.off <= 1 else 1 for d in g.durations]
                c0 = next((c for c, d in enumerate(g.durations)
                           if d <= length and d - g.off <= 1), self.K)
                rows.append(np.array([1] + row, dtype=np.int64))
                first.append((c0, row[c0] if c0 < self.K else 0))
            self._shift_length, self._shift_rows = length, (rows, first)
        return self._shift_rows

    def _items_for(self, t1, t2):
        """Admissible job counts per (group, minimum class), with positions.

        Returns ``_greedy`` items (profit, c_min, count, (group_idx, lo)) in
        profit order; members of a slice sit at positions [lo, lo+count) of
        the group's release-sorted pool and are interchangeable.
        """
        rows, first = self._shifts(t2 - t1)
        items = []
        for gi, g in enumerate(self.groups):
            c0, s0 = first[gi]
            R = g.releases
            if c0 == self.K or not len(R) or R[0] > t1:
                continue  # no class fits, or no member is released by t1
            if R[0] >= t1 + s0:
                # every member released by t1 fits class c0, and so every wider one
                items.append((g.profit, c0, int(R.searchsorted(t1, side="right")), (gi, 0)))
                continue
            # released by t1, then the first admissible position per class
            top, *los = R.searchsorted(t1 + rows[gi]).tolist()
            for c, lo in enumerate(los):
                if lo < top:
                    items.append((g.profit, c, top - lo, (gi, lo)))
                    top = lo
                if lo == 0:
                    break
        return items

    # ---- committing ---------------------------------------------------------

    def _commit(self, t1, t2, weight, takes, row, lo_b, hi_b, evicted_weight):
        # [lo_b, hi_b) is ``_conflict_range(t1, t2)`` and evicted_weight its
        # weight, as ``_scan`` found them. Take the jobs first: take
        # positions index the pool as it was when the interval was
        # evaluated, so the pool must not change (eviction
        # re-adds included) until the slices are read. The most constrained
        # takes go first, each member on the slowest class it admits; the
        # machines run widest first, so class k holds slots
        # [suffix[k + 1], suffix[k]), with suffix[K] = 0
        suffix = self.cfg_suffix[row].tolist()
        slot = suffix[1:] + [0]
        slices, removals = [], {}
        for _, c, take, (gi, lo) in sorted(takes, key=lambda t: -t[1]):
            g = self.groups[gi]
            removals.setdefault(g, []).append((lo, take))
            for cls in range(c, self.K):
                n = min(suffix[cls] - slot[cls], take)
                if n > 0:
                    # a list, not a view, which would pin the whole pool array
                    slices.append((g, g.releases[lo: lo + n].tolist(), g.ids[lo: lo + n],
                                   slot[cls]))
                    slot[cls] += n
                    lo += n
                    take -= n
                    if not take:
                        break
            if take:
                raise AssertionError("infeasible realization; capacity accounting bug")
        for g, spans in removals.items():
            g.remove(spans)

        # put evicted slices back in the order they were taken (it breaks ties)
        evicted = self.batches[lo_b:hi_b]
        for _, taken in evicted:
            for g, releases, ids, _ in taken:
                g.add(releases, ids)

        # every batch before lo_b ends before t1 and every one from hi_b on
        # starts after t2, so the new batch takes the evicted ones' place
        self.batches[lo_b:hi_b] = [(row, slices)]
        self.starts[lo_b:hi_b] = [t1]
        self.ends[lo_b:hi_b] = [t2]
        self.weights[lo_b:hi_b] = [weight]
        self._stale_from = lo_b if self._stale_from is None else min(self._stale_from, lo_b)
        self.stats.commits += 1
        self.stats.evictions += len(evicted)
        self.stats.commit_log.append((weight, evicted_weight))
        return bool(evicted)

    # ---- sweeps --------------------------------------------------------------

    def _sweep(self, l_units, from_idx, to_idx):
        """Candidate starts (grid indices from ``from_idx`` to before
        ``to_idx``) whose profit bound can pass the commit test, under the
        pool and batches at call time."""
        g = self.grid
        t1v = np.arange(from_idx, to_idx, dtype=np.int64) * g
        t2v = t1v + l_units * g
        length = l_units * g
        slots_left = np.full(len(t1v), self.sigma_total, dtype=np.int64)
        bound = np.zeros(len(t1v))
        for grp in self.groups:
            dmin = grp.durations[-1]
            if dmin > length or len(grp.releases) == 0:
                continue
            hi = np.searchsorted(grp.releases, t1v, side="right")
            lo = np.searchsorted(grp.releases, t1v + (dmin - grp.off), side="left")
            cnt = np.maximum(hi - lo, 0)
            take = np.minimum(cnt, slots_left)
            bound += grp.profit * take
            slots_left -= take
        return from_idx + np.nonzero(self._may_beat(bound, t1v, t2v))[0]

    def _tighten(self, chunk, length):
        """``_greedy``'s value under ``suffix_caps`` of each start (grid
        index) of ``chunk``, against the pool and batches now, and whether
        it can beat twice the start's conflict weight.

        Under nested capacities at most ``S_k`` chosen jobs can need class k
        or wider, so the most jobs of a set that fit is
        ``min_k (A_{k-1} + S_k)``, where ``A_k`` counts the jobs that fit
        class k (``A_{-1} = 0``, ``S_K = 0``). Greedy by profit takes, per
        profit level, that rank's increase, so the value is that increase
        times the profit, summed over the levels. ``A_k`` of a group is two
        searches of its pool: released by ``t1`` minus released before
        ``t1 + d_k - off``; one 2-D search per group gives every class.
        """
        shifts, first = self._shifts(length)
        t1v = chunk * self.grid
        acc = np.zeros((len(chunk), self.K + 1), dtype=np.int64)
        value = np.zeros(len(chunk))
        prev = 0
        for profit, lo, hi in self.levels:
            for gi in range(lo, hi):
                R = self.groups[gi].releases
                if first[gi][0] < self.K and len(R):
                    acc += R.searchsorted(t1v[:, None] + shifts[gi])
            # column k of acc[:, :1] - acc is A_{k-1}, and 0 for k = 0
            rank = (acc[:, :1] - acc + self.caps_ext).min(axis=1)
            value += profit * (rank - prev)
            prev = rank
        return value, self._may_beat(value, t1v, t1v + length)

    def _best_row(self, takes1):
        """The first table row of best greedy value for ``takes1`` and that
        value, memoized by signature. Only the first row of each distinct
        projection onto the takes' ``c_min`` columns is evaluated: a row's
        value depends on no other column.
        """
        key = tuple(t[:3] for t in takes1)
        found = self.searched.get(key)
        if found is None:
            cols = tuple(sorted({t[1] for t in takes1}))
            rows = self.class_rows.get(cols)
            if rows is None:
                _, first = np.unique(self.cfg_suffix[:, cols], axis=0, return_index=True)
                rows = self.class_rows[cols] = np.sort(first)
            i, value = _config_search(takes1, self.cfg_suffix[rows])
            found = self.searched[key] = (int(rows[i]), value)
            self.stats.config_searches_computed += 1
            self.stats.config_rows += len(rows)
        self.stats.config_searches += 1
        return found

    def _next_release(self, t1, length):
        """The first grid index at or past the earliest release after ``t1``
        in the pool of a group that some class fits at ``length``; past every
        start if there is none."""
        first = self._shifts(length)[1]
        release = self.horizon
        for (c0, _), g in zip(first, self.groups):
            if c0 < self.K:
                i = g.releases.searchsorted(t1, side="right")
                if i < len(g.releases):
                    release = min(release, int(g.releases[i]))
        return -(-release // self.grid)

    def _scan(self, survivors, length):
        """Evaluate and commit the surviving starts in order; the start of
        the first commit that evicts (which ends the scan), or None.

        The survivors are tightened a chunk at a time when the scan reaches
        them, and the chunks double in size. A start with no items idles the
        scan until the next release: the survivors before it are skipped,
        and a chunk is tightened only from the first survivor at or past it.
        """
        g = self.grid
        stats = self.stats
        stats.sweep_survivors += len(survivors)
        lo, size, idle_until = 0, _CHUNK, 0
        while lo < len(survivors):
            if survivors[lo] < idle_until:
                skip = int(survivors.searchsorted(idle_until))
                stats.idle_starts += skip - lo
                lo = skip
                continue
            chunk = survivors[lo: lo + size]
            lo, size = lo + size, 2 * size
            values, keep = self._tighten(chunk, length)
            stats.bound_rejects += len(chunk) - int(keep.sum())
            for idx, bound in zip(chunk[keep].tolist(), values[keep].tolist()):
                if idx < idle_until:
                    stats.idle_starts += 1
                    continue
                t1 = idx * g
                t2 = t1 + length
                lo_b, hi_b = self._conflict_range(t1, t2)
                conflict_w = _fold_sum(self.weights[lo_b:hi_b])
                # the chunk's value can only have fallen since: re-screen it
                # against the conflict weight as it now stands
                if bound * (1 + 1e-12) <= 2.0 * conflict_w:
                    stats.bound_rejects += 1
                    continue

                stats.exact_evaluations += 1
                items = self._items_for(t1, t2)
                if not items:
                    idle_until = self._next_release(t1, length)
                    continue
                value1, takes1 = _greedy(items, self.suffix_caps)
                if value1 <= 2.0 * conflict_w:
                    continue
                winner, value = self._best_row(takes1)
                if value <= 2.0 * conflict_w:
                    continue
                _, takes = _greedy(takes1, self.cfg_suffix[winner])
                if self._commit(t1, t2, value, takes, winner, lo_b, hi_b, conflict_w):
                    return idx
        return None

    def _fit_lengths(self):
        """The lengths, in grid steps, that some group's duration on some
        class first fits."""
        return {-(-d // self.grid) for g in self.groups for d in g.durations}

    def run(self):
        fit = self._fit_lengths()
        evicted = True  # the first length is always scanned
        for l_units in range(1, self.delta_units + 1):
            n = self.t_units - l_units + 1
            self.stats.candidate_intervals += n
            if not evicted and l_units not in fit:
                self.stats.lengths_skipped += 1
                continue
            evicted = False
            length = l_units * self.grid
            # the first sweep bounds every start; after an eviction the scan
            # goes on from the next start, bounding a block at a time
            lo, hi, block = 0, n, _BLOCK
            while lo < n:
                idx = self._scan(self._sweep(l_units, lo, hi), length)
                if idx is None:
                    lo = hi
                else:
                    self.stats.restarts += 1
                    evicted = True
                    lo, block = idx + 1, _BLOCK
                hi = min(n, lo + block)
                block *= 2
        profit_of = {j.id: j.profit for j in self.jobset.jobs}
        batches = [
            Batch(interval=Interval(t1, t2),
                  assignments=tuple(sorted(pair for _, _, ids, m in slices
                                           for pair in zip(ids, itertools.count(m)))),
                  machines=tuple(self.machines(row)), config=self.configs[row])
            for t1, t2, (row, slices) in zip(self.starts, self.ends, self.batches)
        ]
        return make_schedule(batches, profit_of), self.stats


def lsdsf_run(
    jobs: JobSet,
    machines: list[Machine],
    txop: int = DEFAULT_TXOP_US,
    grid_us: int | None = None,
    config: RuConfiguration | None = None,
) -> tuple[Schedule, LocalSearchStats]:
    """Local-search scheduler over a fixed machine (RU) configuration."""
    if not machines:
        raise ValueError("empty machine set")
    phy, *others = {m.phy for m in machines}
    if others:
        raise ValueError("machines must share one PHY profile")
    classes = sorted({m.tone_class for m in machines})
    counts = np.array([[sum(1 for m in machines if m.tone_class == c) for c in classes]],
                      dtype=np.int64)
    ordered = tuple(sorted(machines, key=lambda m: (-int(m.tone_class), m.id)))
    engine = _Engine(jobs, txop, grid_us, phy, classes, (config,), counts, lambda row: ordered)
    return engine.run()


def lsds_run(
    jobs: JobSet,
    channel_width: int,
    phy: PhyProfile | None = None,
    txop: int = DEFAULT_TXOP_US,
    grid_us: int | None = None,
) -> tuple[Schedule, LocalSearchStats]:
    """Local-search scheduler that also picks each batch's RU configuration."""
    phy = phy or PhyProfile()
    table = config_table(channel_width)
    engine = _Engine(jobs, txop, grid_us, phy, TONE_CLASSES, table.configs, table.counts,
                     lambda row: table.machines(row, phy))
    return engine.run()
