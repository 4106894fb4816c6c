"""Schedule data model: intervals, batches, schedules, and their text form.

Intervals are closed [t1, t2] on the integer microsecond grid. Two
intervals conflict if they share any point, including endpoints; a
feasible schedule consists of pairwise non-conflicting batches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .phy import Machine, PhyProfile, RuConfiguration, config_table, configuration_index

__all__ = ["Interval", "Batch", "Schedule", "conflicts", "dump_schedule", "parse_schedule",
           "DEFAULT_TXOP_US", "check_txop"]

# the longest batch every scheduler allows unless told otherwise
DEFAULT_TXOP_US = 4_000


def check_txop(txop: int, phy: PhyProfile) -> None:
    """``ValueError`` unless the TXOP holds one OFDM symbol, the least a batch carries."""
    if txop * 1_000 < phy.symbol_duration_ns:
        raise ValueError(f"txop {txop} us is shorter than one OFDM symbol "
                         f"({phy.symbol_duration_ns} ns)")


@dataclass(frozen=True, order=True)
class Interval:
    start: int  # t1, us
    end: int    # t2, us

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"empty interval [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start


def conflicts(a: Interval, b: Interval) -> bool:
    """Closed-interval conflict: the intervals share at least one point."""
    return a.start <= b.start <= a.end or b.start <= a.start <= b.end


@dataclass(frozen=True)
class Batch:
    """One synchronized transmission: an interval plus job->machine pairs.

    ``assignments`` maps job ids to indices into ``machines``. When the
    batch was built from an RU configuration, ``machines`` is the
    canonical widest-first machine list of that configuration.
    """

    interval: Interval
    assignments: tuple[tuple[int, int], ...]  # (job_id, machine_index)
    machines: tuple[Machine, ...]
    config: RuConfiguration | None = None

    @property
    def job_ids(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.assignments)


@dataclass(frozen=True)
class Schedule:
    batches: tuple[Batch, ...]
    scheduled_jobs: frozenset[int]
    total_profit: float

    def __post_init__(self):
        ids = [j for b in self.batches for j, _ in b.assignments]
        id_set = set(ids)
        if len(ids) != len(id_set):
            raise ValueError("job appears in two batches")
        if id_set != self.scheduled_jobs:
            raise ValueError("scheduled_jobs inconsistent with batches")


def make_schedule(batches: list[Batch], profit_of: dict[int, float]) -> Schedule:
    batches = sorted(batches, key=lambda b: (b.interval.start, b.interval.end))
    ids = frozenset(j for b in batches for j, _ in b.assignments)
    return Schedule(
        batches=tuple(batches),
        scheduled_jobs=ids,
        total_profit=sum(profit_of[j] for j in ids),
    )


def dump_schedule(schedule: Schedule) -> str:
    """Line format: ``batch_idx t1_us t2_us config_id job_id machine_id``.

    ``config_id`` is the configuration's stable index within its channel
    width, or -1 for batches built from an explicit machine list.
    """
    lines = []
    for idx, b in enumerate(schedule.batches):
        cfg = -1 if b.config is None else configuration_index(b.config)
        for job_id, machine_id in b.assignments:
            lines.append(f"{idx} {b.interval.start} {b.interval.end} {cfg} {job_id} {machine_id}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_schedule(
    text: str,
    profit_of: dict[int, float],
    channel_width: int,
    phy: PhyProfile,
) -> Schedule:
    table = config_table(channel_width)
    rows: dict[int, tuple] = {}  # batch index -> (interval, config, first line, pairs)
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            idx, t1, t2, cfg, job, mach = map(int, line.split())
            interval = Interval(t1, t2)
            if job not in profit_of:
                raise ValueError(f"job {job} is not in the job set")
            if not 0 <= cfg < len(table.configs):
                raise ValueError(f"configuration {cfg} is not in the {channel_width} MHz table")
            n_machines = table.configs[cfg].total_rus
            if not 0 <= mach < n_machines:
                raise ValueError(f"machine {mach} is not among the {n_machines} machines "
                                 f"of configuration {cfg}")
            batch = rows.setdefault(idx, (interval, cfg, number, []))
            if batch[:2] != (interval, cfg):
                raise ValueError(f"batch {idx} is [{batch[0].start}, {batch[0].end}] on "
                                 f"configuration {batch[1]} at line {batch[2]}")
        except ValueError as exc:
            raise ValueError(f"line {number}: {line!r}: {exc}") from None
        batch[3].append((job, mach))
    batches = [
        Batch(interval=interval, assignments=tuple(sorted(pairs)),
              machines=table.machines(cfg, phy), config=table.configs[cfg])
        for _, (interval, cfg, _, pairs) in sorted(rows.items())
    ]
    return make_schedule(batches, profit_of)
