"""Job-set generation from application profiles.

The four factory use cases are table-driven; each station of a profile
emits packets independently (one application per station). Generation is
a pure function of (profile, horizon, seed): per-station RNG streams are
keyed by a string of the seed, use-case and station index, so job sets
are byte-identical across runs and platforms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "ApplicationProfile",
    "Job",
    "JobSet",
    "USE_CASES",
    "use_case_profiles",
    "load_use_case",
    "dump_jobs",
    "parse_jobs",
]


@dataclass(frozen=True)
class ApplicationProfile:
    """One application row of a use-case table."""

    name: str
    gen_rate: float  # packets per second, per station
    size_min: int    # bytes; size_min == size_max for fixed-size traffic
    size_max: int
    deadline_us: int
    profit: float
    node_count: int
    arrival_kind: str = "periodic"  # or "poisson"

    def __post_init__(self):
        if self.gen_rate <= 0:
            raise ValueError("gen_rate must be positive")
        if self.deadline_us <= 0:
            raise ValueError("deadline must be positive")
        if self.profit < 0:
            raise ValueError("profit must be non-negative")
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if not 0 < self.size_min <= self.size_max:
            raise ValueError("bad size range")
        if self.arrival_kind not in ("periodic", "poisson"):
            raise ValueError(f"unknown arrival kind: {self.arrival_kind}")

    @property
    def period_us(self) -> int:
        return round(1e6 / self.gen_rate)


class _JobFields(NamedTuple):
    id: int
    station: int
    release: int        # us
    deadline_abs: int   # us, clipped to the horizon
    profit: float
    size: int           # bytes
    critical: bool = False
    app: str = ""


class Job(_JobFields):
    """A packet: release time, absolute deadline, profit, payload size.

    A tuple, because use cases and the slotted matcher build thousands of
    packets per run and a frozen dataclass pays one ``object.__setattr__``
    per field. Fields, defaults, ``repr``, immutability and ``hash`` (that
    of the tuple of fields) are those a frozen dataclass would give, and
    jobs compare equal as their fields do. The checks live in ``__new__``,
    which unpickling calls; ``_make``, and so ``_replace``, goes through it
    too, so every ``Job`` passes them. A field read costs about twice a
    slot read, so loops that read the same fields every round copy them
    to lists first (see ``benchmarks._Station``).
    """

    __slots__ = ()

    def __new__(cls, id, station, release, deadline_abs, profit, size, critical=False, app=""):
        if release >= deadline_abs:
            raise ValueError(f"job {id}: release {release} >= deadline {deadline_abs}")
        if size <= 0:
            raise ValueError("zero-size payload")
        if not 0.0 <= profit < math.inf:  # also false for nan
            raise ValueError(f"job {id}: profit {profit} is not finite and non-negative")
        return tuple.__new__(cls, (id, station, release, deadline_abs, profit, size, critical, app))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


@dataclass(frozen=True)
class JobSet:
    jobs: tuple[Job, ...]
    horizon: int
    seed: int

    def __post_init__(self):
        if len({j.id for j in self.jobs}) == len(self.jobs):
            return
        seen = set()
        for j in self.jobs:
            if j.id in seen:
                raise ValueError(f"duplicate job id {j.id}")
            seen.add(j.id)

    @property
    def total_profit(self) -> float:
        return sum(j.profit for j in self.jobs)

    def __len__(self):
        return len(self.jobs)


def _station_rng(seed: int, scope: str, station: int) -> random.Random:
    return random.Random(f"{seed}:{scope}:{station}")


def _arrivals(profile, horizon, seed, station_base, scope):
    """``(release, station, deadline_abs, size)`` of every packet, station
    by station in release order; station RNG streams are keyed by ``scope``.

    Periodic stations are synchronized (every one releases at 0, the
    adversarial case) and the seed draws only packet sizes; Poisson gaps
    are exponential with mean ``1e6 / gen_rate`` us, floored to the 1 us
    grid. Releases fall in [0, horizon); deadlines are clipped to it.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    periodic = profile.arrival_kind == "periodic"
    if periodic and profile.period_us < 1:
        raise ValueError(f"{profile.name}: period below the 1 us grid")
    fixed = profile.size_min if profile.size_min == profile.size_max else None
    mean_us = 1e6 / profile.gen_rate
    rows = []
    for station in range(station_base, station_base + profile.node_count):
        rng = _station_rng(seed, scope, station)
        if periodic:
            releases = range(0, horizon, profile.period_us)
        else:
            releases = _poisson_releases(rng, mean_us, horizon)
        for release in releases:
            size = fixed or rng.randint(profile.size_min, profile.size_max)
            rows.append((release, station, min(release + profile.deadline_us, horizon), size))
    return rows


def _poisson_releases(rng, mean_us, horizon):
    """Release times with exponential gaps. Lazy: the caller draws each
    packet's size from the same stream before the next gap."""
    t = 0.0
    while True:
        t += -mean_us * math.log(1.0 - rng.random())
        release = int(t)
        if release >= horizon:
            return
        yield release


# Use-case tables: (name, gen rate pkts/s, size or (min, max) bytes,
# deadline ms, profit, nodes).
_UC1 = [
    ("profile-1", 4000, (64, 128), 0.25, 10, 10),
    ("profile-2", 2000, (128, 256), 0.5, 10, 10),
    ("profile-3", 1000, (256, 512), 1, 10, 10),
    ("profile-4", 500, (512, 1024), 2, 10, 10),
    ("profile-5", 250, (1024, 1522), 4, 10, 10),
]
_UC2 = [
    ("smart-meters", 1.25, 100, 16, 10, 15),
    ("status-info", 2.5, 100, 16, 20, 15),
    ("reporting-logging", 0.75, 500, 1000, 30, 15),
    ("data-polling", 1, 500, 16, 10, 15),
    ("control-traffic", 937.5, 100, 16, 160, 20),
    ("video-surveillance", 2000, 1500, 1000, 10, 10),
]
# UC-3 table rates are per application (40000 pkts/s each) and are split
# evenly across the application's 10 nodes.
_UC3 = [
    ("motion-control", 4000, 50, 1, 30, 10),
    ("collaborative-agv", 4000, 50, 4, 20, 10),
    ("robotic-control", 4000, 50, 10, 30, 10),
    ("asset-monitoring", 4000, 50, 100, 5, 10),
]
_UC4 = [
    ("size-inspection", 1, 30000, 5000, 30, 3),
    ("defect-detection", 10, 500, 500, 50, 4),
    ("ac-sensing", 0.016, 64, 6000, 45, 1),
    ("preventive-maintenance", 0.02, 30, 1000, 50, 2),
    ("equipment-monitoring", 1, 20, 1000, 30, 2),
    ("wrench-counting", 0.016, 64, 100, 40, 10),
    ("movement-beacon", 2, 4000, 4000, 10, 6),
    ("asset-racking", 1, 200, 1000, 15, 20),
    ("parts-tracking", 0.028, 1000, 1000, 45, 10),
    ("expert-video", 50, 24000, 200000, 1, 1),
]

_UC_TABLES = {"UC1": (_UC1, "periodic"), "UC2": (_UC2, "periodic"),
              "UC3": (_UC3, "poisson"), "UC4": (_UC4, "periodic")}

USE_CASES = tuple(_UC_TABLES)


def use_case_profiles(use_case: str) -> list[ApplicationProfile]:
    """Application profiles of a use case, in table order."""
    if use_case not in _UC_TABLES:
        raise ValueError(f"unknown use case: {use_case}; choose from {USE_CASES}")
    rows, kind = _UC_TABLES[use_case]
    profiles = []
    for name, rate, size, deadline_ms, profit, nodes in rows:
        lo, hi = size if isinstance(size, tuple) else (size, size)
        profiles.append(ApplicationProfile(
            name=name, gen_rate=rate, size_min=lo, size_max=hi,
            deadline_us=round(deadline_ms * 1000), profit=profit,
            node_count=nodes, arrival_kind=kind,
        ))
    return profiles


def load_use_case(use_case: str, horizon: int, seed: int) -> JobSet:
    """Instantiate a use-case table into a concrete JobSet.

    Packets of the highest-profit application(s) are flagged critical.
    Stations are numbered globally in table order; job ids follow
    (release, station) order.
    """
    profiles = use_case_profiles(use_case)
    max_profit = max(p.profit for p in profiles)
    rows = []
    owner = []  # station -> profile
    for p in profiles:
        rows += _arrivals(p, horizon, seed, len(owner), f"{use_case}:{p.name}")
        owner += [p] * p.node_count
    rows.sort(key=lambda r: (r[0], r[1], r[2]))  # stable: ties keep table order
    jobs = tuple(
        Job(id=i, station=station, release=release, deadline_abs=deadline,
            profit=owner[station].profit, size=size,
            critical=owner[station].profit == max_profit, app=owner[station].name)
        for i, (release, station, deadline, size) in enumerate(rows))
    del rows  # freed before JobSet's duplicate-id check builds its set
    return JobSet(jobs=jobs, horizon=horizon, seed=seed)


def dump_jobs(jobset: JobSet) -> str:
    """Line format: ``id station release_us deadline_us profit size_bytes critical app``;
    ``app`` is empty for jobs of no application."""
    lines = [f"# horizon_us={jobset.horizon} seed={jobset.seed}"]
    for j in jobset.jobs:
        lines.append(
            f"{j.id} {j.station} {j.release} {j.deadline_abs} {j.profit!r} {j.size} "
            f"{int(j.critical)} {j.app}".rstrip()
        )
    return "\n".join(lines) + "\n"


def parse_jobs(text: str) -> JobSet:
    horizon, seed = 0, 0
    jobs = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                meta = dict(kv.split("=") for kv in line[1:].split())
                horizon = int(meta.get("horizon_us", 0))
                seed = int(meta.get("seed", 0))
                continue
            f = line.split(maxsplit=7)
            if len(f) < 7:
                raise ValueError(f"expected at least 7 fields, got {len(f)}")
            if f[6] not in ("0", "1"):
                raise ValueError(f"critical must be 0 or 1, got {f[6]}")
            jobs.append(Job(id=int(f[0]), station=int(f[1]), release=int(f[2]),
                            deadline_abs=int(f[3]), profit=float(f[4]),
                            size=int(f[5]), critical=f[6] == "1",
                            app=f[7] if len(f) > 7 else ""))
        except ValueError as exc:
            raise ValueError(f"line {number}: {line!r}: {exc}") from None
    if not horizon and jobs:
        horizon = max(j.deadline_abs for j in jobs)
    return JobSet(jobs=tuple(jobs), horizon=horizon, seed=seed)
