"""Pinned schedule and job-set bytes.

Each case hashes ``dump_schedule`` of one short run, or ``dump_jobs`` of
one use-case job set. A changed hash means the package now emits
different schedules or job sets for the same inputs; such a change has
to be named and explained, and the hash updated with it.
Hashes are the first 16 hex digits of the sha256.
"""

import hashlib

import pytest

from ofdmasched.local_search import lsds_run
from ofdmasched.phy import PhyProfile, full_26_tone_configuration
from ofdmasched.scheduling import dump_schedule
from ofdmasched.simulator import (
    ChannelScenario,
    best_effort_overlay,
    generate_best_effort,
    run_scenario,
)
from ofdmasched.slotted import SlottedApp, slotted_schedule
from ofdmasched.workload import dump_jobs, load_use_case

PHY = PhyProfile()

# use case -> (channel width, horizon, txop, grid)
RUNS = {
    "UC1": (40, 4_000, 4_000, 112),
    "UC2": (40, 10_000, 4_000, 16),
    "UC3": (160, 2_000, 500, 16),
    "UC4": (40, 50_000, 4_000, 112),
}

SCHEDULES = {
    ("UC1", "lsds"): "8de0d72b48482233",
    ("UC1", "lsdsf"): "351df3e09d2bcb5e",
    ("UC1", "edf"): "50e1a49a548e7edb",
    ("UC1", "lrf"): "50e1a49a548e7edb",
    ("UC1", "nlrf"): "463900bab2412192",
    ("UC2", "lsds"): "2df98cad65a49c5d",
    ("UC2", "lsdsf"): "e821a37b8828da4e",
    ("UC2", "edf"): "255c2e30a158078d",
    ("UC2", "lrf"): "0ae5dc8e70cc833f",
    ("UC2", "nlrf"): "34223bac03721bb4",
    ("UC3", "lsds"): "97e0893888397984",
    ("UC3", "lsdsf"): "99b6399bd57cfce3",
    ("UC3", "edf"): "9976a444fd20bee6",
    ("UC3", "lrf"): "e00be76f7b8a93d0",
    ("UC3", "nlrf"): "082ba09a7ededa36",
    ("UC4", "lsds"): "e73d6fa74f208764",
    ("UC4", "lsdsf"): "4ad8212696a6ccc4",
    ("UC4", "edf"): "28eddda5998d3d42",
    ("UC4", "lrf"): "f2e9f33a55f28062",
    ("UC4", "nlrf"): "08638d287fda57d9",
}

# (use case, width, horizon, txop, grid) -> golden hash. The UC3 run is
# long enough for the engine to evict (17 times) and to tighten sweeps of
# more than one chunk of survivors. The UC1 run evicts 5 times, and its
# hash changes if evicted jobs go back behind pool members of an equal
# release instead of before them.
LONG_LSDS = {("UC3", 160, 10_000, 500, 16): "0d1e1cc4c039f59e",
             ("UC1", 40, 5_000, 4_000, 16): "879839745dc3424c"}

# 362 rounds per scheduler, whose packets go on RUs of all six classes:
# (use case, width, horizon, txop) -> hash per scheduler
LONG_BASELINES = {("UC3", 160, 10_000, 500): {"edf": "b1d7e53f1b114a41",
                                              "lrf": "990ee7b85db66960",
                                              "nlrf": "4a3a5525d71282e4"}}

# (use case, horizon, seed) -> hash of dump_jobs
JOB_SETS = {
    ("UC1", 50_000, 1): "4aae3c92022325e5",
    ("UC2", 50_000, 1): "ed8909774007dceb",
    ("UC3", 20_000, 1): "07c5282a8679fb98",
    ("UC3", 20_000, 7): "e241d809a4bdaf30",
    ("UC4", 200_000, 1): "b28c961a496dc5fb",
}

# use case -> hash of the per-job-set sha256 digests of dump_jobs at seeds
# 1, 7 and 42, each at horizons of 1, 50 and 200 ms, in that order: UC2 and
# UC4 stations draw nothing from their random streams
JOB_SET_MATRIX = {"UC1": "1da644d81c10bbee", "UC2": "f5b07ceb0cb2999c",
                  "UC3": "f573dfa054321293", "UC4": "5e5b81412e1290be"}

# use case -> (horizon, best-effort load in Mbps, packet size, golden hash)
OVERLAYS = {
    "UC4": (100_000, 20.0, 1500, "43f38f7b7e0e57f4"),
    # 300 B packets fit the free RUs of UC2's factory batches
    "UC2": (20_000, 100.0, 300, "e589fc2a41790666"),
}

SLOTTED_APPS = [
    SlottedApp("fast", 2, 200, 1, 9.0, 6),
    SlottedApp("mid", 3, 400, 1, 5.0, 8),
    SlottedApp("slow", 6, 800, 3, 2.0, 12),
]
# window -> golden hash (None: one optimal matching per hyper-period)
SLOTTED = {None: "5f55611b8bd3d198", 2: "a75b6107a7f44ca2"}


def digest(schedule):
    return text_digest(dump_schedule(schedule))


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(JOB_SETS))
def test_job_set_bytes(case):
    assert text_digest(dump_jobs(load_use_case(*case))) == JOB_SETS[case]


@pytest.mark.parametrize("use_case", sorted(JOB_SET_MATRIX))
def test_job_set_matrix_bytes(use_case):
    h = hashlib.sha256()
    for seed in (1, 7, 42):
        for horizon in (1_000, 50_000, 200_000):
            h.update(hashlib.sha256(dump_jobs(load_use_case(use_case, horizon, seed))
                                    .encode()).digest())
    assert h.hexdigest()[:16] == JOB_SET_MATRIX[use_case]


@pytest.mark.parametrize("use_case,scheduler", sorted(SCHEDULES))
def test_registry_schedule_bytes(use_case, scheduler):
    width, horizon, txop, grid = RUNS[use_case]
    jobs = load_use_case(use_case, horizon, seed=1)
    _, schedule = run_scenario(jobs, scheduler, ChannelScenario("ideal"), width,
                               txop=txop, grid_us=grid)
    assert digest(schedule) == SCHEDULES[use_case, scheduler]


@pytest.mark.parametrize("case", sorted(LONG_LSDS))
def test_long_lsds_schedule_bytes(case):
    use_case, width, horizon, txop, grid = case
    jobs = load_use_case(use_case, horizon, seed=1)
    _, schedule = run_scenario(jobs, "lsds", ChannelScenario("ideal"), width,
                               txop=txop, grid_us=grid)
    assert digest(schedule) == LONG_LSDS[case]


@pytest.mark.parametrize("scheduler", ["edf", "lrf", "nlrf"])
@pytest.mark.parametrize("case", sorted(LONG_BASELINES))
def test_long_baseline_schedule_bytes(case, scheduler):
    use_case, width, horizon, txop = case
    jobs = load_use_case(use_case, horizon, seed=1)
    _, schedule = run_scenario(jobs, scheduler, ChannelScenario("ideal"), width, txop=txop)
    assert digest(schedule) == LONG_BASELINES[case][scheduler]


@pytest.mark.parametrize("use_case", sorted(OVERLAYS))
def test_overlay_schedule_bytes(use_case):
    horizon, load, size, want = OVERLAYS[use_case]
    jobs = load_use_case(use_case, horizon, seed=1)
    packets = generate_best_effort(load, horizon, seed=3, size=size)
    out, _, _ = best_effort_overlay(lsds_run(jobs, 40, PHY)[0], jobs, packets, 40, PHY)
    assert digest(out) == want


@pytest.mark.parametrize("window", sorted(SLOTTED, key=lambda w: w or 0))
def test_slotted_schedule_bytes(window):
    schedule, _ = slotted_schedule(SLOTTED_APPS, full_26_tone_configuration(20), 24,
                                   window_n=window)
    assert digest(schedule) == SLOTTED[window]
