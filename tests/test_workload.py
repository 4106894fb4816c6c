import math

import pytest

from ofdmasched.benchmarks import greedy_benchmark
from ofdmasched.phy import PhyProfile
from ofdmasched.scheduling import dump_schedule
from ofdmasched.workload import (
    ApplicationProfile,
    Job,
    JobSet,
    dump_jobs,
    generate_periodic,
    generate_poisson,
    load_use_case,
    parse_jobs,
    use_case_profiles,
)

HORIZON = 200_000


def test_uc2_control_traffic_single_station_count():
    profile = ApplicationProfile("ctl", 937.5, 100, 100, 16_000, 160, 1)
    jobs = generate_periodic(profile, HORIZON)
    # period rounds to 1067 us; ceil(200000 / 1067) releases inside the horizon
    assert profile.period_us == 1067
    assert len(jobs) == 188
    assert all(j.deadline_abs == min(j.release + 16_000, HORIZON) for j in jobs)


def test_period_longer_than_horizon_gives_single_job():
    profile = ApplicationProfile("slow", 0.02, 30, 30, 1_000_000, 50, 1)
    jobs = generate_periodic(profile, HORIZON)
    assert len(jobs) == 1
    assert jobs[0].release == 0
    assert jobs[0].deadline_abs == HORIZON  # clipped


def test_uc1_total_count_matches_enumeration():
    js = load_use_case("UC1", HORIZON, seed=3)
    expected = 0
    for p in use_case_profiles("UC1"):
        expected += p.node_count * math.ceil(HORIZON / p.period_us)
    assert len(js) == expected


def test_poisson_mean_count_within_3_sigma():
    profile = ApplicationProfile("fast", 40_000, 50, 50, 1_000, 30, 1,
                                 arrival_kind="poisson")
    jobs = generate_poisson(profile, HORIZON, seed=11)
    mean = 40_000 * HORIZON / 1e6
    assert abs(len(jobs) - mean) <= 3 * math.sqrt(mean)


def test_poisson_low_rate_limit():
    profile = ApplicationProfile("rare", 1.0, 50, 50, 1_000, 5, 1,
                                 arrival_kind="poisson")
    jobs = generate_poisson(profile, HORIZON, seed=2)
    assert len(jobs) <= 1


def test_poisson_deterministic_per_seed():
    profile = ApplicationProfile("p", 5_000, 50, 50, 1_000, 5, 3,
                                 arrival_kind="poisson")
    a = generate_poisson(profile, HORIZON, seed=5)
    b = generate_poisson(profile, HORIZON, seed=5)
    c = generate_poisson(profile, HORIZON, seed=6)
    assert a == b
    assert a != c


def test_uc3_table_shape():
    js = load_use_case("UC3", 20_000, seed=1)
    stations = {j.station for j in js.jobs}
    assert len(stations) == 40
    assert all(j.size == 50 for j in js.jobs)
    assert {j.profit for j in js.jobs} == {30, 20, 5}
    # both profit-30 applications are critical
    critical_apps = {j.app for j in js.jobs if j.critical}
    assert critical_apps == {"motion-control", "robotic-control"}


def test_uc4_table_shape():
    js = load_use_case("UC4", HORIZON, seed=1)
    assert len({j.station for j in js.jobs}) == 59
    critical_apps = {j.app for j in js.jobs if j.critical}
    assert critical_apps == {"defect-detection", "preventive-maintenance"}


def test_uc1_everything_critical_under_max_profit_rule():
    js = load_use_case("UC1", 10_000, seed=1)
    assert all(j.critical for j in js.jobs)


def test_regeneration_is_byte_identical():
    a = dump_jobs(load_use_case("UC2", HORIZON, seed=9))
    b = dump_jobs(load_use_case("UC2", HORIZON, seed=9))
    assert a == b


def test_job_profit_equals_profile_profit():
    js = load_use_case("UC2", HORIZON, seed=4)
    by_app = {p.name: p.profit for p in use_case_profiles("UC2")}
    assert all(j.profit == by_app[j.app] for j in js.jobs)


def test_no_station_queuing_when_deadline_at_most_period():
    js = load_use_case("UC1", 50_000, seed=2)
    per_station = {}
    for j in js.jobs:
        per_station.setdefault(j.station, []).append(j)
    for jobs in per_station.values():
        jobs.sort(key=lambda j: j.release)
        for prev, nxt in zip(jobs, jobs[1:]):
            assert nxt.release >= prev.deadline_abs


def test_jobs_round_trip_through_text_format():
    js = load_use_case("UC4", HORIZON, seed=8)
    text = dump_jobs(js)
    back = parse_jobs(text)
    assert back.horizon == js.horizon and back.seed == js.seed
    assert len(back.jobs) == len(js.jobs)
    for a, b in zip(js.jobs, back.jobs):
        assert (a.id, a.station, a.release, a.deadline_abs, a.profit, a.size,
                a.critical, a.app) == (b.id, b.station, b.release, b.deadline_abs,
                                       b.profit, b.size, b.critical, b.app)


@pytest.mark.parametrize("use_case,horizon", [("UC1", 20_000), ("UC2", 50_000), ("UC4", HORIZON)])
def test_nlrf_schedule_survives_jobs_round_trip(use_case, horizon):
    # nlrf keeps its starvation counters per application
    js = load_use_case(use_case, horizon, seed=1)
    back = parse_jobs(dump_jobs(js))
    phy = PhyProfile()
    assert dump_schedule(greedy_benchmark("nlrf", back, 40, phy)) == \
        dump_schedule(greedy_benchmark("nlrf", js, 40, phy))


def test_jobs_round_trip_without_app():
    js = JobSet(jobs=(Job(id=0, station=0, release=0, deadline_abs=100, profit=1.5, size=10),),
                horizon=100, seed=3)
    assert parse_jobs(dump_jobs(js)) == js


@pytest.mark.parametrize("text,where", [
    ("0 1 2", "line 1: '0 1 2': expected at least 7 fields, got 3"),
    ("# horizon_us=100\n\n0 0 0 100 1.0 10 0 a\n1 0 x 100 1.0 10 0 a",
     "line 4: '1 0 x 100 1.0 10 0 a': invalid literal"),
    ("# horizon_us\n", "line 1: '# horizon_us':"),
    ("0 0 50 50 1.0 10 0 a", "line 1: '0 0 50 50 1.0 10 0 a': job 0: release 50 >= deadline 50"),
])
def test_parse_jobs_names_the_bad_line(text, where):
    with pytest.raises(ValueError) as info:
        parse_jobs(text)
    assert str(info.value).startswith(where)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        ApplicationProfile("bad", 0, 10, 10, 1_000, 1, 1)
    with pytest.raises(ValueError):
        generate_periodic(ApplicationProfile("bad", 2e6, 10, 10, 1_000, 1, 1), HORIZON)
    with pytest.raises(ValueError):
        load_use_case("UC9", HORIZON, seed=0)


def test_duplicate_job_ids_rejected():
    jobs = (Job(id=0, station=0, release=0, deadline_abs=100, profit=1.0, size=10),
            Job(id=7, station=1, release=0, deadline_abs=100, profit=1.0, size=10),
            Job(id=7, station=2, release=5, deadline_abs=100, profit=1.0, size=10))
    with pytest.raises(ValueError, match="duplicate job id 7"):
        JobSet(jobs=jobs, horizon=100, seed=0)
