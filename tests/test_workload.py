import math
import pickle

import pytest

from ofdmasched.benchmarks import greedy_benchmark
from ofdmasched.phy import PhyProfile
from ofdmasched.scheduling import dump_schedule
from ofdmasched.workload import (
    ApplicationProfile,
    Job,
    JobSet,
    _arrivals,
    dump_jobs,
    load_use_case,
    parse_jobs,
    use_case_profiles,
)

HORIZON = 200_000


def arrivals(profile, horizon=HORIZON, seed=0):
    """``(release, station, deadline_abs, size)`` rows of one profile's stations."""
    return _arrivals(profile, horizon, seed, 0, profile.name)


def test_uc2_control_traffic_single_station_count():
    profile = ApplicationProfile("ctl", 937.5, 100, 100, 16_000, 160, 1)
    rows = arrivals(profile)
    # period rounds to 1067 us; ceil(200000 / 1067) releases inside the horizon
    assert profile.period_us == 1067
    assert len(rows) == 188
    assert all(deadline == min(release + 16_000, HORIZON) for release, _, deadline, _ in rows)


def test_period_longer_than_horizon_gives_single_job():
    profile = ApplicationProfile("slow", 0.02, 30, 30, 1_000_000, 50, 1)
    (release, _, deadline, _), = arrivals(profile)
    assert release == 0
    assert deadline == HORIZON  # clipped


def test_uc1_total_count_matches_enumeration():
    js = load_use_case("UC1", HORIZON, seed=3)
    expected = 0
    for p in use_case_profiles("UC1"):
        expected += p.node_count * math.ceil(HORIZON / p.period_us)
    assert len(js) == expected


def test_poisson_mean_count_within_3_sigma():
    profile = ApplicationProfile("fast", 40_000, 50, 50, 1_000, 30, 1,
                                 arrival_kind="poisson")
    rows = arrivals(profile, seed=11)
    mean = 40_000 * HORIZON / 1e6
    assert abs(len(rows) - mean) <= 3 * math.sqrt(mean)


def test_poisson_low_rate_limit():
    profile = ApplicationProfile("rare", 1.0, 50, 50, 1_000, 5, 1,
                                 arrival_kind="poisson")
    assert len(arrivals(profile, seed=2)) <= 1


def test_poisson_deterministic_per_seed():
    profile = ApplicationProfile("p", 5_000, 50, 50, 1_000, 5, 3,
                                 arrival_kind="poisson")
    a = arrivals(profile, seed=5)
    b = arrivals(profile, seed=5)
    c = arrivals(profile, seed=6)
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
    ("0 0 0 100 1.0 10 2 a", "line 1: '0 0 0 100 1.0 10 2 a': critical must be 0 or 1, got 2"),
    # a horizon that is not positive leaves every job unschedulable, and
    # the empty schedule would validate clean
    ("# horizon_us=-5 seed=0\n0 0 0 100 1.0 10 0 a\n1 1 0 100 1.0 10 0 a",
     "line 1: '# horizon_us=-5 seed=0': horizon_us must be positive, got -5"),
    ("\n# horizon_us=0\n0 0 0 100 1.0 10 0 a",
     "line 2: '# horizon_us=0': horizon_us must be positive"),
])
def test_parse_jobs_names_the_bad_line(text, where):
    with pytest.raises(ValueError) as info:
        parse_jobs(text)
    assert str(info.value).startswith(where)


def test_parse_jobs_without_header_ends_at_the_latest_deadline():
    jobs = parse_jobs("0 0 0 100 1.0 10 0 a\n1 1 5 250 1.0 10 0 a\n")
    assert (jobs.horizon, jobs.seed, len(jobs)) == (250, 0, 2)


def test_parse_jobs_takes_any_horizon_header_without_jobs():
    assert parse_jobs("# horizon_us=0 seed=4\n") == JobSet(jobs=(), horizon=0, seed=4)


@pytest.mark.parametrize("profit", [float("nan"), float("inf"), -1])
def test_profile_profit_must_be_finite_and_non_negative(profit):
    # the rule a Job holds, raised where the profile is made
    with pytest.raises(ValueError, match="x: profit"):
        ApplicationProfile("x", 100, 10, 10, 1000, profit, 1)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        ApplicationProfile("bad", 0, 10, 10, 1_000, 1, 1)
    for fields, message in [(("bad", 100, 10, 10, 0, 1, 1), "deadline must be positive"),
                            (("bad", 100, 10, 10, 1_000, 1, 0), "node_count must be >= 1"),
                            (("bad", 100, 20, 10, 1_000, 1, 1), "bad size range"),
                            (("bad", 100, 10, 10, 1_000, 1, 1, "burst"),
                             "unknown arrival kind: burst")]:
        with pytest.raises(ValueError, match=message):
            ApplicationProfile(*fields)
    with pytest.raises(ValueError, match="horizon must be positive"):
        load_use_case("UC1", 0, 1)
    with pytest.raises(ValueError):
        arrivals(ApplicationProfile("bad", 2e6, 10, 10, 1_000, 1, 1))
    with pytest.raises(ValueError):
        load_use_case("UC9", HORIZON, seed=0)


def test_duplicate_job_ids_rejected():
    jobs = (Job(id=0, station=0, release=0, deadline_abs=100, profit=1.0, size=10),
            Job(id=7, station=1, release=0, deadline_abs=100, profit=1.0, size=10),
            Job(id=7, station=2, release=5, deadline_abs=100, profit=1.0, size=10))
    with pytest.raises(ValueError, match="duplicate job id 7"):
        JobSet(jobs=jobs, horizon=100, seed=0)


JOB_FIELDS = dict(id=3, station=1, release=10, deadline_abs=50, profit=2.5, size=40,
                  critical=True, app="a")


def test_job_fields_cannot_be_set():
    job = Job(**JOB_FIELDS)
    with pytest.raises(AttributeError):
        job.profit = 9.0
    with pytest.raises(AttributeError):
        job.extra = 1


def test_job_positional_and_keyword_construction_agree():
    by_position = Job(*JOB_FIELDS.values())
    by_keyword = Job(**JOB_FIELDS)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert Job(3, 1, 10, 50, 2.5, 40) == Job(**JOB_FIELDS)._replace(critical=False, app="")
    assert repr(by_keyword) == ("Job(id=3, station=1, release=10, deadline_abs=50, "
                                "profit=2.5, size=40, critical=True, app='a')")


def test_job_hash_is_the_hash_of_its_fields():
    job = Job(**JOB_FIELDS)
    assert hash(job) == hash((job.id, job.station, job.release, job.deadline_abs,
                              job.profit, job.size, job.critical, job.app))


def test_job_pickle_round_trip():
    job = Job(**JOB_FIELDS)
    back = pickle.loads(pickle.dumps(job))
    assert back == job and type(back) is Job


@pytest.mark.parametrize("bad,message", [
    (dict(release=50), "job 3: release 50 >= deadline 50"),
    (dict(deadline_abs=9), "job 3: release 10 >= deadline 9"),
    (dict(size=0), "zero-size payload"),
    (dict(profit=math.nan), "job 3: profit nan is not finite and non-negative"),
    (dict(profit=math.inf), "job 3: profit inf is not finite and non-negative"),
    (dict(profit=-5.0), "job 3: profit -5.0 is not finite and non-negative"),
])
def test_job_checks_hold_on_every_constructor(bad, message):
    fields = {**JOB_FIELDS, **bad}
    with pytest.raises(ValueError, match=message):
        Job(**fields)
    with pytest.raises(ValueError, match=message):
        Job._make(fields.values())
    with pytest.raises(ValueError, match=message):
        Job(**JOB_FIELDS)._replace(**bad)
