import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdmasched.benchmarks import BENCHMARK_KINDS, greedy_benchmark
from ofdmasched.phy import PhyProfile
from ofdmasched.simulator import validate_schedule
from ofdmasched.workload import Job, JobSet, load_use_case
from oracles import benchmarks as oracle

PHY = PhyProfile()


def test_unknown_kind_rejected():
    js = load_use_case("UC4", 20_000, seed=1)
    with pytest.raises(ValueError):
        greedy_benchmark("srpt", js, 40, PHY)


@pytest.mark.parametrize("txop", [0, -5])
def test_non_positive_txop_rejected(txop):
    # a TXOP of zero fits no packet, so the schedule would be empty and
    # still validate clean
    js = load_use_case("UC1", 4_000, seed=1)
    with pytest.raises(ValueError, match="txop"):
        greedy_benchmark("edf", js, 40, PHY, txop=txop)


def test_txop_under_one_symbol_rejected():
    # 10 us is shorter than one 16 us symbol: nothing transmits, and the
    # empty schedule would validate clean
    js = load_use_case("UC4", 20_000, seed=1)
    with pytest.raises(ValueError, match="shorter than one OFDM symbol"):
        greedy_benchmark("edf", js, 40, PHY, txop=10)
    # a TXOP of exactly one symbol carries the smallest packets
    assert greedy_benchmark("edf", js, 40, PHY, txop=PHY.symbol_duration_ns // 1_000).scheduled_jobs


def test_equal_profits_make_edf_and_lrf_behave_the_same():
    # every UC1 application has profit 10, so deadline order and
    # profit-to-deadline order coincide and the two schedulers tie
    js = load_use_case("UC1", 50_000, seed=2)
    edf = greedy_benchmark("edf", js, 40, PHY)
    lrf = greedy_benchmark("lrf", js, 40, PHY)
    assert edf.total_profit == lrf.total_profit
    assert len(edf.scheduled_jobs) == len(lrf.scheduled_jobs)


def test_nlrf_startup_equals_lrf_when_nothing_transmitted():
    # with zero transmitted packets the starvation factor is (0+1)/(G+1)
    # for every application alike at the first round; a one-round workload
    # therefore gets the same batch under lrf and nlrf
    jobs = tuple(
        Job(id=i, station=i, release=0, deadline_abs=2_000, profit=float(p), size=100)
        for i, p in enumerate((5, 9, 7))
    )
    js = JobSet(jobs=jobs, horizon=2_000, seed=0)
    lrf = greedy_benchmark("lrf", js, 20, PHY)
    nlrf = greedy_benchmark("nlrf", js, 20, PHY)
    assert lrf == nlrf


def test_benchmark_schedules_validate_clean():
    for uc, width in (("UC1", 40), ("UC2", 40), ("UC4", 40)):
        js = load_use_case(uc, 30_000, seed=3)
        for kind in ("edf", "lrf", "nlrf"):
            schedule = greedy_benchmark(kind, js, width, PHY)
            assert validate_schedule(schedule, js, width, PHY, 4_000) == []


def test_rounds_advance_to_batch_end_without_conflicts():
    js = load_use_case("UC2", 20_000, seed=4)
    schedule = greedy_benchmark("edf", js, 40, PHY)
    batches = sorted(schedule.batches, key=lambda b: b.interval.start)
    for a, b in zip(batches, batches[1:]):
        assert b.interval.start > a.interval.end


def test_deterministic():
    js = load_use_case("UC4", 100_000, seed=5)
    assert greedy_benchmark("nlrf", js, 40, PHY) == greedy_benchmark("nlrf", js, 40, PHY)


def test_drops_when_overloaded():
    # forty stations, one 9-RU channel, deadlines equal to one full-split
    # batch: nothing after the first round can finish in time
    jobs = tuple(
        Job(id=i, station=i, release=0, deadline_abs=64, profit=1.0, size=100)
        for i in range(40)
    )
    js = JobSet(jobs=jobs, horizon=64, seed=0)
    schedule = greedy_benchmark("edf", js, 20, PHY)
    assert len(schedule.scheduled_jobs) == 9


@st.composite
def job_sets(draw):
    """Up to 40 jobs on up to 14 stations, with fractional profits and
    payloads from a few bytes to more than one 26-tone RU carries in 4 ms."""
    horizon = draw(st.integers(200, 6_000))
    n_stations = draw(st.integers(1, 14))
    profit = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1 / 3, 2.5]),
                       st.floats(0.01, 50.0, allow_nan=False, allow_infinity=False))
    jobs = []
    for i in range(draw(st.integers(1, 40))):
        station = draw(st.integers(0, n_stations - 1))
        release = draw(st.integers(0, horizon - 1))
        jobs.append(Job(id=i, station=station, release=release,
                        deadline_abs=min(release + draw(st.integers(1, 3_000)), horizon),
                        profit=draw(profit), size=draw(st.integers(1, 3_000)),
                        app=f"app-{station % 3}"))
    return JobSet(jobs=tuple(jobs), horizon=horizon, seed=0)


# In exact arithmetic the one-RU row that fits the urgent 0.3 job ties
# with the 3-RU rows that fit the 0.1 and 0.2 jobs, but 0.1 + 0.2 > 0.3
# in binary floating point, so the matrix scorer takes a 3-RU row.
FLOAT_TIE = JobSet(jobs=(
    Job(id=0, station=0, release=0, deadline_abs=100, profit=0.3, size=1_000, app="a"),
    Job(id=1, station=1, release=0, deadline_abs=2_000, profit=0.1, size=10, app="a"),
    Job(id=2, station=2, release=0, deadline_abs=2_000, profit=0.2, size=10, app="a"),
), horizon=2_000, seed=0)
# twelve heads at once, more than the nine RUs of the widest 20 MHz row
CROWD = JobSet(jobs=tuple(
    Job(id=i, station=i, release=0, deadline_abs=1_000, profit=0.1 * (i + 1), size=40 * (i + 1),
        app=f"app-{i % 2}")
    for i in range(12)), horizon=1_000, seed=0)


@settings(max_examples=200, deadline=None)
@given(job_sets(), st.sampled_from(BENCHMARK_KINDS), st.sampled_from([20, 40, 80, 160]),
       st.integers(16, 4_000))
@example(FLOAT_TIE, "edf", 20, 4_000)
@example(CROWD, "lrf", 20, 4_000)
@example(CROWD, "nlrf", 20, 200)
def test_rounds_match_the_matrix_scorer(jobs, kind, width, txop):
    assert greedy_benchmark(kind, jobs, width, PHY, txop) == \
        oracle.greedy_benchmark(kind, jobs, width, PHY, txop)
