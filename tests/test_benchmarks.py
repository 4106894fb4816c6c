import pytest

from ofdmasched.benchmarks import greedy_benchmark
from ofdmasched.phy import PhyProfile
from ofdmasched.simulator import validate_schedule
from ofdmasched.workload import Job, JobSet, load_use_case

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
