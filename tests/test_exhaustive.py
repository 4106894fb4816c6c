import pytest

from ofdmasched.local_search import default_grid_us
from ofdmasched.phy import Machine, PhyProfile, RuToneClass
from ofdmasched.workload import Job, JobSet

from oracles.exhaustive import brute_force_optimal

PHY = PhyProfile()


def machine(tone_class, machine_id=0):
    return Machine(machine_id, tone_class, PHY)


def test_empty_jobs_optimum_zero():
    js = JobSet(jobs=(), horizon=100, seed=0)
    assert brute_force_optimal(js, machines=[machine(RuToneClass.RU26)],
                               txop=64, grid_us=16) == 0.0


def test_single_job_single_machine():
    fits = JobSet(jobs=(Job(id=0, station=0, release=16, deadline_abs=96,
                            profit=7.0, size=25),), horizon=160, seed=0)
    assert brute_force_optimal(fits, machines=[machine(RuToneClass.RU26)],
                               txop=64, grid_us=16) == 7.0
    # release so late that no feasible interval remains before the deadline
    late = JobSet(jobs=(Job(id=0, station=0, release=90, deadline_abs=100,
                            profit=7.0, size=25),), horizon=160, seed=0)
    assert brute_force_optimal(late, machines=[machine(RuToneClass.RU26)],
                               txop=64, grid_us=16) == 0.0


def test_state_guard_rejects_large_instances():
    jobs = tuple(Job(id=i, station=i, release=0, deadline_abs=1000, profit=1.0,
                     size=10) for i in range(17))
    js = JobSet(jobs=jobs, horizon=1_000, seed=0)
    with pytest.raises(ValueError):
        brute_force_optimal(js, machines=[machine(RuToneClass.RU26)],
                            txop=64, grid_us=16)


def test_configuration_choice_beats_fixed_machines():
    # two identical tiny jobs, 20 MHz: with configuration freedom both fit
    # one batch; a single fixed machine must leave a gap between batches
    jobs = tuple(Job(id=i, station=i, release=0, deadline_abs=32, profit=5.0,
                     size=20) for i in range(2))
    js = JobSet(jobs=jobs, horizon=32, seed=0)
    both = brute_force_optimal(js, channel_width=20, txop=32, grid_us=16)
    single = brute_force_optimal(js, machines=[machine(RuToneClass.RU26)],
                                 txop=32, grid_us=16)
    assert both == 10.0
    assert single == 5.0


def test_machines_and_width_are_mutually_exclusive():
    js = JobSet(jobs=(), horizon=100, seed=0)
    with pytest.raises(ValueError):
        brute_force_optimal(js, machines=[machine(RuToneClass.RU26)],
                            channel_width=20)
    with pytest.raises(ValueError):
        brute_force_optimal(js)


def test_default_grid_is_symbol_aligned_and_at_least_100us():
    grid = default_grid_us(PHY)
    assert grid >= 100
    assert (grid * 1000) % PHY.symbol_duration_ns == 0
