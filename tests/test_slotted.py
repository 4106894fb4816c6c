import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdmasched.phy import (
    PhyProfile,
    RuConfiguration,
    full_26_tone_configuration,
    machines_for_configuration,
)
from ofdmasched.scheduling import dump_schedule
from ofdmasched.simulator import validate_schedule
from ofdmasched.slotted import (
    SLOT_US,
    SlottedApp,
    slotted_jobset,
    slotted_schedule,
)
from ofdmasched.workload import dump_jobs

from oracles import slotted as oracle
from oracles.exhaustive import brute_force_optimal
from oracles.matching import BipartiteInstance, max_weight_matching

PHY = PhyProfile()
TWO_242 = RuConfiguration((0, 0, 0, 2, 0, 0), 40)
ONE_242 = RuConfiguration((0, 0, 0, 1, 0, 0), 20)

DEVIATION_APPS = [
    SlottedApp("a0", 2, 10, 0, 1.0),
    SlottedApp("a1", 2, 30, 1, 2.0),
    SlottedApp("a2", 2, 100, 1, 3.0),
]


def dropped_profit(schedule, jobset):
    return jobset.total_profit - schedule.total_profit


def test_deviation_example_window_one_loses_one():
    schedule, jobs = slotted_schedule(DEVIATION_APPS, TWO_242, 2, window_n=1)
    assert dropped_profit(schedule, jobs) == 1.0


def test_deviation_example_window_two_and_optimal_lose_nothing():
    schedule, jobs = slotted_schedule(DEVIATION_APPS, TWO_242, 2, window_n=2)
    assert dropped_profit(schedule, jobs) == 0.0
    schedule, jobs = slotted_schedule(DEVIATION_APPS, TWO_242, 2)
    assert dropped_profit(schedule, jobs) == 0.0


def test_window_at_least_hyperperiod_matches_optimal():
    apps = [SlottedApp("x", 2, 50, 1, 4.0, 2), SlottedApp("y", 4, 80, 2, 7.0)]
    opt, jobs = slotted_schedule(apps, TWO_242, 8, window_n=None)
    heur, _ = slotted_schedule(apps, TWO_242, 8, window_n=4)
    assert heur.total_profit == opt.total_profit


def test_saturated_single_ru_identity():
    apps = [SlottedApp("tick", 1, 60, 0, 2.0)]
    schedule, jobs = slotted_schedule(apps, ONE_242, 5, window_n=None)
    assert dropped_profit(schedule, jobs) == 0.0
    assert len(schedule.batches) == 5


def test_agrees_with_exhaustive_oracle_on_aligned_instances():
    # deadline-0 packets on even slots: the slot model and the continuous
    # model have identical capacity, so the two oracles must agree
    cases = [
        [SlottedApp("a", 2, 40, 0, 3.0, 2), SlottedApp("b", 2, 40, 0, 5.0, 1)],
        [SlottedApp("a", 2, 40, 0, 3.0, 4)],  # overloaded: 4 nodes, 2 RUs
        [SlottedApp("a", 2, 40, 0, 1.0, 1), SlottedApp("b", 4, 40, 0, 9.0, 3)],
    ]
    machines = machines_for_configuration(TWO_242, PHY)
    for apps in cases:
        schedule, jobs = slotted_schedule(apps, TWO_242, 4, window_n=None)
        opt = brute_force_optimal(jobs, machines=machines, txop=1_000, grid_us=1_000)
        assert schedule.total_profit == pytest.approx(opt)


def test_slotted_schedules_validate_clean():
    apps = [SlottedApp("x", 2, 50, 1, 4.0, 3), SlottedApp("y", 3, 200, 2, 7.0, 2)]
    schedule, jobs = slotted_schedule(apps, TWO_242, 12, window_n=3)
    assert validate_schedule(schedule, jobs, 40, PHY, 4_000) == []


@pytest.mark.parametrize("window_n", [0, -3])
def test_window_must_be_positive(window_n):
    with pytest.raises(ValueError):
        slotted_schedule(DEVIATION_APPS, TWO_242, 4, window_n=window_n)


def test_empty_app_set_rejected():
    with pytest.raises(ValueError, match="no slotted apps"):
        slotted_schedule([], TWO_242, 4)


@pytest.mark.parametrize("horizon_slots", [0, -2])
def test_horizon_must_be_positive(horizon_slots):
    with pytest.raises(ValueError, match="horizon"):
        slotted_schedule(DEVIATION_APPS, TWO_242, horizon_slots)


def test_lcm_guard():
    apps = [SlottedApp("p", 101, 10, 1, 1.0), SlottedApp("q", 103, 10, 1, 1.0)]
    with pytest.raises(ValueError):
        slotted_schedule(apps, TWO_242, math.lcm(101, 103))


def test_non_equal_configuration_rejected():
    mixed = RuConfiguration((1, 0, 2, 0, 0, 0), 20)
    with pytest.raises(ValueError):
        slotted_schedule(DEVIATION_APPS, mixed, 2)


def test_oversized_packet_rejected():
    apps = [SlottedApp("big", 2, 300_000, 1, 1.0)]
    with pytest.raises(ValueError):
        slotted_schedule(apps, TWO_242, 2)


def test_jobset_shape():
    jobs = slotted_jobset(DEVIATION_APPS, 4)
    assert len(jobs) == 6  # three apps, arrivals at slots 0 and 2
    assert {j.release for j in jobs.jobs} == {0, 2_000}
    assert all(j.deadline_abs <= jobs.horizon for j in jobs.jobs)


def test_apps_sharing_a_name_get_their_own_stations():
    apps = [SlottedApp("a", 2, 50, 1, 1.0, 2), SlottedApp("a", 2, 50, 1, 1.0, 3)]
    jobs = slotted_jobset(apps, 1)
    assert [j.station for j in jobs.jobs] == [0, 1, 2, 3, 4]
    assert dump_jobs(jobs) == dump_jobs(oracle.slotted_jobset(apps, 1))


@pytest.mark.parametrize("node_count", [0, -1])
def test_app_without_nodes_rejected(node_count):
    # a negative count used to shift every later app's stations: app b's
    # packets went to stations -1 and 0
    with pytest.raises(ValueError, match="app 'a'.*node_count"):
        slotted_jobset([SlottedApp("a", 2, 50, 1, 1.0, node_count),
                        SlottedApp("b", 2, 50, 1, 1.0, 2)], 1)


@pytest.mark.parametrize("period_slots, deadline_slots, message", [
    (0, 0, "period must be at least one slot"),
    (2, 2, "need 0 <= deadline < period"),
])
def test_app_period_and_deadline_rules(period_slots, deadline_slots, message):
    with pytest.raises(ValueError, match=message):
        SlottedApp("a", period_slots, 50, deadline_slots, 1.0)


def window_graph_optimum(apps, config, horizon_slots):
    """Hungarian optimum of the full (slot, RU) graph of one window."""
    j_rus = sum(config.counts)
    jobs = slotted_jobset(apps, horizon_slots)
    edges = []
    for job in jobs.jobs:
        last = min((job.deadline_abs - 1) // SLOT_US, horizon_slots - 1)
        for slot in range(job.release // SLOT_US, last + 1):
            edges.extend((job.id, slot * j_rus + ru, job.profit) for ru in range(j_rus))
    inst = BipartiteInstance(tuple(j.id for j in jobs.jobs),
                             tuple(range(horizon_slots * j_rus)), tuple(edges))
    return max_weight_matching(inst).total_weight


def test_optimal_profit_equals_hungarian_oracle():
    rng = random.Random(2024)
    configs = [ONE_242, TWO_242, full_26_tone_configuration(20)]
    for _ in range(150):
        apps = []
        for i in range(rng.randint(1, 4)):
            period = rng.randint(1, 4)
            apps.append(SlottedApp(f"a{i}", period, rng.choice((10, 50, 100)),
                                   rng.randint(0, period - 1), float(rng.randint(1, 6)),
                                   rng.randint(1, 6)))
        config = rng.choice(configs)
        # a horizon of one hyper-period is a single window
        horizon = math.lcm(*(a.period_slots for a in apps))
        schedule, jobs = slotted_schedule(apps, config, horizon, window_n=None)
        assert validate_schedule(schedule, jobs, config.channel_width, PHY, 4_000) == []
        assert schedule.total_profit == pytest.approx(
            window_graph_optimum(apps, config, horizon))


def test_window_beyond_dense_matrix_size():
    # 300 packets over a 1000-slot window on 18 RUs: 5.4 M (packet, slot, RU)
    # cells, but the interval table has one start and one end
    apps = [SlottedApp("bulk", 1000, 100, 999, 1.0, 300)]
    config = full_26_tone_configuration(40)
    schedule, jobs = slotted_schedule(apps, config, 1000)
    assert len(schedule.scheduled_jobs) == len(jobs) == 300
    assert validate_schedule(schedule, jobs, 40, PHY, 4_000) == []


@st.composite
def app_sets(draw):
    """One to four apps with one to five stations each; a twin shares
    period, deadline and profit with an earlier app, so runs of different
    apps tie on every sort key but their first id."""
    apps = []
    for i in range(draw(st.integers(1, 4))):
        if apps and draw(st.booleans()):
            twin = draw(st.sampled_from(apps))
            period, deadline, profit = twin.period_slots, twin.deadline_slots, twin.profit
        else:
            period = draw(st.integers(1, 4))
            deadline = draw(st.integers(0, period - 1))
            profit = float(draw(st.integers(1, 3)))
        apps.append(SlottedApp(f"a{i}", period, draw(st.sampled_from((10, 50, 100))),
                               deadline, profit, draw(st.integers(1, 5))))
    return apps


TWINS = [SlottedApp("a0", 2, 50, 1, 2.0, 3), SlottedApp("a1", 2, 10, 1, 2.0, 4),
         SlottedApp("a2", 4, 100, 3, 2.0, 5)]


@settings(max_examples=60, deadline=None)
@given(app_sets(), st.sampled_from([ONE_242, TWO_242, full_26_tone_configuration(20)]),
       st.integers(1, 2))
@example(TWINS, ONE_242, 2)
def test_runs_match_the_per_packet_matcher(apps, config, hyperperiods):
    horizon = hyperperiods * math.lcm(*(a.period_slots for a in apps))
    jobs = slotted_jobset(apps, horizon)
    assert dump_jobs(jobs) == dump_jobs(oracle.slotted_jobset(apps, horizon))
    for window_n in [None, *range(1, horizon + 1)]:
        schedule, got_jobs = slotted_schedule(apps, config, horizon, window_n, PHY)
        expected, _ = oracle.slotted_schedule(apps, config, horizon, window_n, PHY)
        assert dump_schedule(schedule) == dump_schedule(expected)
        assert schedule == expected and got_jobs == jobs
        if window_n is None:
            # no packet's range crosses a hyper-period boundary, so the
            # per-hyper-period optimum is the optimum of the whole graph
            assert schedule.total_profit == pytest.approx(
                window_graph_optimum(apps, config, horizon))
