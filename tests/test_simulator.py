import inspect
from dataclasses import replace

import pytest

from ofdmasched import benchmarks, experiment, local_search, scheduling, simulator
from ofdmasched.experiment import ExperimentConfig
from ofdmasched.local_search import lsds_run
from ofdmasched.phy import (
    Machine,
    PhyProfile,
    RuConfiguration,
    RuToneClass,
    enumerate_configurations,
    full_26_tone_configuration,
    machines_for_configuration,
    root_tones,
    tx_duration,
    tx_duration_us,
)
from ofdmasched.scheduling import Batch, Interval, make_schedule
from ofdmasched.simulator import (
    CHANNEL_QUALITIES,
    DEFAULT_MCS_MAP,
    BestEffortPacket,
    ChannelScenario,
    best_effort_overlay,
    escalate_profit,
    generate_best_effort,
    run_scenario,
    validate_schedule,
)
from ofdmasched.workload import Job, JobSet, load_use_case

from oracles.matching import lsds_config_search as oracle_config_search

PHY = PhyProfile()


def small_jobset():
    jobs = (
        Job(id=0, station=0, release=0, deadline_abs=5_000, profit=10.0, size=100),
        Job(id=1, station=1, release=0, deadline_abs=5_000, profit=20.0, size=100),
        Job(id=2, station=2, release=500, deadline_abs=2_000, profit=5.0, size=50),
    )
    return JobSet(jobs=jobs, horizon=10_000, seed=0)


def test_scheduler_output_validates_clean():
    js = load_use_case("UC4", 100_000, seed=3)
    schedule = lsds_run(js, 40, PHY)[0]
    assert validate_schedule(schedule, js, 40, PHY, 4_000) == []


def test_machine_reuse_detected():
    js = small_jobset()
    config = full_26_tone_configuration(20)
    machines = tuple(machines_for_configuration(config, PHY))
    batch = Batch(interval=Interval(0, 1_000),
                  assignments=((0, 0), (1, 0)),  # same machine twice
                  machines=machines, config=config)
    violations = validate_schedule([batch], js, 20, PHY, 4_000)
    assert sum("machine reuse" in v for v in violations) == 1


def test_admissibility_violation_names_the_job():
    js = small_jobset()
    config = full_26_tone_configuration(20)
    machines = tuple(machines_for_configuration(config, PHY))
    # job 2 releases at 500; a batch starting at 0 cannot carry it
    batch = Batch(interval=Interval(0, 1_000),
                  assignments=((2, 0),), machines=machines, config=config)
    violations = validate_schedule([batch], js, 20, PHY, 4_000)
    assert len(violations) == 1
    assert "admissibility" in violations[0] and "job 2" in violations[0]


def test_txop_conflict_and_job_reuse_detected():
    js = small_jobset()
    config = full_26_tone_configuration(20)
    machines = tuple(machines_for_configuration(config, PHY))
    long_batch = Batch(interval=Interval(0, 5_000), assignments=((0, 0),),
                       machines=machines, config=config)
    assert any("txop" in v for v in validate_schedule([long_batch], js, 20, PHY, 4_000))
    a = Batch(interval=Interval(0, 1_000), assignments=((0, 0),),
              machines=machines, config=config)
    b = Batch(interval=Interval(1_000, 2_000), assignments=((0, 1),),
              machines=machines, config=config)
    violations = validate_schedule([a, b], js, 20, PHY, 4_000)
    assert any("conflict" in v for v in violations)
    assert any("job reuse" in v for v in violations)


@pytest.fixture(scope="module")
def uc4_batches():
    js = load_use_case("UC4", 20_000, seed=1)
    schedule = lsds_run(js, 40, PHY)[0]
    assert validate_schedule(schedule, js, 40, PHY, 4_000) == []
    return js, list(schedule.batches)


def _narrower_ru(js, batches):
    """Put one job on a 26-tone RU that finishes it too late."""
    by_id = {j.id: j for j in js.jobs}
    slow = Machine(0, RuToneClass.RU26, PHY)
    for i, b in enumerate(batches):
        for job_id, m in b.assignments:
            job = by_id[job_id]
            if b.interval.start + tx_duration(job.size, slow) > min(b.interval.end,
                                                                     job.deadline_abs):
                machines = list(b.machines)
                machines[m] = replace(machines[m], tone_class=RuToneClass.RU26)
                return i, replace(b, machines=tuple(machines)), \
                    f"admissibility: batch {i} job {job_id} finish"
    raise AssertionError("no job misses its window on a 26-tone RU")


def _over_budget(js, batches):
    """Every RU of a configuration-less batch widened to 996 tones."""
    b = batches[0]
    machines = tuple(replace(m, tone_class=RuToneClass.RU996) for m in b.machines)
    return 0, replace(b, machines=machines, config=None), "bandwidth: batch 0 uses"


def _machines_disagree(js, batches):
    b = batches[0]
    classes = sorted(m.tone_class for m in b.machines)
    other = next(c for c in enumerate_configurations(40)
                 if sorted(c.ru_classes_desc()) != classes)
    return 0, replace(b, config=other), "configuration: batch 0 machines disagree"


def _other_width(js, batches):
    return 0, replace(batches[0], config=enumerate_configurations(20)[0]), \
        "configuration: batch 0 uses illegal config"


def _illegal_config(js, batches):
    """A configuration that builds but is not in the 40 MHz table."""
    return 0, replace(batches[0], config=RuConfiguration((1, 0, 0, 0, 0, 0), 40)), \
        "configuration: batch 0 uses illegal config {1x26}"


def _machine_out_of_range(js, batches):
    b = batches[0]
    (job_id, _), *rest = b.assignments
    m = len(b.machines)
    return 0, replace(b, assignments=((job_id, m), *rest)), \
        f"machine index: batch 0 machine {m} out of range"


def _other_phy(js, batches):
    """One assigned RU on MCS 0 in a schedule validated at MCS 11."""
    b = batches[0]
    m = b.assignments[0][1]
    machines = list(b.machines)
    machines[m] = replace(machines[m], phy=PhyProfile(mcs=0))
    return 0, replace(b, machines=tuple(machines)), f"phy: batch 0 machine {m} runs"


def _unknown_job(js, batches):
    b = batches[0]
    unknown = max(j.id for j in js.jobs) + 1
    m = b.assignments[0][1]  # a machine in range, so the id check is reached
    return 0, replace(b, assignments=(*b.assignments, (unknown, m))), \
        f"unknown job: batch 0 job {unknown}"


VALIDATOR_MUTANTS = [_narrower_ru, _over_budget, _machines_disagree, _other_width,
                     _illegal_config, _machine_out_of_range, _unknown_job, _other_phy]


@pytest.mark.parametrize("mutate", VALIDATOR_MUTANTS)
def test_validator_names_each_mutation(uc4_batches, mutate):
    js, batches = uc4_batches
    i, mutated, expected = mutate(js, batches)
    violations = validate_schedule(batches[:i] + [mutated] + batches[i + 1:],
                                   js, 40, PHY, 4_000)
    assert any(v.startswith(expected) for v in violations), violations


def test_validator_checks_every_ru_against_the_channel_phy():
    # the ideal-channel schedule does not fit a very poor channel, whose
    # durations at MCS 0 are many times longer
    js = load_use_case("UC4", 50_000, seed=1)
    schedule = lsds_run(js, 40, PHY)[0]
    violations = validate_schedule(schedule, js, 40, ChannelScenario("very_poor").phy(), 4_000)
    phy_violations = [v for v in violations if v.startswith("phy: ")]
    assert len(phy_violations) == sum(len(b.assignments) for b in schedule.batches)


def test_channel_scenario_map_validation():
    assert ChannelScenario("ideal").phy().mcs == 11
    assert ChannelScenario("very_poor").phy().mcs == 0
    with pytest.raises(ValueError):
        ChannelScenario("foggy")
    ladder = [DEFAULT_MCS_MAP[q] for q in CHANNEL_QUALITIES]
    assert ladder[0] == DEFAULT_MCS_MAP["ideal"] == 11
    assert all(a >= b for a, b in zip(ladder, ladder[1:]))


def test_run_scenario_uc4_ideal_zero_drops():
    js = load_use_case("UC4", 200_000, seed=1)
    report, schedule = run_scenario(js, "lsds", ChannelScenario("ideal"), 40)
    assert len(report.dropped) == 0
    assert report.delivered == frozenset(j.id for j in js.jobs)
    assert len(report.delivered) + len(report.dropped) == len(js)
    assert report.runtime_ms > 0


def test_run_scenario_conservation_and_registry():
    js = load_use_case("UC4", 50_000, seed=5)
    for name in ("edf", "lrf", "nlrf", "lsdsf"):
        report, _ = run_scenario(js, name, ChannelScenario("ideal"), 40)
        assert len(report.delivered) + len(report.dropped) == len(js)
    with pytest.raises(ValueError):
        run_scenario(js, "nope", ChannelScenario("ideal"), 40)


# Two applications and an app-less job, met in the order b, "", a; critical
# flags are mixed within "a" and "b". The jobs with a 10 us deadline cannot
# finish: the shortest transmission is one 16 us symbol.
TALLY_JOBS = JobSet((
    Job(0, 0, 0, 5_000, 10.0, 100, critical=True, app="b"),
    Job(1, 1, 0, 10, 30.0, 100, app="b"),
    Job(2, 2, 0, 5_000, 5.0, 100),
    Job(3, 3, 0, 5_000, 30.0, 100, critical=True, app="a"),
    Job(4, 4, 0, 10, 30.0, 100, critical=True, app="a"),
    Job(5, 5, 0, 5_000, 1.0, 100, app="a"),
    Job(6, 6, 0, 10, 2.0, 100),
), horizon=5_000, seed=3)


@pytest.mark.parametrize("scheduler", sorted(simulator.SCHEDULERS))
def test_run_tallies_per_application_and_metrics(scheduler):
    report, _ = run_scenario(TALLY_JOBS, scheduler, ChannelScenario("ideal"), 20)
    assert report.delivered == {0, 2, 3, 5} and report.dropped == {1, 4, 6}
    # keys in order of first appearance, each row's fields in a fixed order
    assert [(app, list(row.items())) for app, row in report.per_app.items()] == [
        ("b", [("generated", 2), ("delivered", 1), ("dropped", 1), ("critical", True)]),
        ("default", [("generated", 2), ("delivered", 1), ("dropped", 1), ("critical", False)]),
        ("a", [("generated", 3), ("delivered", 2), ("dropped", 1), ("critical", True)]),
    ]
    row = experiment._metrics_from(ExperimentConfig("UC4", scheduler, bandwidth_mhz=20),
                                   TALLY_JOBS, report)
    assert row.seed == 3
    assert row.profit_ratio == 46.0 / 108.0
    assert row.drop_pct == 100.0 * 3 / 7
    assert row.critical_drop_pct == 100.0 * 1 / 3


def test_run_scenario_passes_the_schedulers_value_error_through():
    # the scheduler's own message reaches the caller, not a RuntimeError
    # that wraps it
    js = load_use_case("UC4", 20_000, seed=1)
    with pytest.raises(ValueError, match="shorter than one OFDM symbol"):
        run_scenario(js, "lsds", ChannelScenario("ideal"), 40, txop=10, grid_us=1)


def test_duration_weakly_increases_as_mcs_drops():
    for cls in RuToneClass:
        durations = [tx_duration_us(300, cls, PhyProfile(mcs=m)) for m in range(12)]
        assert all(a >= b for a, b in zip(durations, durations[1:]))


def test_escalation_sequence_and_fixed_point():
    p = 2.0
    seq = []
    for _ in range(3):
        p = escalate_profit(p, 160.0)
        seq.append(p)
    assert seq == [81.0, 120.5, 140.25]
    for _ in range(200):
        p = escalate_profit(p, 160.0)
        assert p <= 160.0
    assert p == pytest.approx(160.0)


def test_overlay_zero_load_convention():
    js = load_use_case("UC4", 50_000, seed=2)
    schedule = lsds_run(js, 40, PHY)[0]
    out, satisfaction, utilization = best_effort_overlay(schedule, js, [], 40, PHY)
    assert satisfaction == 1.0
    assert utilization == 0.0
    assert out.batches == schedule.batches


@pytest.mark.parametrize("size, load, message", [
    (0, 20.0, "packet size must be at least 1 byte, got 0"),
    (-1, 20.0, "packet size must be at least 1 byte, got -1"),
    (1500, float("inf"), "load must be finite, got inf Mbps"),
])
def test_best_effort_rejects_inputs_whose_arrivals_never_end(size, load, message):
    # a size of -1 gives negative gaps and an infinite load zero gaps, so
    # the arrivals would never reach the horizon
    with pytest.raises(ValueError, match=message):
        generate_best_effort(load, 10_000, seed=1, size=size)


def test_best_effort_arrivals_are_pinned():
    # the three nodes' Poisson streams, merged and numbered in arrival order
    packets = generate_best_effort(20.0, 10_000, seed=1)
    assert len(packets) == 13
    assert [p.arrival_us for p in packets[:8]] == [1233, 2208, 2728, 3977, 4698, 5138,
                                                   5774, 5944]
    assert packets[0] == BestEffortPacket(id=0, arrival_us=1233, size=1500, profit=2.0)


@pytest.mark.parametrize("load", [0.0, -5.0])
def test_best_effort_without_load_has_no_packets(load):
    assert generate_best_effort(load, 10_000, seed=1) == []


def test_overlay_preserves_factory_assignments():
    js = load_use_case("UC4", 100_000, seed=1)
    schedule = lsds_run(js, 40, PHY)[0]
    packets = generate_best_effort(20.0, js.horizon, seed=4)
    out, satisfaction, utilization = best_effort_overlay(schedule, js, packets, 40, PHY)

    factory_ids = {j.id for j in js.jobs}

    def factory_triples(sched):
        return {(b.interval.start, job, m)
                for b in sched.batches for job, m in b.assignments
                if job in factory_ids}

    assert factory_triples(out) == factory_triples(schedule)
    assert 0 <= satisfaction <= 1
    assert 0 <= utilization <= 1
    # best-effort ids live above the factory id range and never collide
    be_ids = {job for b in out.batches for job, _ in b.assignments} - factory_ids
    assert all(i > max(factory_ids) for i in be_ids)


def test_overlay_respects_arrivals_and_batch_feasibility():
    js = load_use_case("UC4", 50_000, seed=7)
    schedule = lsds_run(js, 40, PHY)[0]
    packets = generate_best_effort(10.0, js.horizon, seed=9)
    out, _, _ = best_effort_overlay(schedule, js, packets, 40, PHY)
    by_be_id = {p.id + max(j.id for j in js.jobs) + 1: p for p in packets}
    for b in out.batches:
        for job, m in b.assignments:
            if job in by_be_id:
                p = by_be_id[job]
                assert p.arrival_us <= b.interval.start
                dur = tx_duration_us(p.size, b.machines[m].tone_class, PHY)
                assert b.interval.start + dur <= b.interval.end


def _hungarian_config_search(candidates, interval, channel_width, phy):
    config, matching, matched = oracle_config_search(candidates, interval, channel_width, phy)
    return config, matching.pairs, matched


@pytest.mark.parametrize("use_case,horizon,load,size", [
    ("UC4", 100_000, 20.0, 1500),
    ("UC2", 20_000, 60.0, 300),
])
def test_overlay_kernel_matches_hungarian_oracle(monkeypatch, use_case, horizon, load, size):
    js = load_use_case(use_case, horizon, seed=1)
    schedule = lsds_run(js, 40, PHY)[0]
    packets = generate_best_effort(load, js.horizon, seed=3, size=size)
    got, got_sat, _ = best_effort_overlay(schedule, js, packets, 40, PHY)
    monkeypatch.setattr(simulator, "lsds_config_search", _hungarian_config_search)
    want, want_sat, _ = best_effort_overlay(schedule, js, packets, 40, PHY)

    def batches(s):
        return [(b.interval, b.config, frozenset(b.job_ids)) for b in s.batches]

    assert len(got.batches) > len(schedule.batches)  # some gaps were filled
    assert batches(got) == batches(want)
    assert got_sat == want_sat


def test_overlay_admits_best_effort_on_free_rus():
    # 300 B packets fit the free RUs left in UC2's factory batches
    js = load_use_case("UC2", 50_000, seed=1)
    schedule = lsds_run(js, 40, PHY)[0]
    packets = generate_best_effort(100.0, js.horizon, seed=1, size=300)
    out, _, _ = best_effort_overlay(schedule, js, packets, 40, PHY)

    factory_ids = {j.id for j in js.jobs}
    be_base = max(factory_ids) + 1
    by_slot = {(b.interval, b.config): b for b in out.batches}
    admitted = 0
    for base in schedule.batches:
        b = by_slot[(base.interval, base.config)]
        assert set(base.assignments) <= set(b.assignments)
        for job, m in set(b.assignments) - set(base.assignments):
            assert job >= be_base
            p = packets[job - be_base]
            assert p.arrival_us <= b.interval.start
            assert b.interval.start + tx_duration_us(p.size, b.machines[m].tone_class, PHY) \
                <= b.interval.end
            admitted += 1
    assert admitted > 0
    be_jobs = tuple(Job(id=be_base + p.id, station=-1, release=p.arrival_us,
                        deadline_abs=js.horizon, profit=p.profit, size=p.size)
                    for p in packets)
    union = JobSet(jobs=js.jobs + be_jobs, horizon=js.horizon, seed=js.seed)
    assert validate_schedule(out, union, 40, PHY, 4_000) == []


def test_overlay_free_ru_admission_on_the_kernel():
    # 20 MHz {2x106, 1x26}: a factory job holds RU 0, leaving a 106-tone
    # and a 26-tone RU; both packets fit either free RU
    config = RuConfiguration((1, 0, 2, 0, 0, 0), 20)
    machines = tuple(machines_for_configuration(config, PHY))
    js = JobSet(jobs=(Job(id=0, station=0, release=1_000, deadline_abs=1_400,
                          profit=10.0, size=100),), horizon=10_000, seed=0)
    base = make_schedule([Batch(interval=Interval(1_000, 1_400), assignments=((0, 0),),
                                machines=machines, config=config)], {0: 10.0})
    packets = [BestEffortPacket(0, 999, 30, 5.0), BestEffortPacket(1, 999, 600, 2.0)]
    out, satisfaction, utilization = best_effort_overlay(base, js, packets, 20, PHY)

    (batch,) = out.batches
    assert satisfaction == 1.0
    # the kernel's placement: most constrained first, then by id, widest RU first
    assert batch.assignments == ((0, 0), (1, 1), (2, 2))
    airtime = 0
    for job_id, m in batch.assignments[1:]:
        p = packets[job_id - 1]
        d = tx_duration(p.size, machines[m])
        assert p.arrival_us <= batch.interval.start
        assert batch.interval.start + d <= batch.interval.end
        airtime += machines[m].bandwidth * d
    assert utilization == airtime / (root_tones(20) * js.horizon)


@pytest.mark.parametrize("factory_batches", [0, 1])
def test_overlay_fills_idle_time_from_zero(factory_batches):
    # a packet that arrives at 0 goes out at 0 on the root RU, whether the
    # first factory batch starts later or there is none
    config = full_26_tone_configuration(20)
    machines = tuple(machines_for_configuration(config, PHY))
    js = JobSet(jobs=(Job(0, 0, 500, 1_000, 10.0, 100),), horizon=1_000, seed=0)
    batches = [Batch(Interval(500, 600), ((0, 0),), machines, config)][:factory_batches]
    packets = [BestEffortPacket(0, 0, 100, 2.0)]
    out, satisfaction, _ = best_effort_overlay(make_schedule(batches, {0: 10.0}), js, packets,
                                               20, PHY)
    assert satisfaction == 1.0
    (gap,) = [b for b in out.batches if 1 in b.job_ids]
    assert gap.interval == Interval(0, 16)


def _full_26_tone_factory(second_batch_jobs):
    """A 20 MHz all-26-tone factory schedule of 100 B jobs of profit 10:
    batch [0, 100] fills all nine RUs, and batch [101, 200] carries
    ``second_batch_jobs`` more on its first RUs."""
    config = full_26_tone_configuration(20)
    machines = tuple(machines_for_configuration(config, PHY))
    js = JobSet(jobs=tuple(Job(i, i, 0, 1_000, 10.0, 100) for i in range(9 + second_batch_jobs)),
                horizon=1_000, seed=0)
    batches = [Batch(Interval(0, 100), tuple((i, i) for i in range(9)), machines, config),
               Batch(Interval(101, 200), tuple((9 + k, k) for k in range(second_batch_jobs)),
                     machines, config)]
    return js, make_schedule(batches, {j.id: j.profit for j in js.jobs})


def test_overlay_escalates_each_arrived_packet_once_per_factory_batch():
    # batch [0, 100] has no free RU, so packet 0, arrived at 0, misses it
    # and escalates to (2 + 10) / 2 = 6; packet 1 arrives at 50, after that
    # batch started, and keeps 2. Both ride batch [101, 200].
    js, base = _full_26_tone_factory(1)
    packets = [BestEffortPacket(0, 0, 100, 2.0), BestEffortPacket(1, 50, 100, 2.0)]
    out, satisfaction, _ = best_effort_overlay(base, js, packets, 20, PHY)
    assert satisfaction == 1.0
    assert {10, 11} <= set(out.batches[1].job_ids)
    assert out.total_profit == 10 * 10.0 + 6.0 + 2.0
    be_jobs = tuple(Job(10 + p.id, -1, p.arrival_us, js.horizon, p.profit, p.size)
                    for p in packets)
    union = JobSet(jobs=js.jobs + be_jobs, horizon=js.horizon, seed=js.seed)
    assert validate_schedule(out, union, 20, PHY, 4_000) == []


def test_overlay_gives_the_last_free_ru_to_the_escalated_packet():
    # batch [101, 200] leaves one free RU; packet 0, escalated from 2 to 6
    # for missing batch [0, 100], outbids packet 1's 5
    js, base = _full_26_tone_factory(8)
    packets = [BestEffortPacket(0, 0, 100, 2.0), BestEffortPacket(1, 50, 100, 5.0)]
    out, satisfaction, _ = best_effort_overlay(base, js, packets, 20, PHY)
    assert out.batches[1].interval == Interval(101, 200)
    assert (17, 8) in out.batches[1].assignments
    assert 18 not in out.batches[1].job_ids
    assert satisfaction == 1.0  # packet 1 goes in a batch after the factory's


@pytest.mark.parametrize("arrival", [10_000, 12_345])
def test_overlay_rejects_packet_arriving_at_or_after_horizon(arrival):
    js = JobSet(jobs=(Job(id=0, station=0, release=1_000, deadline_abs=1_400,
                          profit=10.0, size=100),), horizon=10_000, seed=0)
    base = lsds_run(js, 20, PHY)[0]
    packets = [BestEffortPacket(0, 500, 300, 2.0), BestEffortPacket(7, arrival, 300, 2.0)]
    with pytest.raises(ValueError, match=f"packet 7 arrives at {arrival} us"):
        best_effort_overlay(base, js, packets, 20, PHY)


def test_txop_defaults_are_the_one_constant():
    # the library entry points take their default TXOP from scheduling, as
    # ExperimentConfig does, so one constant sets it everywhere
    assert local_search.DEFAULT_TXOP_US is scheduling.DEFAULT_TXOP_US
    for fn in (benchmarks.greedy_benchmark, simulator.run_scenario,
               simulator.best_effort_overlay, local_search.lsds_run, local_search.lsdsf_run):
        assert inspect.signature(fn).parameters["txop"].default is scheduling.DEFAULT_TXOP_US
