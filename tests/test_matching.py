import itertools
import random

import pytest

from ofdmasched.phy import (
    Machine,
    PhyProfile,
    RuToneClass,
    enumerate_configurations,
    machines_for_configuration,
    tx_duration,
)
from ofdmasched.scheduling import Interval
from ofdmasched.workload import Job

from oracles.matching import (
    BipartiteInstance,
    Matching,
    budgeted_max_weight_matching,
    lsds_config_search,
    max_profit,
    max_weight_matching,
    relaxed_machine_set,
)


def brute_force_matching_weight(left, right, edges):
    """Exhaustive maximum-weight matching, independent of the solver."""
    adj = {j: [] for j in left}
    for j, m, w in edges:
        adj[j].append((m, w))
    order = list(left)

    def rec(i, used):
        if i == len(order):
            return 0.0
        best = rec(i + 1, used)
        for m, w in adj[order[i]]:
            if m not in used:
                best = max(best, w + rec(i + 1, used | {m}))
        return best

    return rec(0, frozenset())


def brute_force_budgeted_weight(left, right, edges, bandwidths, budget):
    best = 0.0
    for k in range(len(right) + 1):
        for subset in itertools.combinations(right, k):
            if sum(bandwidths[m] for m in subset) > budget:
                continue
            kept = [e for e in edges if e[1] in subset]
            best = max(best, brute_force_matching_weight(left, subset, kept))
    return best


def random_instance(rng, max_left=8, max_right=8, budgeted=False):
    nl = rng.randint(1, max_left)
    nr = rng.randint(1, max_right)
    left = tuple(range(nl))
    right = tuple(range(100, 100 + nr))
    edges = tuple(
        (j, m, float(rng.randint(0, 20)))
        for j in left for m in right if rng.random() < 0.5
    )
    bandwidths = {m: rng.randint(1, 5) for m in right} if budgeted else None
    return BipartiteInstance(left, right, edges, bandwidths)


def test_empty_graph_gives_empty_matching():
    inst = BipartiteInstance((), (), ())
    assert max_weight_matching(inst) == Matching((), 0.0)


def test_three_jobs_two_machines_deviation_slot():
    # profits {1, 2, 3}, both machines reachable by every job: the
    # profit-1 job stays unmatched and total weight is 5
    inst = BipartiteInstance(
        left=(0, 1, 2), right=(10, 11),
        edges=tuple((j, m, float(j + 1)) for j in (0, 1, 2) for m in (10, 11)),
    )
    got = max_weight_matching(inst)
    assert got.total_weight == 5
    assert 0 not in {j for j, _ in got.pairs}


def test_matching_weight_matches_brute_force_on_random_instances():
    rng = random.Random(1234)
    for _ in range(300):
        inst = random_instance(rng)
        got = max_weight_matching(inst)
        want = brute_force_matching_weight(inst.left, inst.right, inst.edges)
        assert got.total_weight == pytest.approx(want)
        # validity and weight additivity
        weights = {(j, m): w for j, m, w in inst.edges}
        assert all(p in weights for p in got.pairs)
        assert got.total_weight == pytest.approx(sum(weights[p] for p in got.pairs))


def test_matching_is_deterministic():
    rng = random.Random(7)
    inst = random_instance(rng)
    assert max_weight_matching(inst) == max_weight_matching(inst)


def test_budgeted_with_slack_budget_equals_unbudgeted():
    rng = random.Random(5)
    for _ in range(50):
        inst = random_instance(rng, max_left=6, max_right=6, budgeted=True)
        slack = sum(inst.bandwidths.values())
        got = budgeted_max_weight_matching(inst, slack)
        want = max_weight_matching(
            BipartiteInstance(inst.left, inst.right, inst.edges))
        assert got.total_weight == pytest.approx(want.total_weight)


def test_budgeted_symmetric_two_machines():
    inst = BipartiteInstance(
        left=(0,), right=(10, 11),
        edges=((0, 10, 5.0), (0, 11, 5.0)),
        bandwidths={10: 2, 11: 3},
    )
    got = budgeted_max_weight_matching(inst, 3)
    assert got.total_weight == 5.0
    assert len(got.pairs) == 1


def test_budgeted_infeasible_budget_gives_empty_matching():
    inst = BipartiteInstance(
        left=(0,), right=(10,), edges=((0, 10, 9.0),), bandwidths={10: 4})
    got = budgeted_max_weight_matching(inst, 3)
    assert got == Matching((), 0.0)


def test_budgeted_matches_exhaustive_search():
    rng = random.Random(99)
    for _ in range(60):
        inst = random_instance(rng, max_left=6, max_right=6, budgeted=True)
        budget = rng.randint(1, 12)
        got = budgeted_max_weight_matching(inst, budget)
        want = brute_force_budgeted_weight(
            inst.left, inst.right, inst.edges, inst.bandwidths, budget)
        assert got.total_weight == pytest.approx(want)
        used = sum(inst.bandwidths[m] for _, m in got.pairs)
        assert used <= budget


def test_budgeted_machine_limit_guard():
    right = tuple(range(100, 125))
    inst = BipartiteInstance((0,), right, ((0, 100, 1.0),),
                             {m: 1 for m in right})
    with pytest.raises(ValueError):
        budgeted_max_weight_matching(inst, 5)


def make_job(job_id, release, deadline, profit, size, station=0):
    return Job(id=job_id, station=station, release=release,
               deadline_abs=deadline, profit=profit, size=size)


def machine_of(tone_class, machine_id=0, phy=PhyProfile()):
    return Machine(machine_id, tone_class, phy)


def test_max_profit_interval_too_short_is_empty():
    phy = PhyProfile()
    machines = [machine_of(RuToneClass.RU26)]
    # 100 B needs 64 us on a 26-tone RU; a 32 us interval admits nothing
    jobs = [make_job(0, 0, 10_000, 5.0, 100)]
    matching, matched = max_profit(jobs, Interval(0, 32), machines)
    assert matching.total_weight == 0 and matched == []


def test_max_profit_boundary_admissibility_uses_lte():
    phy = PhyProfile()
    machines = [machine_of(RuToneClass.RU26)]
    p = tx_duration(100, machines[0])
    job = make_job(0, 100, 100 + p, 7.0, 100)
    matching, matched = max_profit([job], Interval(100, 100 + p), machines)
    assert matching.total_weight == 7.0
    assert [j.id for j in matched] == [0]
    # one microsecond short and the job is out
    matching, _ = max_profit([job], Interval(100, 100 + p - 1), machines)
    assert matching.total_weight == 0


def brute_force_admissible_profit(jobs, interval, machines):
    """Try every injective job->machine map over admissible pairs."""
    def ok(job, machine):
        if job.release > interval.start:
            return False
        p = tx_duration(job.size, machine)
        return interval.start + p <= min(interval.end, job.deadline_abs)

    best = 0.0
    job_lists = [[None] + [m for m in machines if ok(j, m)] for j in jobs]
    for combo in itertools.product(*job_lists):
        used = [m.id for m in combo if m is not None]
        if len(used) != len(set(used)):
            continue
        best = max(best, sum(j.profit for j, m in zip(jobs, combo) if m is not None))
    return best


def test_max_profit_handcrafted_vs_brute_force():
    phy = PhyProfile()
    machines = [machine_of(RuToneClass.RU106, 0), machine_of(RuToneClass.RU52, 1),
                machine_of(RuToneClass.RU26, 2)]
    jobs = [
        make_job(0, 0, 400, 10.0, 500),
        make_job(1, 0, 150, 12.0, 300),
        make_job(2, 50, 700, 3.0, 1200),
        make_job(3, 120, 260, 8.0, 64),
        make_job(4, 0, 5000, 1.0, 2000),
    ]
    interval = Interval(120, 520)
    matching, matched = max_profit(jobs, interval, machines)
    want = brute_force_admissible_profit(jobs, interval, machines)
    assert matching.total_weight == pytest.approx(want)
    assert sum(j.profit for j in matched) == pytest.approx(want)


def test_max_profit_random_vs_brute_force():
    rng = random.Random(42)
    phy = PhyProfile(mcs=0)
    classes = list(RuToneClass)[:4]
    for _ in range(120):
        machines = [machine_of(rng.choice(classes), i, phy) for i in range(rng.randint(1, 4))]
        jobs = []
        for j in range(rng.randint(1, 6)):
            release = rng.randint(0, 300)
            deadline = release + rng.randint(50, 2000)
            jobs.append(make_job(j, release, deadline, float(rng.randint(1, 9)),
                                 rng.randint(10, 400)))
        t1 = rng.randint(0, 350)
        interval = Interval(t1, t1 + rng.randint(30, 1500))
        matching, _ = max_profit(jobs, interval, machines)
        want = brute_force_admissible_profit(jobs, interval, machines)
        assert matching.total_weight == pytest.approx(want)


def test_config_search_prefers_parallel_slots_for_small_payloads():
    phy = PhyProfile()
    # nine identical small packets at 20 MHz: the full 26-tone split wins
    jobs = [make_job(i, 0, 10_000, 5.0, 50, station=i) for i in range(9)]
    config, matching, matched = lsds_config_search(jobs, Interval(0, 1_000), 20, phy)
    assert config.counts == (9, 0, 0, 0, 0, 0)
    assert matching.total_weight == 45.0
    assert len(matched) == 9


def test_config_search_dominates_every_fixed_configuration():
    rng = random.Random(17)
    phy = PhyProfile()
    for _ in range(25):
        jobs = []
        for j in range(rng.randint(1, 12)):
            release = rng.randint(0, 200)
            jobs.append(make_job(j, release, release + rng.randint(100, 3000),
                                 float(rng.randint(1, 20)), rng.randint(20, 2500),
                                 station=j))
        t1 = rng.randint(0, 250)
        interval = Interval(t1, t1 + rng.randint(64, 2000))
        config, matching, _ = lsds_config_search(jobs, interval, 20, phy)
        for fixed in enumerate_configurations(20):
            machines = machines_for_configuration(fixed, phy)
            direct, _ = max_profit(jobs, interval, machines)
            assert matching.total_weight >= direct.total_weight - 1e-9


def test_relaxed_machine_set_counts():
    machines = relaxed_machine_set(40, PhyProfile())
    assert len(machines) == 18 + 8 + 4 + 2 + 1
    assert machines[0].tone_class == RuToneClass.RU484
