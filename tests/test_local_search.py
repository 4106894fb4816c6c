import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ofdmasched import local_search
from ofdmasched.local_search import (
    DEFAULT_TXOP_US,
    _config_search,
    _eval_configs,
    _greedy,
    _suffix,
    lsds_config_search,
    lsds_run,
    lsdsf_run,
)
from ofdmasched.phy import (
    TONE_CLASSES,
    Machine,
    PhyProfile,
    RuToneClass,
    config_table,
    enumerate_configurations,
    machines_for_configuration,
    tx_duration,
)
from ofdmasched.scheduling import Interval
from ofdmasched.workload import Job, JobSet, load_use_case

from oracles.exhaustive import brute_force_optimal
from oracles.matching import lsds_config_search as oracle_config_search
from reference_impl import reference_lsds, reference_lsdsf

PHY0 = PhyProfile()  # MCS 11: a 26-tone symbol carries 25 B, so sizes map cleanly to 16 us steps


def machine(tone_class, machine_id, phy=PHY0):
    return Machine(machine_id, tone_class, phy)


def micro_instance(rng, max_jobs=6, horizon=192):
    """Random tiny instance on a 16 us grid with power-of-two profits.

    Distinct power-of-two profits make every subset sum unique, so exact
    solvers agree on the chosen job set, not only on its weight; that
    lets the fast engine be compared against the reference trajectory.
    """
    n = rng.randint(1, max_jobs)
    profits = rng.sample([2 ** k for k in range(1, 13)], n)
    jobs = []
    for i in range(n):
        release = 16 * rng.randint(0, 8)
        deadline = min(release + 16 * rng.randint(1, 9), horizon + 16 * 4)
        jobs.append(Job(id=i, station=i, release=release, deadline_abs=deadline,
                        profit=float(profits[i]), size=rng.randint(1, 140)))
    return JobSet(jobs=tuple(jobs), horizon=horizon, seed=0)


def small_machine_set(rng):
    classes = [RuToneClass.RU26, RuToneClass.RU52, RuToneClass.RU106]
    k = rng.randint(1, 3)
    return [machine(rng.choice(classes), i) for i in range(k)]


def test_single_job_single_batch():
    jobs = JobSet(jobs=(Job(id=0, station=0, release=0, deadline_abs=200,
                            profit=9.0, size=18),), horizon=192, seed=0)
    machines = [machine(RuToneClass.RU26, 0)]
    schedule, stats = lsdsf_run(jobs, machines, txop=64, grid_us=16)
    assert schedule.total_profit == 9.0
    assert len(schedule.batches) == 1
    assert stats.evictions == 0


def test_swap_requires_strictly_more_than_double():
    # job 0 fits a one-symbol interval and commits first; job 1 needs the
    # whole [0, 32] window on the only machine, so committing it means
    # evicting job 0, which happens only when its profit strictly exceeds 2x
    def run(second_profit):
        jobs = JobSet(jobs=(
            Job(id=0, station=0, release=0, deadline_abs=16, profit=10.0, size=20),
            Job(id=1, station=1, release=0, deadline_abs=32, profit=second_profit, size=40),
        ), horizon=32, seed=0)
        return lsdsf_run(jobs, [machine(RuToneClass.RU26, 0)], txop=32, grid_us=16)[0]

    s = run(20.0)
    assert s.scheduled_jobs == {0}  # 20 > 2*10 is false
    s = run(20.5)
    assert s.scheduled_jobs == {1}


def test_conflict_weight_sums_left_to_right():
    # ten batches of 0.1 fold left to 0.9999999999999999, so job 10's 2.0
    # beats twice their weight and evicts them all; a compensated sum, as
    # sum() computes from Python 3.12 on, reads 1.0 and keeps jobs 0-9
    jobs = tuple(Job(i, i, 32 * i, 32 * i + 16, 0.1, 20) for i in range(10)) \
        + (Job(10, 10, 0, 320, 2.0, 475),)
    schedule, stats = lsdsf_run(JobSet(jobs=jobs, horizon=320, seed=0),
                                [machine(RuToneClass.RU26, 0)], txop=320, grid_us=16)
    assert stats.evictions == 10
    assert [(b.interval.start, b.interval.end, b.assignments) for b in schedule.batches] \
        == [(0, 304, ((10, 0),))]


def test_engine_matches_reference_lsdsf_trajectory():
    rng = random.Random(101)
    for _ in range(40):
        jobset = micro_instance(rng)
        machines = small_machine_set(rng)
        txop = 16 * rng.randint(1, 4)
        schedule, _ = lsdsf_run(jobset, machines, txop=txop, grid_us=16)
        for batch in schedule.batches:
            for job_id, m_idx in batch.assignments:
                job = next(j for j in jobset.jobs if j.id == job_id)
                p = tx_duration(job.size, batch.machines[m_idx])
                assert job.release <= batch.interval.start
                assert batch.interval.start + p <= min(batch.interval.end, job.deadline_abs)
        committed, scheduled = reference_lsdsf(jobset, machines, txop=txop, grid_us=16)
        got_intervals = sorted((b.interval.start, b.interval.end) for b in schedule.batches)
        want_intervals = sorted((c[0].start, c[0].end) for c in committed)
        assert got_intervals == want_intervals
        assert schedule.scheduled_jobs == scheduled
        assert schedule.total_profit == sum(
            j.profit for j in jobset.jobs if j.id in scheduled)


def test_engine_matches_reference_lsds_trajectory():
    rng = random.Random(55)
    for _ in range(12):
        jobset = micro_instance(rng, max_jobs=5)
        txop = 16 * rng.randint(1, 3)
        schedule, _ = lsds_run(jobset, 20, PHY0, txop=txop, grid_us=16)
        committed, scheduled = reference_lsds(jobset, 20, PHY0, txop=txop, grid_us=16)
        got = sorted((b.interval.start, b.interval.end) for b in schedule.batches)
        want = sorted((c[0].start, c[0].end) for c in committed)
        assert got == want
        assert schedule.scheduled_jobs == scheduled
        # per-batch winning configurations agree too
        got_cfg = {(b.interval.start, b.interval.end): b.config.counts
                   for b in schedule.batches}
        want_cfg = {(c[0].start, c[0].end): c[3].counts for c in committed}
        assert got_cfg == want_cfg


def generic_micro_instance(rng, max_jobs=6, horizon=192):
    n = rng.randint(1, max_jobs)
    jobs = []
    for i in range(n):
        release = 16 * rng.randint(0, 8)
        deadline = min(release + 16 * rng.randint(1, 9), horizon + 64)
        jobs.append(Job(id=i, station=i, release=release, deadline_abs=deadline,
                        profit=float(rng.randint(1, 100)), size=rng.randint(1, 140)))
    return JobSet(jobs=tuple(jobs), horizon=horizon, seed=0)


def test_twelve_approximation_on_micro_suite():
    # the 12x worst-case bound must hold without exception; this suite
    # never dips below a third of optimal (worst observed ratio 0.4156)
    rng = random.Random(2024)
    for _ in range(60):
        jobset = generic_micro_instance(rng)
        machines = small_machine_set(rng)
        txop = 16 * rng.randint(1, 4)
        schedule, _ = lsdsf_run(jobset, machines, txop=txop, grid_us=16)
        opt = brute_force_optimal(jobset, machines=machines, txop=txop, grid_us=16)
        assert 12 * schedule.total_profit >= opt - 1e-9
        assert 3 * schedule.total_profit >= opt - 1e-9


def test_commit_log_invariants():
    rng = random.Random(31)
    saw_eviction = False
    for _ in range(30):
        jobset = micro_instance(rng, max_jobs=6)
        machines = small_machine_set(rng)
        _, stats = lsdsf_run(jobset, machines, txop=48, grid_us=16)
        total = 0.0
        for weight, evicted in stats.commit_log:
            assert weight > 2 * evicted
            new_total = total - evicted + weight
            assert new_total > total
            total = new_total
        saw_eviction = saw_eviction or stats.evictions > 0
    assert saw_eviction, "suite never exercised an eviction"


def test_deterministic_across_runs():
    rng = random.Random(8)
    jobset = micro_instance(rng, max_jobs=6)
    machines = small_machine_set(rng)
    a = lsdsf_run(jobset, machines, txop=64, grid_us=16)[0]
    b = lsdsf_run(jobset, machines, txop=64, grid_us=16)[0]
    assert a == b


def test_candidate_interval_count_matches_formula():
    rng = random.Random(12)
    jobset = micro_instance(rng)
    machines = small_machine_set(rng)
    grid = 16
    txop = 64
    _, stats = lsdsf_run(jobset, machines, txop=txop, grid_us=grid)
    t_units = jobset.horizon // grid
    delta = min(txop // grid, t_units)
    expected = sum(t_units - l + 1 for l in range(1, delta + 1))
    assert stats.candidate_intervals == expected


def test_lsds_beats_fixed_configs_on_micro_suite():
    # configuration search wins almost everywhere at micro scale; the rare
    # losses come from local-search path dependence (a richer interval can
    # block a luckier trajectory), so this is a rate assertion here and a
    # strict one on the workload-scale regression matrix
    rng = random.Random(77)
    phy = PHY0
    comparisons = violations = 0
    for _ in range(20):
        jobset = generic_micro_instance(rng, max_jobs=5)
        txop = 16 * rng.randint(2, 3)
        lsds_schedule = lsds_run(jobset, 20, phy, txop=txop, grid_us=16)[0]
        for config in enumerate_configurations(20):
            machines = machines_for_configuration(config, phy)
            fixed = lsdsf_run(jobset, machines, txop=txop, grid_us=16, config=config)[0]
            comparisons += 1
            if lsds_schedule.total_profit < fixed.total_profit - 1e-9:
                violations += 1
    assert violations <= 0.02 * comparisons


def test_empty_jobset_gives_empty_schedule():
    jobs = JobSet(jobs=(), horizon=192, seed=0)
    schedule = lsdsf_run(jobs, [machine(RuToneClass.RU26, 0)], txop=64, grid_us=16)[0]
    assert schedule.batches == ()
    assert schedule.total_profit == 0


def test_degenerate_search_space_reduces_to_fixed_config():
    # payloads so large that, within the txop, only the undivided root RU
    # can carry them: every batch's configuration search collapses to the
    # single feasible choice and lsds coincides with lsdsf on it
    phy = PHY0
    # 3600 B needs 15 symbols on the 242-tone root but 34 on a 106-tone
    # RU, which overruns the 512 us txop; no split is ever feasible
    jobs = tuple(
        Job(id=i, station=i, release=i * 500, deadline_abs=i * 500 + 4_000,
            profit=float(10 + i), size=3_600)
        for i in range(4)
    )
    jobset = JobSet(jobs=jobs, horizon=4_000, seed=0)
    searched = lsds_run(jobset, 20, phy, txop=512, grid_us=16)[0]
    root = enumerate_configurations(20)[0]  # {1x242}
    machines = machines_for_configuration(root, phy)
    fixed = lsdsf_run(jobset, machines, txop=512, grid_us=16, config=root)[0]
    assert searched.total_profit == fixed.total_profit
    assert searched.scheduled_jobs == fixed.scheduled_jobs
    assert all(b.config.counts == root.counts for b in searched.batches)


@pytest.mark.parametrize("grid_us", [0, -16])
def test_non_positive_grid_rejected(grid_us):
    jobs = JobSet(jobs=(Job(id=0, station=0, release=0, deadline_abs=200,
                            profit=9.0, size=18),), horizon=192, seed=0)
    with pytest.raises(ValueError, match="grid_us must be positive"):
        lsds_run(jobs, 20, PHY0, txop=64, grid_us=grid_us)
    with pytest.raises(ValueError, match="grid_us must be positive"):
        lsdsf_run(jobs, [machine(RuToneClass.RU26, 0)], txop=64, grid_us=grid_us)


@pytest.mark.parametrize("scheduler", ["lsds", "lsdsf"])
def test_horizon_shorter_than_one_grid_step_rejected(scheduler):
    # no interval fits: the engine would try nothing and return an empty
    # schedule that validates clean
    jobs = JobSet(jobs=(Job(id=0, station=0, release=0, deadline_abs=100,
                            profit=9.0, size=18),), horizon=100, seed=0)
    with pytest.raises(ValueError, match="horizon 100 us is shorter than one grid step of 112 us"):
        if scheduler == "lsds":
            lsds_run(jobs, 20, PHY0, txop=4_000, grid_us=112)
        else:
            lsdsf_run(jobs, [machine(RuToneClass.RU26, 0)], txop=4_000, grid_us=112)


@pytest.mark.parametrize("scheduler", ["lsds", "lsdsf"])
def test_txop_shorter_than_one_grid_step_rejected(scheduler):
    # the engine names the TXOP and the grid step, as the CLI does
    jobs = load_use_case("UC4", 20_000, 1)
    with pytest.raises(ValueError, match="txop 100 us is shorter than one grid step of 112 us"):
        if scheduler == "lsds":
            lsds_run(jobs, 40, txop=100)
        else:
            lsdsf_run(jobs, [machine(RuToneClass.RU26, 0)], txop=100)


@pytest.mark.parametrize("scheduler", ["lsds", "lsdsf"])
def test_txop_shorter_than_one_symbol_rejected(scheduler):
    # a 1 us grid fits a 10 us TXOP, but no 16 us symbol does: the engine
    # would try every interval, fit nothing and return an empty schedule
    jobs = JobSet(jobs=tuple(Job(id=i, station=i, release=0, deadline_abs=2_000,
                                 profit=1.0, size=200) for i in range(3)), horizon=2_000, seed=0)
    with pytest.raises(ValueError, match="txop 10 us is shorter than one OFDM symbol"):
        if scheduler == "lsds":
            lsds_run(jobs, 40, txop=10, grid_us=1)
        else:
            lsdsf_run(jobs, [machine(RuToneClass.RU26, 0)], txop=10, grid_us=1)


def test_lsdsf_rejects_a_machine_set_without_one_phy():
    jobs = JobSet(jobs=(Job(id=0, station=0, release=0, deadline_abs=200,
                            profit=9.0, size=18),), horizon=192, seed=0)
    with pytest.raises(ValueError, match="empty machine set"):
        lsdsf_run(jobs, [])
    with pytest.raises(ValueError, match="machines must share one PHY profile"):
        lsdsf_run(jobs, [machine(RuToneClass.RU26, 0),
                         machine(RuToneClass.RU26, 1, PhyProfile(mcs=0))])


def test_lsds_rejects_unsupported_width():
    jobs = JobSet(jobs=(Job(id=0, station=0, release=0, deadline_abs=200,
                            profit=9.0, size=18),), horizon=192, seed=0)
    with pytest.raises(ValueError, match="unsupported channel width: 30 MHz"):
        lsds_run(jobs, 30, PHY0, txop=64, grid_us=16)


@pytest.mark.parametrize("width", [20, 40, 80])
@pytest.mark.parametrize("mcs", [0, 7, 11])
def test_lsds_config_search_matches_hungarian_oracle(width, mcs):
    phy = PhyProfile(mcs=mcs)
    rng = random.Random(f"config-search:{width}:{mcs}")
    sizes = (20, 50, 100, 300, 500, 1000, 1500, 3000)
    for _ in range(40 if width < 80 else 15):
        jobs = []
        for i in range(rng.randint(1, 25)):
            release = rng.randint(0, 300)
            jobs.append(Job(id=i, station=i, release=release,
                            deadline_abs=release + rng.randint(50, 5_000),
                            profit=float(rng.choice((1, 2, 3, 5, 8))),
                            size=rng.choice(sizes)))
        t1 = rng.randint(0, 350)
        interval = Interval(t1, t1 + rng.randint(30, 4_000))
        config, pairs, matched = lsds_config_search(jobs, interval, width, phy)
        want_config, want, _ = oracle_config_search(jobs, interval, width, phy)
        assert config == want_config
        assert sum(j.profit for j in matched) == pytest.approx(want.total_weight)
        assert sorted(j.id for j in matched) == sorted(j for j, _ in pairs)
        machines = machines_for_configuration(config, phy)
        assert len({m for _, m in pairs}) == len(pairs)
        by_id = {j.id: j for j in jobs}
        for job_id, m in pairs:
            job = by_id[job_id]
            assert job.release <= interval.start
            assert interval.start + tx_duration(job.size, machines[m]) \
                <= min(interval.end, job.deadline_abs)


@st.composite
def config_search_cases(draw):
    """Items over a channel's active classes and a subset of its table rows.

    Counts reach past the table's column maxima, so some items run out of
    room on every row; profits are integral or fractional.
    """
    table = config_table(draw(st.sampled_from([20, 40, 80, 160]))).counts
    counts = table[:, table.any(axis=0)]
    n_classes = counts.shape[1]
    rows = draw(st.one_of(
        st.just(list(range(len(counts)))),
        st.lists(st.integers(0, len(counts) - 1), min_size=1, max_size=60, unique=True),
    ))
    counts = counts[sorted(rows)]
    return draw_items(draw, n_classes, int(_suffix(counts).max())), counts


def draw_items(draw, n_classes, most):
    """Up to 10 items in descending profit over ``n_classes`` classes."""
    # few distinct integral profits make ties between rows common
    profit = st.one_of(st.integers(1, 20).map(float),
                       st.floats(0.01, 60.0, allow_nan=False, allow_infinity=False))
    count = st.one_of(st.integers(1, 4), st.integers(1, most + 8))
    drawn = draw(st.lists(st.tuples(profit, st.integers(0, n_classes - 1), count),
                          min_size=1, max_size=10))
    return [(p, c, n, i) for i, (p, c, n) in enumerate(sorted(drawn, key=lambda t: -t[0]))]


@settings(max_examples=300, deadline=None)
@given(config_search_cases())
def test_config_search_equals_plain_argmax_over_all_rows(case):
    items, counts = case
    suffix_rows = _suffix(counts)
    # the vectorized values are _greedy's, bit for bit: the engine stores
    # the search's value as the committed batch's weight
    values = [_greedy(items, row)[0] for row in suffix_rows]
    assert _eval_configs(items, suffix_rows).tolist() == values
    want = values.index(max(values))  # first row of best value
    assert _config_search(items, suffix_rows) == (want, values[want])


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([20, 40, 80, 160]))
def test_best_row_is_the_first_best_row_of_the_whole_table(data, width):
    # the engine searches only the first row of each distinct projection
    # onto the items' classes; it must pick the row a plain scan would
    table = config_table(width)
    engine = local_search._Engine(JobSet(jobs=(), horizon=16, seed=0), 16, 16, PHY0,
                                  TONE_CLASSES, table.configs, table.counts, table.machines)
    rows = engine.cfg_suffix
    items = draw_items(data.draw, rows.shape[1], int(rows.max()))
    values = _eval_configs(items, rows)
    want = int(np.argmax(values == values.max()))
    assert engine._best_row(items) == (want, _greedy(items, rows[want])[0])


@pytest.mark.parametrize("use_case, width, horizon, txop",
                         [("UC3", 160, 2_000, 500), ("UC2", 40, 10_000, DEFAULT_TXOP_US)])
def test_config_search_memo_hits_and_is_exact(monkeypatch, use_case, width, horizon, txop):
    jobs = load_use_case(use_case, horizon, seed=1)
    counts = config_table(width).counts
    table = _suffix(counts[:, counts.any(axis=0)])
    computed = []

    def first_best(items, rows):
        values = _eval_configs(items, rows)
        return int(np.argmax(values == values.max())), values.max()

    def checked(items, suffix_rows):
        got = _config_search(items, suffix_rows)
        want, best = first_best(items, suffix_rows)
        assert got == (want, float(best))
        # the rows handed are some of the table's; their winner must be the
        # first row of best value in the whole table
        row, table_best = first_best(items, table)
        assert got[1] == float(table_best)
        assert (suffix_rows[got[0]] == table[row]).all()
        computed.append(len(suffix_rows))
        return got

    best_row = local_search._Engine._best_row

    def mapped(self, takes1):
        found = best_row(self, takes1)
        row, best = first_best(takes1, table)
        assert found == (row, float(best))
        return found

    monkeypatch.setattr(local_search, "_config_search", checked)
    monkeypatch.setattr(local_search._Engine, "_best_row", mapped)
    schedule, first = lsds_run(jobs, width, txop=txop, grid_us=16)
    assert first.config_searches > first.config_searches_computed == len(computed) > 0
    assert first.config_rows == sum(computed) < len(computed) * len(table)
    # a second run on the same input starts with an empty memo
    _, second = lsds_run(jobs, width, txop=txop, grid_us=16)
    assert second.config_searches_computed == first.config_searches_computed

    # every hit answers what a fresh search would: a run that searches
    # each time gives the same schedule
    class Forgetful(dict):
        def get(self, key, default=None):
            return default

    init = local_search._Engine.__init__

    def without_memo(self, *args):
        init(self, *args)
        self.searched = Forgetful()

    monkeypatch.setattr(local_search._Engine, "__init__", without_memo)
    fresh, stats = lsds_run(jobs, width, txop=txop, grid_us=16)
    assert stats.config_searches_computed == stats.config_searches == first.config_searches
    assert fresh == schedule


def evicting_instance(first_profit_exp, gap, small_size, large_size):
    """Job 0 fills the one RU for [0, 16] and commits at length 1; job 1
    needs all of [0, 32] and is worth more than twice job 0, so length 2
    evicts job 0."""
    return JobSet(jobs=(
        Job(id=0, station=0, release=0, deadline_abs=16,
            profit=float(2 ** first_profit_exp), size=small_size),
        Job(id=1, station=1, release=0, deadline_abs=32,
            profit=float(2 ** (first_profit_exp + gap)), size=large_size),
    ), horizon=32, seed=0)


@st.composite
def micro_instances(draw, max_jobs=7):
    """``micro_instance`` drawn by hypothesis: distinct power-of-two profits,
    so every exact solver picks the same job set."""
    exps = draw(st.lists(st.integers(1, 12), min_size=2, max_size=max_jobs, unique=True))
    jobs = []
    for i, e in enumerate(exps):
        release = 16 * draw(st.integers(0, 8))
        deadline = min(release + 16 * draw(st.integers(1, 9)), 192 + 64)
        jobs.append(Job(id=i, station=i, release=release, deadline_abs=deadline,
                        profit=float(2 ** e), size=draw(st.integers(1, 140))))
    return JobSet(jobs=tuple(jobs), horizon=192, seed=0)


evicting_instances = st.builds(evicting_instance, st.integers(1, 8), st.integers(2, 4),
                               st.integers(1, 25), st.integers(26, 50))

# job 0 commits on [0, 16]; [32, 48] still carries its chunk value but has
# no items, and job 1's release is the next: it commits exactly there, on
# [48, 64]. Job 2, of the first group by profit, is released later.
COMMIT_ON_THE_NEXT_RELEASE = JobSet(jobs=(Job(0, 0, 0, 64, 4.0, 20), Job(1, 1, 48, 64, 2.0, 20),
                                          Job(2, 2, 60, 80, 8.0, 20)), horizon=64, seed=0)


def assert_same_trajectory(schedule, stats, committed, scheduled, log):
    assert stats.commit_log == log
    assert stats.commits == len(log)
    got = {(b.interval.start, b.interval.end): frozenset(j for j, _ in b.assignments)
           for b in schedule.batches}
    assert got == {(c[0].start, c[0].end): c[1] for c in committed}
    assert schedule.scheduled_jobs == scheduled


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(micro_instances(), evicting_instances), st.integers(1, 3),
       st.sampled_from([RuToneClass.RU26, RuToneClass.RU52, RuToneClass.RU106]),
       st.integers(2, 4))
@example(evicting_instance(3, 2, 20, 40), 1, RuToneClass.RU26, 2)
# job 2 is worth a hair more than twice job 1, which ``_sweep`` reads off
# cumulative weights as 0.30000000004656613: the sweep must still keep
# start 32, and commit job 2 by evicting job 1
@example(JobSet(jobs=(Job(0, 0, 0, 16, 1e6, 20), Job(1, 1, 32, 48, 0.3, 20),
                      Job(2, 2, 32, 64, 0.6000000000001, 50)), horizon=64, seed=0),
         1, RuToneClass.RU26, 2)
# the length after an eviction has no duration that first fits it, and
# still commits: the reference's fourth commit is (4.0, 0)
@example(JobSet(jobs=(Job(0, 0, 112, 176, 256.0, 100), Job(1, 1, 16, 112, 4.0, 100),
                      Job(2, 2, 64, 128, 32.0, 100), Job(3, 3, 32, 128, 2.0, 50),
                      Job(4, 4, 144, 176, 16.0, 75)), horizon=176, seed=0),
         1, RuToneClass.RU26, 6)
# the (272.0, 128.0) commit comes at a length where a duration on the
# 26-tone RU first fits, though none on the 106-tone one does
@example(JobSet(jobs=(Job(0, 0, 0, 128, 32.0, 93), Job(1, 1, 64, 144, 128.0, 145),
                      Job(2, 2, 48, 128, 256.0, 253), Job(3, 3, 48, 144, 64.0, 86),
                      Job(4, 4, 32, 144, 16.0, 97)), horizon=144, seed=0),
         2, RuToneClass.RU106, 4)
# job 0 commits on [0, 16]; [0, 32] is worth (1.0 + 0.1) + 0.1 =
# 1.2000000000000002 > 2 * 0.6, but its chunk value reads 1.0 + 0.1 * 2 =
# 1.2: the re-screen against the conflict weight must keep its margin
@example(JobSet(jobs=(Job(0, 0, 0, 16, 0.6, 20), Job(1, 1, 0, 32, 1.0, 30),
                      Job(2, 2, 0, 32, 0.1, 30), Job(3, 3, 0, 48, 0.1, 30)),
                horizon=64, seed=0),
         3, RuToneClass.RU26, 2)
# three batches of inexact weights conflict with [0, 144]: summed in start
# order, as the engine sums them, they weigh (0.1 + 0.1) + 0.6 = 0.8 and
# job 3's 1.6 does not beat twice that (in commit order they would weigh
# 0.7999999999999999)
@example(JobSet(jobs=(Job(0, 0, 0, 16, 0.1, 20), Job(1, 1, 64, 96, 0.1, 40),
                      Job(2, 2, 128, 144, 0.6, 20), Job(3, 3, 0, 144, 1.6, 225)),
                horizon=144, seed=0),
         1, RuToneClass.RU26, 9)
@example(COMMIT_ON_THE_NEXT_RELEASE, 1, RuToneClass.RU26, 1)
def test_lsdsf_follows_reference_trajectory(jobset, n_machines, widest, txop_units):
    machines = [machine(RuToneClass.RU26, 0)] + \
        [machine(widest, i) for i in range(1, n_machines)]
    txop = 16 * txop_units
    schedule, stats = lsdsf_run(jobset, machines, txop=txop, grid_us=16)
    log = []
    committed, scheduled = reference_lsdsf(jobset, machines, txop=txop, grid_us=16, log=log)
    assert_same_trajectory(schedule, stats, committed, scheduled, log)
    if len(jobset.jobs) == 2 and len(machines) == 1 and jobset.horizon == 32:
        assert stats.evictions == 1  # the evicting family does evict


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(micro_instances(max_jobs=5), st.integers(1, 3))
# the relaxed value of [16, 32] is 40, but its best configuration takes
# only 20, exactly twice job 0's 10: the exact commit test must not evict
@example(JobSet(jobs=(Job(0, 0, 0, 16, 10.0, 20), Job(1, 1, 16, 32, 20.0, 200),
                      Job(2, 2, 16, 32, 10.0, 100), Job(3, 3, 16, 32, 10.0, 100)),
                horizon=32, seed=0), 1)
def test_lsds_follows_reference_trajectory(jobset, txop_units):
    txop = 16 * txop_units
    schedule, stats = lsds_run(jobset, 20, PHY0, txop=txop, grid_us=16)
    log = []
    committed, scheduled = reference_lsds(jobset, 20, PHY0, txop=txop, grid_us=16, log=log)
    assert_same_trajectory(schedule, stats, committed, scheduled, log)
    assert {(b.interval.start, b.interval.end): b.config.counts for b in schedule.batches} \
        == {(c[0].start, c[0].end): c[3].counts for c in committed}


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(micro_instances(max_jobs=5), st.integers(1, 3))
def test_lsds_within_twelve_of_optimum(jobset, txop_units):
    # the bound with the configuration chosen per batch, against the
    # optimum over every 20 MHz configuration
    txop = 16 * txop_units
    schedule, _ = lsds_run(jobset, 20, PHY0, txop=txop, grid_us=16)
    opt = brute_force_optimal(jobset, channel_width=20, phy=PHY0, txop=txop, grid_us=16)
    assert 12 * schedule.total_profit >= opt - 1e-9


# ---- the chunked relaxed-greedy bound ---------------------------------------


def checking_tighten(chunks):
    """``_Engine._tighten`` that checks each chunk's values and conflict
    weights against the scalar path at the moment it is computed, and
    records the chunk sizes."""
    tighten = local_search._Engine._tighten

    def checked(self, chunk, length):
        values, keep = tighten(self, chunk, length)
        t1v = chunk * self.grid
        # the vector conflict weights are the scalar sums, up to rounding
        weights = self._conflict_weight_vector(t1v, t1v + length).tolist()
        for idx, value, kept, weight in zip(chunk.tolist(), values.tolist(), keep.tolist(),
                                            weights):
            t1 = idx * self.grid
            exact = _greedy(self._items_for(t1, t1 + length), self.suffix_caps)[0]
            assert value == pytest.approx(exact, rel=1e-9, abs=0)
            lo, hi = self._conflict_range(t1, t1 + length)
            assert weight == pytest.approx(sum(self.weights[lo:hi]), rel=1e-9,
                                           abs=1e-9 * sum(self.weights))
            if not kept:
                assert exact <= 2.0 * sum(self.weights[lo:hi])
        chunks.append(len(chunk))
        return values, keep

    return checked


# profits near ties: 0.6000000000001 is a hair more than twice 0.3, and
# none of the small ones adds exactly in binary
NEAR_TIES = (0.1, 0.2, 0.3, 0.6, 0.6000000000001, 1.2, 1e6)


@st.composite
def crowded_instances(draw, distinct_profits=False, profits=(0.0, 0.1, 0.3, 1.0, 2.7, 7.0),
                      max_jobs=40):
    """Up to ``max_jobs`` jobs over up to 150 grid steps of 16 us, released
    off the grid within a drawn spread, so that some intervals admit more
    jobs than fit and some jobs are released inside an interval. Profits
    come from ``profits``, a few values that do not add exactly in binary,
    so groups share profit levels and the vector sums round unlike the
    scalar ones; sweeps reach a second chunk and evictions happen.

    With ``distinct_profits`` each job's profit is a distinct power of two
    instead, so every exact solver picks the same job sets and sums them
    exactly, and the reference trajectory can be compared."""
    steps = draw(st.integers(1, 150))
    spread = draw(st.integers(0, steps - 1))
    n = draw(st.integers(1, max_jobs))
    exps = draw(st.lists(st.integers(0, 45), min_size=n, max_size=n, unique=True)) \
        if distinct_profits else None
    jobs = []
    for i in range(n):
        release = draw(st.integers(0, 16 * spread))
        deadline = release + draw(st.integers(1, 200))
        profit = float(2 ** exps[i]) if distinct_profits else \
            draw(st.sampled_from(profits))
        jobs.append(Job(id=i, station=i, release=release, deadline_abs=deadline,
                        profit=profit, size=draw(st.integers(1, 400))))
    return JobSet(jobs=tuple(jobs), horizon=16 * steps, seed=0)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(crowded_instances(), st.integers(1, 6), st.sampled_from(["lsds20", "lsds40", "lsdsf"]))
# jobs 2 and 3, released inside [0, 32], meet their deadlines on the
# 106-tone RU but not on a 26-tone one: for [0, 32] they must count for no
# class, not against the 26-tone one
@example(JobSet(jobs=(Job(id=0, station=0, release=0, deadline_abs=64, profit=1.0, size=1),
                      Job(id=1, station=1, release=0, deadline_abs=64, profit=1.0, size=1),
                      Job(id=2, station=2, release=5, deadline_abs=22, profit=1.0, size=30),
                      Job(id=3, station=3, release=6, deadline_abs=23, profit=1.0, size=30)),
                horizon=64, seed=0), 2, "lsdsf")
def test_tightened_values_are_the_scalar_greedy_values(jobset, txop_units, scheduler):
    chunks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_search._Engine, "_tighten", checking_tighten(chunks))
        if scheduler == "lsdsf":
            machines = [machine(RuToneClass.RU26, 0), machine(RuToneClass.RU106, 1)]
            _, stats = lsdsf_run(jobset, machines, txop=16 * txop_units, grid_us=16)
        else:
            _, stats = lsds_run(jobset, int(scheduler[4:]), PHY0, txop=16 * txop_units,
                                grid_us=16)
    # each survivor is dropped by a bound, skipped as idle (inside a chunk,
    # or jumped over before one is tightened) or evaluated, unless an
    # eviction ends its sweep first; only idle starts go untightened
    assert stats.bound_rejects + stats.idle_starts == \
        stats.sweep_survivors - stats.exact_evaluations or stats.evictions
    assert stats.sweep_survivors - sum(chunks) <= stats.idle_starts or stats.evictions
    assert stats.bound_rejects + stats.exact_evaluations <= sum(chunks) <= stats.sweep_survivors


TWO_CLASSES = [machine(RuToneClass.RU26, 0), machine(RuToneClass.RU106, 1)]


def run_crowded(jobset, txop, scheduler):
    """``lsds_run`` at 20 or 40 MHz (``"lsds20"``, ``"lsds40"``), or
    ``lsdsf_run`` on a 26-tone and a 106-tone RU (``"lsdsf"``)."""
    if scheduler == "lsdsf":
        return lsdsf_run(jobset, TWO_CLASSES, txop=txop, grid_us=16)
    return lsds_run(jobset, int(scheduler[4:]), PHY0, txop=txop, grid_us=16)


# ---- every screen drops only starts the exact test rejects -----------------


def checking_sweep():
    """``_Engine._sweep`` that checks, at the moment it runs, that every
    start it drops fails the exact commit test."""
    sweep = local_search._Engine._sweep

    def checked(self, l_units, from_idx, to_idx):
        kept = sweep(self, l_units, from_idx, to_idx)
        length = l_units * self.grid
        for idx in sorted(set(range(from_idx, to_idx)) - set(kept.tolist())):
            t1 = idx * self.grid
            lo, hi = self._conflict_range(t1, t1 + length)
            exact = _greedy(self._items_for(t1, t1 + length), self.suffix_caps)[0]
            assert exact <= 2.0 * local_search._fold_sum(self.weights[lo:hi])
        return kept

    return checked


def checking_idle(idles):
    """``_Engine._next_release`` that checks, at the moment a start finds
    no items, that no grid start from it to the index returned has any,
    and records each (start, index returned)."""
    next_release = local_search._Engine._next_release

    def checked(self, t1, length):
        idle_until = next_release(self, t1, length)
        start = t1 // self.grid
        assert idle_until > start
        for idx in range(start, min(idle_until, self.t_units - length // self.grid + 1)):
            assert not self._items_for(idx * self.grid, idx * self.grid + length)
        idles.append((start, idle_until))
        return idle_until

    return checked


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(crowded_instances(profits=NEAR_TIES, max_jobs=12), st.integers(1, 6),
       st.sampled_from(["lsds20", "lsds40", "lsdsf"]))
@example(COMMIT_ON_THE_NEXT_RELEASE, 1, "lsdsf")
def test_screens_drop_only_starts_the_exact_test_rejects(jobset, txop_units, scheduler):
    chunks, idles = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_search._Engine, "_sweep", checking_sweep())
        mp.setattr(local_search._Engine, "_tighten", checking_tighten(chunks))
        mp.setattr(local_search._Engine, "_next_release", checking_idle(idles))
        _, stats = run_crowded(jobset, 16 * txop_units, scheduler)
    # only a start with no items idles the scan
    assert len(idles) <= stats.exact_evaluations


def trajectory(stats):
    # sweep survivors and exact evaluations may differ between two scans
    # that bound their starts after different commits
    return (stats.candidate_intervals, stats.commits, stats.evictions, stats.restarts,
            stats.commit_log)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(crowded_instances().map(lambda jobset: (jobset, False)),
                 crowded_instances(distinct_profits=True).map(lambda jobset: (jobset, True))),
       st.integers(1, 6), st.sampled_from(["lsds20", "lsds40", "lsdsf"]))
def test_restart_blocks_keep_the_trajectory(case, txop_units, scheduler):
    # blocks of 1 and 3 starts take small instances through several blocks
    # after an eviction; every block size must give the same commits
    jobset, distinct = case
    txop = 16 * txop_units
    schedule, stats = run_crowded(jobset, txop, scheduler)
    for block in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(local_search, "_BLOCK", block)
            small_schedule, small_stats = run_crowded(jobset, txop, scheduler)
        assert small_schedule == schedule
        assert trajectory(small_stats) == trajectory(stats)
    if not distinct:
        return  # equal profits let exact solvers pick different job sets
    log = []
    if scheduler == "lsdsf":
        committed, scheduled = reference_lsdsf(jobset, TWO_CLASSES, txop=txop, grid_us=16,
                                               log=log)
    else:
        committed, scheduled = reference_lsds(jobset, int(scheduler[4:]), PHY0, txop=txop,
                                              grid_us=16, log=log)
        assert {(b.interval.start, b.interval.end): b.config.counts for b in schedule.batches} \
            == {(c[0].start, c[0].end): c[3].counts for c in committed}
    assert_same_trajectory(schedule, stats, committed, scheduled, log)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(crowded_instances(), crowded_instances(distinct_profits=True),
                 crowded_instances(profits=NEAR_TIES, max_jobs=12)),
       st.integers(1, 6), st.sampled_from(["lsds20", "lsds40", "lsdsf"]))
def test_skipped_lengths_keep_the_trajectory(jobset, txop_units, scheduler):
    # a length outside the fit lengths gives every start the items it had
    # one length earlier
    txop = 16 * txop_units
    engines = []
    with pytest.MonkeyPatch.context() as mp:
        run = local_search._Engine.run
        mp.setattr(local_search._Engine, "run", lambda self: engines.append(self) or run(self))
        schedule, stats = run_crowded(jobset, txop, scheduler)
    engine, = engines
    fit = engine._fit_lengths()

    def shifts(l_units):
        rows, first = engine._shifts(l_units * engine.grid)
        return [row.tolist() for row in rows], first

    for l_units in range(2, engine.delta_units + 1):
        if l_units not in fit:
            assert shifts(l_units) == shifts(l_units - 1)
    # with every length counted as a fit length the engine scans them all,
    # as the plain search does; skipping the others must change no commit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_search._Engine, "_fit_lengths",
                   lambda self: range(1, self.delta_units + 1))
        full_schedule, full_stats = run_crowded(jobset, txop, scheduler)
    assert full_stats.lengths_skipped == 0
    assert full_schedule == schedule
    assert trajectory(full_stats) == trajectory(stats)


def test_tightened_values_through_evictions_and_chunks():
    # UC3 at 160 MHz evicts and sweeps past the first chunk
    chunks = []
    jobs = load_use_case("UC3", 10_000, seed=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_search._Engine, "_tighten", checking_tighten(chunks))
        _, stats = lsds_run(jobs, 160, PHY0, txop=500, grid_us=16)
    assert stats.evictions > 0
    assert max(chunks) > local_search._CHUNK


@pytest.mark.parametrize("use_case, width, horizon, txop", [
    ("UC2", 40, 10_000, DEFAULT_TXOP_US),
    ("UC3", 160, 10_000, 500),
])
def test_engine_counters_repeat_and_add_up(use_case, width, horizon, txop):
    jobs = load_use_case(use_case, horizon, seed=1)
    _, first = lsds_run(jobs, width, txop=txop, grid_us=16)
    _, second = lsds_run(jobs, width, txop=txop, grid_us=16)
    assert first == second
    assert first.bound_rejects + first.exact_evaluations <= first.sweep_survivors
    assert first.config_searches <= first.exact_evaluations
    assert first.restarts <= first.evictions
    # the first length is always scanned
    assert 0 < first.lengths_skipped <= min(txop, horizon) // 16 - 1
    assert first.config_rows <= first.config_searches_computed * len(config_table(160).counts)


def test_evicted_slices_go_back_in_the_order_taken():
    # jobs 0 and 1 are alike. [16, 32] puts job 0 on the 26-tone RU (machine
    # 2) and job 1 on a 106-tone one: two slices of one pool. [32, 48]
    # evicts them, and each slice goes back before equal releases in the
    # order taken, so job 1 leads the pool and takes the 26-tone RU at [64, 80]
    jobs = JobSet(jobs=(Job(0, 0, 16, 96, 3.0, 7), Job(1, 1, 16, 96, 3.0, 7),
                        Job(2, 2, 32, 128, 40.0, 57), Job(3, 3, 32, 128, 40.0, 57)),
                  horizon=160, seed=0)
    schedule, stats = lsds_run(jobs, 20, PHY0, txop=64, grid_us=16)
    assert stats.evictions == 1
    assert [(b.interval.start, b.assignments) for b in schedule.batches] == \
        [(32, ((2, 0), (3, 1))), (64, ((0, 0), (1, 2)))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pool_remove_and_add_keep_release_order(data):
    # the model: (release, id) entries in release order, where members put
    # back go before those of an equal release and keep their own order
    releases = sorted(data.draw(st.lists(st.integers(0, 4), max_size=12)))
    ids = data.draw(st.permutations(range(100, 100 + len(releases))))
    group = local_search._Group(1.0, (16,), local_search._UNBOUND)
    group.releases = np.array(releases, dtype=np.int64)
    group.ids = list(ids)
    model = list(zip(releases, ids))
    taken = []
    for _ in range(data.draw(st.integers(1, 10))):
        if taken and data.draw(st.booleans()):
            piece = taken.pop(data.draw(st.integers(0, len(taken) - 1)))
            group.add([r for r, _ in piece], [i for _, i in piece])
            model = [(r, i) for r, _, _, i in sorted(
                [(r, 0, k, i) for k, (r, i) in enumerate(piece)]
                + [(r, 1, k, i) for k, (r, i) in enumerate(model)])]
        elif model:
            # disjoint spans, several in one call, in any order
            cuts = sorted(set(data.draw(st.lists(st.integers(0, len(model)), min_size=2))))
            pieces = [(a, b - a) for a, b in zip(cuts, cuts[1:])]
            pieces = data.draw(st.permutations(pieces))
            spans = pieces[: data.draw(st.integers(1, max(1, len(pieces))))]
            group.remove(spans)
            taken += [model[lo: lo + n] for lo, n in spans]
            gone = {k for lo, n in spans for k in range(lo, lo + n)}
            model = [e for k, e in enumerate(model) if k not in gone]
        assert group.releases.dtype == np.int64
        assert list(zip(group.releases.tolist(), group.ids)) == model
        assert (np.diff(group.releases) >= 0).all()
