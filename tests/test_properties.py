"""Properties every scheduler of the table, and the best-effort overlay
on its schedule, keep on random small job sets; properties of the two
text parsers on lines with one bad token; and the validator's agreement
with its per-assignment oracle on mutated schedules.

Each station's jobs are split between two applications, which the
per-application bookkeeping of nlrf has to follow job by job.
"""

import functools
import os
import re
import subprocess
import sys
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdmasched.phy import CHANNEL_WIDTHS, PhyProfile, config_table
from ofdmasched.scheduling import dump_schedule, parse_schedule
from ofdmasched.simulator import (CHANNEL_QUALITIES, SCHEDULERS, BestEffortPacket,
                                  ChannelScenario, best_effort_overlay, run_scenario,
                                  validate_schedule)
from ofdmasched.workload import Job, JobSet, dump_jobs, load_use_case, parse_jobs

from oracles.validator import validate_schedule as oracle_validate
from test_simulator import VALIDATOR_MUTANTS

# one station whose two jobs belong to two applications
TWO_APPS = JobSet((Job(0, 0, 0, 1000, 1.0, 100, app="a"),
                   Job(1, 0, 10, 1000, 1.0, 100, app="b")), 1000, 1)


@st.composite
def job_sets(draw):
    """Up to 25 jobs on 7 stations, two application names per station."""
    horizon = draw(st.integers(112, 3_000))
    profit = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 2.5]),
                       st.floats(0.01, 50.0, allow_nan=False, allow_infinity=False))
    jobs = []
    for i in range(draw(st.integers(0, 25))):
        station = draw(st.integers(0, 6))
        release = draw(st.integers(0, horizon - 1))
        jobs.append(Job(id=i, station=station, release=release,
                        deadline_abs=min(release + draw(st.integers(1, 3_000)), horizon),
                        profit=draw(profit), size=draw(st.integers(1, 2_000)),
                        critical=draw(st.booleans()),
                        app=f"s{station}-{draw(st.sampled_from('ab'))}"))
    return JobSet(jobs=tuple(jobs), horizon=horizon, seed=0)


@settings(max_examples=100, deadline=None)
@given(job_sets(), st.sampled_from(CHANNEL_WIDTHS), st.sampled_from(CHANNEL_QUALITIES),
       st.sampled_from([16, 112]), st.integers(112, 4_000))
@example(TWO_APPS, 40, "ideal", 112, 4_000)
def test_every_scheduler_validates_round_trips_and_accounts_for_every_job(
        jobs, width, quality, grid_us, txop):
    scenario = ChannelScenario(quality)
    phy = scenario.phy()
    profits = {j.id: j.profit for j in jobs.jobs}
    for name in SCHEDULERS:
        report, schedule = run_scenario(jobs, name, scenario, width, txop, grid_us)
        assert validate_schedule(schedule, jobs, width, phy, txop) == []
        text = dump_schedule(schedule)
        assert dump_schedule(parse_schedule(text, profits, width, phy)) == text
        # the report keeps delivered and dropped disjoint
        assert report.delivered | report.dropped == profits.keys()


@st.composite
def overlay_cases(draw):
    """A factory job set and up to 15 best-effort packets arriving before its horizon."""
    jobs = draw(job_sets())
    packets = [BestEffortPacket(i, draw(st.integers(0, jobs.horizon - 1)),
                                draw(st.integers(1, 2_000)), draw(st.floats(0.01, 50.0)))
               for i in range(draw(st.integers(0, 15)))]
    return jobs, packets


@settings(max_examples=100, deadline=None)
@given(overlay_cases(), st.sampled_from(tuple(SCHEDULERS)), st.sampled_from(CHANNEL_WIDTHS),
       st.sampled_from(CHANNEL_QUALITIES), st.integers(112, 4_000))
def test_overlay_keeps_factory_traffic_and_validates_on_the_union(
        case, name, width, quality, txop):
    jobs, packets = case
    scenario = ChannelScenario(quality)
    phy = scenario.phy()
    _, base = run_scenario(jobs, name, scenario, width, txop, 112)
    out, satisfaction, airtime = best_effort_overlay(base, jobs, packets, width, phy, txop)

    factory_ids = {j.id for j in jobs.jobs}

    def factory_assignments(schedule):
        return {(b.interval, job, m)
                for b in schedule.batches for job, m in b.assignments if job in factory_ids}

    # C8: the overlay never moves or drops factory traffic
    assert factory_assignments(out) == factory_assignments(base)
    first = max(factory_ids, default=-1) + 1
    be_jobs = tuple(Job(id=first + p.id, station=-1, release=p.arrival_us,
                        deadline_abs=jobs.horizon, profit=p.profit, size=p.size)
                    for p in packets)
    union = JobSet(jobs=jobs.jobs + be_jobs, horizon=jobs.horizon, seed=jobs.seed)
    assert validate_schedule(out, union, width, phy, txop) == []
    assert 0.0 <= satisfaction <= 1.0
    assert 0.0 <= airtime <= 1.0


def test_run_writes_the_same_schedule_under_any_hash_seed(tmp_path):
    written = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        proc = subprocess.run(
            [sys.executable, "-m", "ofdmasched.cli", "run", "--use-case", "UC1",
             "--scheduler", "lsds", "--horizon-us", "20000", "--out-dir", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        written.append((out / "schedule.txt").read_text())
    assert written[0] == written[1]


@st.composite
def one_bad_token(draw, lines, first=0):
    """The text of ``lines`` with one token of a line from ``first`` on
    swapped for a bad one, emptied, or added as an extra field."""
    lines = list(lines)
    number = draw(st.integers(first, len(lines) - 1))
    fields = lines[number].split(" ")
    token = draw(st.sampled_from(["nan", "inf", "-1", "1e3", ""]))
    if token and draw(st.booleans()):
        fields.insert(draw(st.integers(0, len(fields))), token)
    else:
        fields[draw(st.integers(0, len(fields) - 1))] = token
    lines[number] = " ".join(fields)
    return "\n".join(lines) + "\n"


@st.composite
def job_texts(draw):
    """A dumped job set with one bad token after the header line."""
    return draw(one_bad_token(dump_jobs(draw(job_sets().filter(len))).splitlines(), first=1))


@st.composite
def schedule_texts(draw):
    """A channel width and the text of schedule lines that parse, with one
    bad token: up to four batches on the width's configurations, each job
    in one batch."""
    width = draw(st.sampled_from(CHANNEL_WIDTHS))
    configs = config_table(width).configs
    lines, job, t = [], 0, 0
    for idx in range(draw(st.integers(1, 4))):
        cfg = draw(st.integers(0, len(configs) - 1))
        t1 = t + draw(st.integers(0, 50))
        t = t2 = t1 + draw(st.integers(1, 500))
        for m in draw(st.sets(st.integers(0, configs[cfg].total_rus - 1), min_size=1, max_size=4)):
            lines.append(f"{idx} {t1} {t2} {cfg} {job} {m}")
            job += 1
    return width, draw(one_bad_token(lines))


def assert_parses_back_or_names_a_line(parse, dump, text):
    try:
        parsed = parse(text)
    except ValueError as exc:
        assert re.match(r"line \d+: ", str(exc)), exc
        return
    assert parse(dump(parsed)) == parsed


@settings(max_examples=200, deadline=None)
@given(job_texts())
@example("0 0 0 100 nan 10 0 a\n")  # nan != nan: it cannot read back equal
@example("0 0 0 100 inf 10 0 a\n")
@example("0 0 0 100 1.0 10 -1 a\n")
def test_parse_jobs_reads_back_its_dump_or_names_the_bad_line(text):
    assert_parses_back_or_names_a_line(parse_jobs, dump_jobs, text)


@settings(max_examples=200, deadline=None)
@given(schedule_texts())
@example((40, "0 0 100 0 0 0\n0 0 100 0 1 1e3\n"))
def test_parse_schedule_reads_back_its_dump_or_names_the_bad_line(case):
    width, text = case
    profits = {job: 1.0 for job in range(text.count("\n"))}
    assert_parses_back_or_names_a_line(
        lambda t: parse_schedule(t, profits, width, PhyProfile()), dump_schedule, text)


@functools.cache
def valid_schedule(use_case):
    """A valid schedule of a use case, with its job set, width and TXOP."""
    if use_case == "UC4":
        jobs = load_use_case("UC4", 20_000, 1)
        return jobs, 40, 4_000, run_scenario(jobs, "lsds", ChannelScenario(), 40)[1]
    jobs = load_use_case("UC3", 3_000, 1)
    return jobs, 160, 500, run_scenario(jobs, "edf", ChannelScenario(), 160, 500)[1]


# Each mutation reads the valid batches and returns (index, changed batch).

def _rotated(mutate):
    """A mutation of the test set applied at a drawn position: those change
    the first batch (or search from it), so rotate that batch first."""
    def at(js, batches, k):
        i, mutated, _ = mutate(js, batches[k:] + batches[:k])
        return (k + i) % len(batches), mutated
    at.__name__ = mutate.__name__
    return at


def _copy_on_mcs0(js, batches, k):
    """An equal but distinct copy of the batch's machine tuple, one assigned RU on MCS 0."""
    b = batches[k]
    machines = list(b.machines)
    m = b.assignments[0][1]
    machines[m] = replace(machines[m], phy=PhyProfile(mcs=0))
    return k, replace(b, machines=tuple(machines))


def _shared_machines(js, batches, k):
    """The batch's machine tuple, the same object, under the next batch's configuration."""
    other = (k + 1) % len(batches)
    return other, replace(batches[other], machines=batches[k].machines)


def _other_phy_copy(js, batches, k):
    """The batch copied over the next one with every RU on another PHY, so
    each of its (size, class) pairs also runs on a second PHY."""
    b = batches[k]
    phy = PhyProfile(mcs=k % 11)
    return (k + 1) % len(batches), replace(
        b, machines=tuple(replace(m, phy=phy) for m in b.machines))


VALIDATOR_MUTATIONS = [*map(_rotated, VALIDATOR_MUTANTS),
                       _copy_on_mcs0, _shared_machines, _other_phy_copy]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["UC4", "UC3"]),
       st.lists(st.tuples(st.sampled_from(VALIDATOR_MUTATIONS), st.integers(0, 10**6)),
                max_size=6),
       st.booleans())
def test_validator_matches_the_per_assignment_oracle(use_case, mutations, mcs0_channel):
    jobs, width, txop, schedule = valid_schedule(use_case)
    valid = list(schedule.batches)
    batches = list(valid)
    for mutate, at in mutations:
        i, batch = mutate(jobs, valid, at % len(valid))
        batches[i] = batch
    phy = PhyProfile(mcs=0) if mcs0_channel else PhyProfile()
    assert validate_schedule(batches, jobs, width, phy, txop) == \
        oracle_validate(batches, jobs, width, phy, txop)
