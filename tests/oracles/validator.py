"""The per-assignment schedule validator: the test oracle for ``validate_schedule``.

This is ``ofdmasched.simulator.validate_schedule`` as it stood before it
shared work within a call: every assignment reads its machine's bandwidth
and PHY, and computes its duration with ``tx_duration``, on its own, and
every batch re-runs its configuration checks. The package's validator
must return exactly this list, messages and order alike, for every
schedule.
"""

from __future__ import annotations

from ofdmasched.phy import PhyProfile, configuration_index, root_tones, tx_duration
from ofdmasched.scheduling import Batch, Schedule, conflicts
from ofdmasched.workload import JobSet

__all__ = ["validate_schedule"]


def validate_schedule(
    schedule: Schedule | list[Batch],
    jobs: JobSet,
    channel_width: int,
    phy: PhyProfile,
    txop: int,
) -> list[str]:
    """All feasibility violations of a schedule; empty list means feasible."""
    batches = list(schedule.batches) if isinstance(schedule, Schedule) else list(schedule)
    by_id = {j.id: j for j in jobs.jobs}
    budget = root_tones(channel_width)
    violations = []

    for i, b in enumerate(batches):
        t1, t2 = b.interval.start, b.interval.end
        if b.interval.length > txop:
            violations.append(f"txop: batch {i} length {b.interval.length} exceeds {txop}")
        if b.config is not None:
            try:
                if b.config.channel_width != channel_width:
                    raise ValueError("width mismatch")
                configuration_index(b.config)
            except ValueError:
                violations.append(f"configuration: batch {i} uses illegal config {b.config}")
            batch_classes = sorted(m.tone_class for m in b.machines)
            config_classes = sorted(b.config.ru_classes_desc())
            if batch_classes != config_classes:
                violations.append(f"configuration: batch {i} machines disagree with config")
        used = [m for _, m in b.assignments]
        if len(set(used)) != len(used):
            violations.append(f"machine reuse: batch {i} assigns a machine twice")
        active_bw = 0
        for job_id, m_idx in b.assignments:
            if not 0 <= m_idx < len(b.machines):
                violations.append(f"machine index: batch {i} machine {m_idx} out of range")
                continue
            machine = b.machines[m_idx]
            active_bw += machine.bandwidth
            if machine.phy != phy:
                violations.append(f"phy: batch {i} machine {m_idx} runs {machine.phy}, "
                                  f"not the channel's {phy}")
            job = by_id.get(job_id)
            if job is None:
                violations.append(f"unknown job: batch {i} job {job_id}")
                continue
            if job.release > t1:
                violations.append(
                    f"admissibility: batch {i} job {job_id} released {job.release} after start {t1}")
                continue
            p = tx_duration(job.size, machine)
            if t1 + p > min(t2, job.deadline_abs):
                violations.append(
                    f"admissibility: batch {i} job {job_id} finish {t1 + p} "
                    f"misses min(end={t2}, deadline={job.deadline_abs})")
        if active_bw > budget:
            violations.append(f"bandwidth: batch {i} uses {active_bw} tones > {budget}")

    ordered = sorted(range(len(batches)), key=lambda k: batches[k].interval.start)
    for a, b in zip(ordered, ordered[1:]):
        if conflicts(batches[a].interval, batches[b].interval):
            violations.append(f"conflict: batches {a} and {b} overlap")

    seen: dict[int, int] = {}
    for i, b in enumerate(batches):
        for job_id, _ in b.assignments:
            if job_id in seen:
                violations.append(f"job reuse: job {job_id} in batches {seen[job_id]} and {i}")
            seen[job_id] = i
    return violations
