"""Deadline-aware uplink OFDMA scheduling: schedulers, simulator, CLI."""

from .phy import (
    Machine,
    PhyProfile,
    RuConfiguration,
    RuToneClass,
    enumerate_configurations,
    tx_duration,
)
from .workload import ApplicationProfile, Job, JobSet, load_use_case
from .scheduling import Batch, Interval, Schedule
from .local_search import lsds_run, lsdsf_run
from .benchmarks import greedy_benchmark
from .slotted import SlottedApp, slotted_schedule
from .simulator import (
    ChannelScenario,
    SimulationReport,
    best_effort_overlay,
    run_scenario,
    validate_schedule,
)
from .experiment import ExperimentConfig, MetricsRow, compare, run

__version__ = "0.1.0"
