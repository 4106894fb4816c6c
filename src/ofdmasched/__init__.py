"""Deadline-aware uplink OFDMA scheduling: schedulers, simulator, CLI.

Exports load on first use: ``import ofdmasched`` imports no submodule.
"""

import importlib

_HOMES = {  # submodule -> the names exported from it
    "phy": "Machine PhyProfile RuConfiguration RuToneClass enumerate_configurations tx_duration",
    "workload": "ApplicationProfile Job JobSet load_use_case",
    "scheduling": "Batch Interval Schedule",
    "local_search": "lsds_run lsdsf_run",
    "benchmarks": "greedy_benchmark",
    "slotted": "SlottedApp slotted_schedule",
    "simulator": "ChannelScenario SimulationReport best_effort_overlay run_scenario validate_schedule",
    "experiment": "ExperimentConfig MetricsRow compare run",
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
