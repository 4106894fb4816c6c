import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ofdmasched

SRC = Path(__file__).resolve().parents[1] / "src"

# Blocking scipy in sys.modules makes any import of it raise ImportError.
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
import ofdmasched
from ofdmasched import PhyProfile, load_use_case, lsds_run, validate_schedule
from ofdmasched.phy import full_26_tone_configuration
from ofdmasched.simulator import best_effort_overlay, generate_best_effort
from ofdmasched.slotted import SlottedApp, slotted_schedule

phy = PhyProfile()
jobs = load_use_case("UC4", 20_000, seed=1)
schedule, _ = lsds_run(jobs, 40, phy)
assert validate_schedule(schedule, jobs, 40, phy, 4_000) == []
packets = generate_best_effort(20.0, jobs.horizon, seed=1)
_, satisfaction, _ = best_effort_overlay(schedule, jobs, packets, 40, phy)
assert satisfaction > 0
apps = [SlottedApp("a", 2, 100, 1, 3.0, 20), SlottedApp("b", 3, 200, 1, 1.0, 10)]
slotted, _ = slotted_schedule(apps, full_26_tone_configuration(40), 12, window_n=None)
assert slotted.total_profit > 0
assert "scipy.optimize" not in sys.modules
assert "multiprocessing" not in sys.modules  # only a worker pool imports it
"""


# Importing the package and enumerating configurations, as a fresh process
# does before its first schedule, loads no scheduler-side submodule.
LAZY_IMPORT = """
import sys
import ofdmasched
from ofdmasched.phy import enumerate_configurations
from ofdmasched import Job, PhyProfile, Schedule
assert len(enumerate_configurations(160)) == 1827
heavy = {"statistics", *(f"ofdmasched.{m}" for m in
         ("experiment", "simulator", "local_search", "benchmarks", "slotted"))}
assert not heavy & set(sys.modules), sorted(heavy & set(sys.modules))
"""


def test_import_loads_no_scheduler_side_module():
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_exports_are_their_home_modules_objects():
    modules = [importlib.import_module(f"ofdmasched.{m.name}")
               for m in pkgutil.iter_modules(ofdmasched.__path__)]
    listing = dir(ofdmasched)
    for name in ofdmasched.__all__:
        homes = [m for m in modules if name in getattr(m, "__all__", ())]
        assert len(homes) == 1, name
        assert getattr(ofdmasched, name) is getattr(homes[0], name), name
        assert name in listing
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ofdmasched.no_such_name


def test_schedulers_run_without_scipy():
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_oracles_are_not_in_the_package():
    # the Hungarian and brute-force oracles live in tests/oracles
    for module in ("ofdmasched.matching", "ofdmasched.exhaustive"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    assert not hasattr(ofdmasched, "brute_force_optimal")


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(ofdmasched.__path__)])
def test_every_export_exists(name):
    module = importlib.import_module(f"ofdmasched.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
