"""Mutants that the test suite must kill.

Each entry of ``MUTANTS`` is one deliberate bug: an exact text of a file
under ``src/`` or ``tests/``, the text that replaces it, and the tests
that must then fail. For each entry the script copies ``src/``,
``tests/`` and ``pytest.ini`` to a temporary directory, applies the edit
there and runs only the named tests; the mutants run concurrently, one
per CPU, and are reported in table order. A named test that still passes
is a surviving mutant. An old text that does not occur exactly once is an
error too: the mutant has gone stale and must be rewritten. Before any
mutant runs, the named tests must pass on the unchanged copy. A pytest
run that takes longer than ``TIMEOUT_S`` is stopped and reported as
``TIMEOUT``, a failure of its own: a mutant that hangs is not a kill.

Usage, from anywhere (stdlib only; pytest is not run on this file):

    python tests/mutants.py

Exits 0 when every mutant is killed, 1 otherwise (a survivor, a timeout or
a stale mutant).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str   # must occur exactly once
    new: str
    tests: tuple[str, ...]  # pytest ids; a bare function id covers all its parameters


ESCALATE = ("tests/test_simulator.py::"
            "test_overlay_escalates_each_arrived_packet_once_per_factory_batch")
LAST_FREE_RU = ("tests/test_simulator.py::"
                "test_overlay_gives_the_last_free_ru_to_the_escalated_packet")
FREE_RUS = "tests/test_simulator.py::test_overlay_admits_best_effort_on_free_rus"
POOL_ORDER = "tests/test_local_search.py::test_pool_remove_and_add_keep_release_order"
JOB_CHECKS = "tests/test_workload.py::test_job_checks_hold_on_every_constructor"
SCORER = "tests/test_benchmarks.py::test_rounds_match_the_matrix_scorer"
LSDSF_TRAJECTORY = "tests/test_local_search.py::test_lsdsf_follows_reference_trajectory"
IDLE = ("tests/test_local_search.py::test_screens_drop_only_starts_the_exact_test_rejects",
        LSDSF_TRAJECTORY)
EXPORTS = ("tests/test_runtime_deps.py::test_package_exports_are_their_home_modules_objects",
           "tests/test_runtime_deps.py::test_import_loads_no_scheduler_side_module")

# Documented equivalents, kept out of the table because no test can kill them:
# - ``_scan``'s ``value1 <= 2.0 * conflict_w`` to ``<``: the configuration
#   check after it rejects the same intervals, so only counters move.
# - ``fill_gap`` handing ``waiting`` instead of ``waiting[:n]`` to
#   ``lsds_config_search``: ``pick_jobs`` skips packets not yet released.

MUTANTS = [
    Mutant("overlay skips escalation", "src/ofdmasched/simulator.py",
           "escalate_profit(j.profit, top), j.size", "j.profit, j.size",
           (ESCALATE, LAST_FREE_RU)),
    Mutant("overlay escalates packets not yet arrived", "src/ofdmasched/simulator.py",
           "        n = arrived(start)\n", "        n = len(waiting)\n",
           (ESCALATE, LAST_FREE_RU)),
    Mutant("overlay escalates twice per batch", "src/ofdmasched/simulator.py",
           "escalate_profit(j.profit, top)", "escalate_profit(escalate_profit(j.profit, top), top)",
           (ESCALATE,)),
    Mutant("pool puts members back after equal releases", "src/ofdmasched/local_search.py",
           "pos = self.releases.searchsorted(releases).tolist()",
           'pos = self.releases.searchsorted(releases, side="right").tolist()',
           ("tests/test_local_search.py::test_pool_remove_and_add_keep_release_order",)),
    Mutant("Job drops its release check", "src/ofdmasched/workload.py",
           "        if release >= deadline_abs:\n"
           "            raise ValueError(f\"job {id}: release {release} >= deadline {deadline_abs}\")\n",
           "",
           (JOB_CHECKS,)),
    Mutant("pool inserts ids first-first", "src/ofdmasched/local_search.py",
           "zip(reversed(pos), reversed(ids))", "zip(pos, ids)", (POOL_ORDER,)),
    Mutant("pool walks spans unsorted", "src/ofdmasched/local_search.py",
           "sorted(spans, reverse=True)", "spans", (POOL_ORDER,)),
    Mutant("evicted slices go back last first", "src/ofdmasched/local_search.py",
           "for g, releases, ids, _ in taken:", "for g, releases, ids, _ in reversed(taken):",
           ("tests/test_local_search.py::test_evicted_slices_go_back_in_the_order_taken",)),
    Mutant("sweep bound one grid step short", "src/ofdmasched/local_search.py",
           "length = l_units * g", "length = (l_units - 1) * g",
           ("tests/test_local_search.py::test_engine_matches_reference_lsdsf_trajectory",)),
    Mutant("sweep without its rounding margin", "src/ofdmasched/local_search.py",
           "np.nonzero(self._may_beat(bound, t1v, t2v))",
           "np.nonzero(bound > 2.0 * self._conflict_weight_vector(t1v, t2v))",
           (LSDSF_TRAJECTORY,)),
    Mutant("skip ignores evictions", "src/ofdmasched/local_search.py",
           "self.stats.restarts += 1\n                    evicted = True\n",
           "self.stats.restarts += 1\n", (LSDSF_TRAJECTORY,)),
    Mutant("fit lengths from the fastest class only", "src/ofdmasched/local_search.py",
           "for d in g.durations}", "for d in g.durations[-1:]}",
           (LSDSF_TRAJECTORY,
            "tests/test_local_search.py::test_skipped_lengths_keep_the_trajectory")),
    Mutant("re-screen without its margin", "src/ofdmasched/local_search.py",
           "if bound * (1 + 1e-12) <= 2.0 * conflict_w:", "if bound <= 2.0 * conflict_w:",
           (LSDSF_TRAJECTORY,)),
    Mutant("idle until one grid step past the next release", "src/ofdmasched/local_search.py",
           "return -(-release // self.grid)", "return -(-release // self.grid) + 1", IDLE),
    Mutant("next release from the first fitting group only", "src/ofdmasched/local_search.py",
           "                    release = min(release, int(g.releases[i]))\n",
           "                    release = min(release, int(g.releases[i]))\n"
           "                break\n", IDLE),
    Mutant("conflict sum compensates rounding", "src/ofdmasched/local_search.py",
           "functools.reduce(operator.add, values, 0.0)", '__import__("math").fsum(values)',
           ("tests/test_local_search.py::test_conflict_weight_sums_left_to_right",)),
    Mutant("lsds evicts at an exact tie", "src/ofdmasched/local_search.py",
           "if value <= 2.0 * conflict_w:", "if value < 2.0 * conflict_w:",
           ("tests/test_local_search.py::test_lsds_follows_reference_trajectory",)),
    Mutant("baselines admit a head 16 us late", "src/ofdmasched/benchmarks.py",
           "-min(txop, job.deadline_abs - now)", "-min(txop, job.deadline_abs + 16 - now)",
           ("tests/test_benchmarks.py::test_benchmark_schedules_validate_clean",)),
    Mutant("baseline loop scorer takes the last best group", "src/ofdmasched/benchmarks.py",
           "if total > best:", "if total >= best:", (SCORER,)),
    Mutant("baseline numpy scorer takes the last best group", "src/ofdmasched/benchmarks.py",
           "group = int(np.argmax(round_profit == best))",
           "group = len(round_profit) - 1 - int(np.argmax(round_profit[::-1] == best))",
           (SCORER,)),
    Mutant("Job._make skips __new__", "src/ofdmasched/workload.py",
           "return cls(*iterable)", "return tuple.__new__(cls, iterable)", (JOB_CHECKS,)),
    Mutant("free-RU admission ignores used machines", "src/ofdmasched/simulator.py",
           "free = [i for i in range(len(batch.machines)) if i not in used]",
           "free = list(range(len(batch.machines)))", (FREE_RUS,)),
    Mutant("overlay drops a factory assignment", "src/ofdmasched/simulator.py",
           "tuple(sorted(batch.assignments + extra))", "tuple(sorted(extra))", (FREE_RUS,)),
    Mutant("overlay leaves idle time from 0 us", "src/ofdmasched/simulator.py",
           "cursor = -1", "cursor = 0",
           ("tests/test_simulator.py::test_overlay_fills_idle_time_from_zero",)),
    Mutant("validator rejects a job ending at its batch end", "src/ofdmasched/simulator.py",
           "t1 + p > t2", "t1 + p >= t2",
           ("tests/test_simulator.py::test_run_scenario_conservation_and_registry",)),
    Mutant("packed count fields 6 bits wide", "src/ofdmasched/phy.py",
           "_FIELD_BITS = 7", "_FIELD_BITS = 6",
           ("tests/test_phy.py::test_enumerate_matches_brute_force_all_widths",)),
    Mutant("Job exported from scheduling", "src/ofdmasched/__init__.py",
           '"ApplicationProfile Job JobSet load_use_case",\n    "scheduling": "Batch ',
           '"ApplicationProfile JobSet load_use_case",\n    "scheduling": "Job Batch ',
           EXPORTS),
]

# seconds one pytest run may take: a mutant that makes a scheduler loop
# forever is a failure of its own, not a kill, and must not hold CI
TIMEOUT_S = 300

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pytest.ini", dest / "pytest.ini")


def _pytest(tree: Path, tests) -> tuple[int | None, set[str], str]:
    """Run ``tests`` in ``tree``; the exit code (None if they ran past
    ``TIMEOUT_S``), the failed ids and the output."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                               "no:cacheprovider", *tests], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, set(), f"TIMEOUT after {TIMEOUT_S} s: {' '.join(tests)}"
    return proc.returncode, set(_FAILED.findall(proc.stdout)), proc.stdout + proc.stderr


def _covers(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"stale mutant {mutant.name!r}: its old text occurs {count} times "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _run_mutant(tmp: Path, k: int) -> tuple[int | None, set[str], str]:
    """Copy the tree, apply mutant ``k`` and run its tests."""
    tree = tmp / f"mutant{k}"
    _copy(tree)
    _apply(tree, MUTANTS[k])
    return _pytest(tree, MUTANTS[k].tests)


def main() -> int:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        named = sorted({t for m in MUTANTS for t in m.tests})
        code, failed, output = _pytest(clean, named)
        if code != 0:
            print(output)
            print(f"the named tests do not pass unmutated: {sorted(failed)}")
            return 1
        survivors, timeouts = [], []
        # each worker waits on its own pytest process
        with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
            results = pool.map(partial(_run_mutant, Path(tmp)), range(len(MUTANTS)))
            for mutant, (code, failed, output) in zip(MUTANTS, results):
                alive = [t for t in mutant.tests if not _covers(t, failed)]
                if code is None:
                    timeouts.append(mutant.name)
                    print(f"TIMEOUT  {mutant.name}: its tests ran past {TIMEOUT_S} s")
                # exit code 1 means tests ran and failed; anything else is not a kill
                elif code != 1 or alive:
                    survivors.append(mutant.name)
                    print(output)
                    print(f"SURVIVED {mutant.name}: exit {code}, passing {alive}")
                else:
                    print(f"killed   {mutant.name}")
    killed = len(MUTANTS) - len(survivors) - len(timeouts)
    print(f"{killed} of {len(MUTANTS)} mutants killed, {len(timeouts)} timed out, "
          f"in {time.perf_counter() - t0:.1f} s")
    return 1 if survivors or timeouts else 0


if __name__ == "__main__":
    sys.exit(main())
