"""Mutants that the test suite must kill.

Each entry of ``MUTANTS`` is one deliberate bug: an exact text of a file
under ``src/`` or ``tests/``, the text that replaces it, and the tests
that must then fail. For each entry the script copies ``src/``,
``tests/`` and ``pytest.ini`` to a temporary directory, applies the edit
there and runs only the named tests. A named test that still passes is a
surviving mutant. An old text that does not occur exactly once is an
error too: the mutant has gone stale and must be rewritten. Before any
mutant runs, the named tests must pass on the unchanged copy.

Usage, from anywhere (stdlib only; pytest is not run on this file):

    python tests/mutants.py

Exits 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
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
           ("tests/test_workload.py::test_job_checks_hold_on_every_constructor",)),
]

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pytest.ini", dest / "pytest.ini")


def _pytest(tree: Path, tests) -> tuple[int, set[str], str]:
    """Run ``tests`` in ``tree``; the exit code, the failed ids and the output."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True, text=True)
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
        survivors = []
        for k, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{k}"
            _copy(tree)
            _apply(tree, mutant)
            code, failed, output = _pytest(tree, mutant.tests)
            alive = [t for t in mutant.tests if not _covers(t, failed)]
            # exit code 1 means tests ran and failed; anything else is not a kill
            if code != 1 or alive:
                survivors.append(mutant.name)
                print(output)
                print(f"SURVIVED {mutant.name}: exit {code}, passing {alive}")
            else:
                print(f"killed   {mutant.name}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - t0:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
