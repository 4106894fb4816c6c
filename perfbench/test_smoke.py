"""Smoke test of the benchmark at a tiny horizon.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric ``BENCHMARK.json`` names is printed with its unit,
that the traced run gives the same schedule hashes as the untraced one, and
that the benchmark refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=root, capture_output=True, text=True, timeout=170)


def _hashes(stdout):
    return {line.split()[1]: line.split()[2]
            for line in stdout.splitlines() if line.startswith("sha256 ")}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit_and_tracing_keeps_hashes(workload):
    hashes = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        hashes.append(_hashes(proc.stdout))
    assert hashes[0] and hashes[0] == hashes[1]


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "uc3-160", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
