import json
import subprocess
import sys

import pytest

from ofdmasched.cli import main
from ofdmasched.experiment import CSV_HEADER, ExperimentConfig, compare, run
from ofdmasched.phy import PhyProfile
from ofdmasched.scheduling import parse_schedule
from ofdmasched.simulator import scheduler_registry, validate_schedule
from ofdmasched.workload import load_use_case


def drop_runtime(csv_row):
    return csv_row.rsplit(",", 1)[0]


def test_run_writes_all_artifacts(tmp_path):
    out = tmp_path / "exp"
    config = ExperimentConfig("UC4", "lsds", seed=1, horizon_us=50_000,
                              out_dir=str(out))
    row = run(config)
    assert row.profit_ratio == 1.0
    for name in ("jobs.txt", "schedule.txt", "report.json", "metrics.csv"):
        assert (out / name).exists()
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    js = load_use_case("UC4", 50_000, seed=1)
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["use_case"] == "UC4"
    assert len(report["delivered"]) + len(report["dropped"]) == len(js)

    # schedule round-trips through the text format and still validates
    schedule = parse_schedule((out / "schedule.txt").read_text(),
                              {j.id: j.profit for j in js.jobs}, 40, PhyProfile())
    assert validate_schedule(schedule, js, 40, PhyProfile(), 4_000) == []


def test_same_seed_rows_identical_except_runtime(tmp_path):
    config = ExperimentConfig("UC4", "edf", seed=7, horizon_us=50_000)
    a = run(config)
    b = run(config)
    assert drop_runtime(a.csv()) == drop_runtime(b.csv())


def test_uc3_refused_at_40mhz_without_force():
    with pytest.raises(ValueError, match="cannot handle this much load"):
        ExperimentConfig("UC3", "lsds", bandwidth_mhz=40).validate()
    ExperimentConfig("UC3", "lsds", bandwidth_mhz=40, force=True).validate()
    ExperimentConfig("UC3", "lsds", bandwidth_mhz=160).validate()


def test_compare_lsds_dominates_edf_on_uc4():
    configs = [
        ExperimentConfig("UC4", "lsds", seed=2, horizon_us=50_000),
        ExperimentConfig("UC4", "edf", seed=2, horizon_us=50_000),
    ]
    table, rows = compare(configs)
    assert rows[0].profit_ratio >= rows[1].profit_ratio
    assert "lsds" in table and "edf" in table


def test_compare_rejects_mismatched_workloads():
    with pytest.raises(ValueError, match="share"):
        compare([
            ExperimentConfig("UC4", "lsds", seed=1),
            ExperimentConfig("UC2", "edf", seed=1),
        ])
    with pytest.raises(ValueError, match="at least two"):
        compare([ExperimentConfig("UC4", "lsds", seed=1)])


def test_compare_same_scheduler_twice_gives_identical_rows():
    configs = [ExperimentConfig("UC4", "lrf", seed=3, horizon_us=50_000)] * 2
    _, rows = compare(configs)
    assert drop_runtime(rows[0].csv()) == drop_runtime(rows[1].csv())


def test_reps_aggregate_in_report(tmp_path):
    out = tmp_path / "reps"
    config = ExperimentConfig("UC4", "edf", seed=1, horizon_us=50_000,
                              reps=3, out_dir=str(out))
    run(config)
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 4  # header + one row per repetition
    report = json.loads((out / "report.json").read_text())
    agg = report["aggregate"]
    assert 0 <= agg["profit_ratio_mean"] <= 1
    assert agg["profit_ratio_ci95"] >= 0


def test_slotted_scheduler_on_real_use_case_names_the_stage():
    # the slotted schedulers are library functions: no use case is slot-aligned
    config = ExperimentConfig("UC2", "slotted_optimal", horizon_us=20_000)
    with pytest.raises(ValueError, match="unknown scheduler slotted_optimal"):
        run(config)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--use-case", "UC2", "--scheduler", "slotted_optimal"])
    assert exc.value.code == 2
    assert main(["compare", "--use-case", "UC2", "--schedulers", "edf,slotted_optimal",
                 "--horizon-us", "20000"]) == 2


def test_cli_scheduler_choices_are_the_registry(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    usage = capsys.readouterr().out
    choices = usage.split("--scheduler {", 1)[1].split("}", 1)[0].split(",")
    assert choices == list(scheduler_registry())


@pytest.mark.parametrize("grid_us", [0, -16])
def test_cli_rejects_non_positive_grid(grid_us, capsys):
    assert main(["run", "--use-case", "UC4", "--scheduler", "lsds",
                 "--horizon-us", "20000", "--grid-us", str(grid_us)]) == 2
    assert "grid_us must be positive" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path):
    assert main(["run", "--use-case", "UC4", "--scheduler", "edf",
                 "--horizon-us", "20000", "--seed", "1"]) == 0
    assert main(["run", "--use-case", "UC3", "--scheduler", "edf",
                 "--seed", "1"]) == 2


@pytest.mark.parametrize("scheduler", ["lsds", "lsdsf"])
def test_cli_rejects_horizon_under_one_grid_step(tmp_path, capsys, scheduler):
    # the default grid at MCS 11 is 112 us; a configuration error exits 2
    # before any stage runs, so nothing is written
    assert main(["run", "--use-case", "UC4", "--scheduler", scheduler,
                 "--horizon-us", "100", "--out-dir", str(tmp_path / "out")]) == 2
    assert "horizon 100 us is shorter than one grid step of 112 us" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # an explicit grid is the one checked
    assert main(["run", "--use-case", "UC4", "--scheduler", scheduler, "--horizon-us", "150",
                 "--grid-us", "200"]) == 2
    assert "horizon 150 us is shorter than one grid step of 200 us" in capsys.readouterr().err
    assert main(["run", "--use-case", "UC4", "--scheduler", scheduler, "--horizon-us", "100",
                 "--grid-us", "50", "--out-dir", str(tmp_path / "fine")]) == 0


@pytest.mark.parametrize("scheduler", ["lsds", "lsdsf"])
def test_cli_rejects_txop_under_one_grid_step(tmp_path, capsys, scheduler):
    # like the horizon: a TXOP that holds no grid step is a configuration
    # error (exit 2), not a failed scheduler stage (exit 1)
    assert main(["run", "--use-case", "UC4", "--scheduler", scheduler, "--horizon-us", "20000",
                 "--txop-us", "10", "--out-dir", str(tmp_path / "out")]) == 2
    assert "txop 10 us is shorter than one grid step of 112 us" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["run", "--use-case", "UC4", "--scheduler", scheduler, "--horizon-us", "20000",
                 "--txop-us", "150", "--grid-us", "200"]) == 2
    assert "txop 150 us is shorter than one grid step of 200 us" in capsys.readouterr().err
    # the round schedulers have no grid: a 50 us TXOP holds small packets
    assert main(["run", "--use-case", "UC4", "--scheduler", "edf", "--horizon-us", "20000",
                 "--txop-us", "50", "--out-dir", str(tmp_path / "edf")]) == 0
    row = (tmp_path / "edf" / "metrics.csv").read_text().splitlines()[1].split(",")
    assert float(row[CSV_HEADER.split(",").index("profit_ratio")]) > 0


def test_cli_horizon_under_one_grid_step_runs_the_round_schedulers(tmp_path):
    assert main(["run", "--use-case", "UC4", "--scheduler", "edf",
                 "--horizon-us", "100", "--out-dir", str(tmp_path)]) == 0


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"use_case": "UC4", "scheduler": "edf",
                               "horizon_us": 20_000, "seed": 5}))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--scheduler", "lrf",
                 "--out-dir", str(out)])
    assert code == 0
    row = (out / "metrics.csv").read_text().splitlines()[1]
    assert row.split(",")[1] == "lrf"  # flag beat the file


def test_cli_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ofdmasched.cli", "compare", "--use-case", "UC4",
         "--schedulers", "edf,lrf", "--horizon-us", "20000", "--seed", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "scheduler" in proc.stdout


def test_reps_fan_out_across_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("DPMSS_THREADS", "2")
    out = tmp_path / "par"
    config = ExperimentConfig("UC4", "lrf", seed=1, horizon_us=20_000,
                              reps=3, out_dir=str(out))
    run(config)
    monkeypatch.setenv("DPMSS_THREADS", "1")
    out2 = tmp_path / "seq"
    run(ExperimentConfig("UC4", "lrf", seed=1, horizon_us=20_000,
                         reps=3, out_dir=str(out2)))
    parallel = [drop_runtime(r) for r in (out / "metrics.csv").read_text().splitlines()[1:]]
    serial = [drop_runtime(r) for r in (out2 / "metrics.csv").read_text().splitlines()[1:]]
    assert parallel == serial
