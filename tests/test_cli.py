import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmasched import experiment
from ofdmasched.cli import main
from ofdmasched.experiment import CSV_HEADER, ExperimentConfig, compare, run
from ofdmasched.phy import PhyProfile
from ofdmasched.phy import CHANNEL_WIDTHS
from ofdmasched.scheduling import dump_schedule, parse_schedule
from ofdmasched.simulator import (CHANNEL_QUALITIES, SCHEDULERS, ChannelScenario,
                                  run_scenario, validate_schedule)
from ofdmasched.workload import USE_CASES, load_use_case


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
    # the echo's keys, in order; out_dir and force are left out
    assert list(report["config"].items()) == [
        ("use_case", "UC4"), ("scheduler", "lsds"), ("bandwidth_mhz", 40), ("channel", "ideal"),
        ("seed", 1), ("horizon_us", 50_000), ("txop_us", 4_000), ("grid_us", None), ("reps", 1)]
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
    # the refusal names the configured width, at every width below 160 MHz
    for width in (20, 40, 80):
        with pytest.raises(ValueError, match=f"A bandwidth of {width} MHz cannot handle "
                                             "this much load"):
            ExperimentConfig("UC3", "lsds", bandwidth_mhz=width).validate()
        ExperimentConfig("UC3", "lsds", bandwidth_mhz=width, force=True).validate()
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
    assert choices == list(SCHEDULERS)


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


@pytest.mark.parametrize("scheduler", ["edf", "lrf", "nlrf"])
def test_cli_rejects_txop_under_one_symbol(tmp_path, capsys, scheduler):
    assert main(["run", "--use-case", "UC4", "--scheduler", scheduler, "--horizon-us", "20000",
                 "--txop-us", "10", "--out-dir", str(tmp_path / "out")]) == 2
    assert "txop 10 us is shorter than one OFDM symbol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_failed_scheduler_stage_names_the_scheduler_once():
    # validate would refuse this TXOP; the stage still wraps the engine's own message
    config = ExperimentConfig("UC4", "lsdsf", horizon_us=20_000, txop_us=10, grid_us=1)
    with pytest.raises(RuntimeError) as info:
        experiment._single_run(config, load_use_case("UC4", 20_000, 1))
    assert str(info.value) == ("stage 'scheduler lsdsf' failed: "
                               "txop 10 us is shorter than one OFDM symbol (16000 ns)")


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


@pytest.mark.parametrize("key,value", [("horizon_us", "20000"), ("reps", 2.0), ("seed", 1.5),
                                       ("grid_us", True), ("force", 1), ("seed", True)])
def test_cli_rejects_a_config_value_of_the_wrong_type(tmp_path, capsys, key, value):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"use_case": "UC4", "scheduler": "edf", "horizon_us": 20_000,
                               key: value}))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"error: {key} must be of type " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,message", [
    (None, "error: cannot read config file"),
    ("{", "error: Expecting property name"),
    ("[1]", "error: the config file must hold a JSON object"),
])
def test_cli_rejects_an_unreadable_config_file(tmp_path, capsys, text, message):
    cfg = tmp_path / "exp.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--use-case", "UC4", "--scheduler", "edf"]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_compare_loads_the_job_set_once(monkeypatch):
    configs = [ExperimentConfig("UC4", s, seed=3, horizon_us=20_000)
               for s in ("lsds", "edf", "nlrf")]
    alone = [drop_runtime(run(c).csv()) for c in configs]
    calls = []

    def counting(*args):
        calls.append(args)
        return load_use_case(*args)

    monkeypatch.setattr(experiment, "load_use_case", counting)
    _, rows = compare(configs)
    assert calls == [("UC4", 20_000, 3)]
    assert [drop_runtime(r.csv()) for r in rows] == alone


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


def test_cli_names_a_bad_thread_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DPMSS_THREADS", "x")
    assert main(["run", "--use-case", "UC4", "--scheduler", "edf", "--horizon-us", "20000",
                 "--reps", "2", "--out-dir", str(tmp_path / "out")]) == 2
    assert "DPMSS_THREADS must be an integer, got 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("text,where", [
    ("0 0 100 0 1 0\n0 0 100 0 2\n", "line 2: '0 0 100 0 2': not enough values to unpack"),
    ("0 0 100 0 1 0 7\n", "line 1: '0 0 100 0 1 0 7': too many values to unpack"),
    ("# header\n0 0 1OO 0 1 0\n", "line 2: '0 0 1OO 0 1 0': invalid literal"),
    ("0 0 10 0 5 0\n", "line 1: '0 0 10 0 5 0': job 5 is not in the job set"),
    ("0 0 10 999 1 0\n",
     "line 1: '0 0 10 999 1 0': configuration 999 is not in the 40 MHz table"),
    ("0 0 10 -1 1 0\n",
     "line 1: '0 0 10 -1 1 0': configuration -1 is not in the 40 MHz table"),
    ("0 0 10 0 1 0\n0 5 20 3 2 1\n",
     "line 2: '0 5 20 3 2 1': batch 0 is [0, 10] on configuration 0 at line 1"),
    ("0 0 10 3 1 0\n0 0 10 4 2 1\n",
     "line 2: '0 0 10 4 2 1': batch 0 is [0, 10] on configuration 3 at line 1"),
    ("0 0 10 0 1 99\n", "line 1: '0 0 10 0 1 99': machine 99 is not among the 1 machines"),
    ("0 0 10 0 1 -1\n", "line 1: '0 0 10 0 1 -1': machine -1 is not among the 1 machines"),
    ("0 10 10 0 1 0\n", "line 1: '0 10 10 0 1 0': empty interval [10, 10]"),
    ("0 20 10 0 1 0\n", "line 1: '0 20 10 0 1 0': empty interval [20, 10]"),
])
def test_parse_schedule_names_the_bad_line(text, where):
    with pytest.raises(ValueError) as info:
        parse_schedule(text, {1: 1.0, 2: 1.0}, 40, PhyProfile())
    assert str(info.value).startswith(where)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_every_dumped_schedule_parses_back(scheduler):
    jobs = load_use_case("UC2", 10_000, seed=1)
    _, schedule = run_scenario(jobs, scheduler, ChannelScenario("ideal"), 40)
    text = dump_schedule(schedule)
    back = parse_schedule(text, {j.id: j.profit for j in jobs.jobs}, 40, PhyProfile())
    assert dump_schedule(back) == text


# values of every JSON type, for keys that expect another
_ANY_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2), st.floats(allow_nan=True),
    st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1))

# per key, valid values in ranges that run fast, and values of the right
# type that are out of range (None where every value of the type is valid)
_CONFIG_VALUES = {
    "use_case": (st.sampled_from(USE_CASES), st.sampled_from(["UC9", "uc4", ""])),
    "scheduler": (st.sampled_from(tuple(SCHEDULERS)),
                  st.sampled_from(["slotted_optimal", "EDF"])),
    "bandwidth_mhz": (st.sampled_from(CHANNEL_WIDTHS), st.sampled_from([0, -40, 30])),
    "channel": (st.sampled_from(CHANNEL_QUALITIES), st.just("bad")),
    "seed": (st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70)), None),
    "horizon_us": (st.integers(1, 5_000), st.sampled_from([0, -1, -100])),
    "txop_us": (st.integers(1, 8_000), st.sampled_from([0, -1, -100])),
    "grid_us": (st.one_of(st.none(), st.integers(16, 2_000)), st.sampled_from([0, -1, -16])),
    "reps": (st.integers(1, 2), st.sampled_from([0, -1])),
    "out_dir": (st.sampled_from(["out", "a/b"]), None),
    "force": (st.booleans(), None),
}


@st.composite
def config_dicts(draw):
    """``run --config`` contents: valid values for the required keys, the
    horizon and some others, then up to two keys dropped, out of range or
    of any JSON type, and now and then an unknown key. The horizon is never
    dropped: its default takes seconds to run."""
    config = {key: draw(valid) for key, (valid, _) in _CONFIG_VALUES.items()
              if key in ("use_case", "scheduler", "horizon_us") or draw(st.booleans())}
    # a permutation spreads the spoiled keys evenly
    for key in draw(st.permutations(list(_CONFIG_VALUES)))[:draw(st.integers(0, 2))]:
        how = draw(st.sampled_from(["out of range", "absent", "any"]))
        out_of_range = _CONFIG_VALUES[key][1]
        if how == "absent" and key != "horizon_us":
            config.pop(key, None)
        elif how == "out of range" and out_of_range is not None:
            config[key] = draw(out_of_range)
        elif how == "any":
            config[key] = draw(_ANY_JSON)
    unknown = draw(st.sampled_from([None] * 36 + ["horizon", "Seed", "", "bandwidth"]))
    if unknown is not None:
        config[unknown] = draw(_ANY_JSON)
    return config


@settings(max_examples=200, deadline=None)
@given(config=config_dicts())
def test_cli_config_files_exit_0_or_2_with_an_error(config):
    # exit 1 is kept for a stage that fails on valid settings, so anything
    # a config file can say is run or refused with exit 2; main runs in this
    # process, where an exception it lets out fails the test with the
    # traceback a shell would show
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(config.get("out_dir"), str):
            config["out_dir"] = os.path.join(tmp, config["out_dir"])
        path = os.path.join(tmp, "exp.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", path])
    stderr = err.getvalue()
    assert "Traceback" not in stderr
    assert code == 0 or (code == 2 and stderr.startswith("error:")), (config, code, stderr)
