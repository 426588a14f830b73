"""Config parsing, CSV/plot emission, selftest, and the exit-code contract."""

import argparse
import dataclasses
import re
from pathlib import Path

import pytest

from locatesim import cli
from locatesim.cli import (AGG_HEADER, KNOWN_KEYS, PARAM_KEYS, RADIO_KEYS, RUNS_HEADER,
                           SCENARIO_KEYS, aggregate_csv_lines, build_parser,
                           build_settings, format_real, main, parse_config_file,
                           plot_script, runs_csv_lines, scenario_from_settings,
                           selftest_report, sweep_plan, write_outputs)
from locatesim.experiments import THREADS_ENV, ScenarioConfig, SweepRow, run_batch
from locatesim.protocol import ProtocolParams
from locatesim.radio import UNIT_DISK, RadioProfile, wifi_profile


def test_format_real_keeps_six_significant_digits():
    assert format_real(12.5) == "12.5000"
    assert format_real(0.15) == "0.150000"
    assert format_real(1234567.0) == "1.23457e+06"
    assert format_real(0.0) == "0.00000"


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([
        "# sparse point",
        "n = 40",
        "tau = 0.15   # fraction",
        "",
        "protocol = locate",
    ]))
    assert parse_config_file(cfg) == {"n": "40", "tau": "0.15", "protocol": "locate"}


def test_parse_config_file_rejects_bad_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n 40\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        parse_config_file(cfg)
    with pytest.raises(ValueError, match="cannot read"):
        parse_config_file(tmp_path / "missing.cfg")


def test_unknown_config_keys_are_named(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\nspeed = 9\n")
    ns = argparse.Namespace(config=str(cfg))
    with pytest.raises(ValueError, match="speed"):
        build_settings(ns)


def test_flags_override_config_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\ntau = 0.5\nprotocol = flooding\n")
    ns = argparse.Namespace(config=str(cfg), protocol="locate", n=None, tau=None,
                            runs=7, seed=None, horizon=None, radio=None,
                            p_start=None, out=None, sweep_axis=None,
                            sweep_values=None, protocols=None)
    settings = build_settings(ns)
    assert settings["protocol"] == "locate"  # flag wins
    assert settings["tau"] == "0.5"  # file value survives
    assert settings["runs"] == "7"


def test_scenario_requires_node_count_and_solver_fraction():
    with pytest.raises(ValueError, match="`n`"):
        scenario_from_settings({"tau": "0.15"})
    with pytest.raises(ValueError, match="`tau`"):
        scenario_from_settings({"n": "40"})


def test_scenario_builds_with_overrides():
    cfg = scenario_from_settings({
        "n": "25", "tau": "0.2", "protocol": "probabilistic", "runs": "12",
        "seed": "9", "horizon": "3600", "side": "2000",
        "radio": "wifi", "radio_range": "150", "radio_pdr_model": "smooth",
        "radio_beta": "2", "radio_interference": "collision",
        "cw_min": "4", "cw_max": "16", "gamma": "0.004", "radius": "400",
        "dtn_dist": "30", "p_start": "0.5", "q_flood": "0.3",
        "ttl_init": "8", "e_thr": "900",
    })
    assert (cfg.n, cfg.tau, cfg.protocol, cfg.runs, cfg.base_seed) == (25, 0.2, "probabilistic", 12, 9)
    assert (cfg.side_m, cfg.horizon_s) == (2000.0, 3600.0)
    assert (cfg.radio.range_m, cfg.radio.pdr_model, cfg.radio.beta) == (150.0, "smooth", 2.0)
    assert cfg.radio.interference == "collision"
    p = cfg.params
    assert (p.cw_min_s, p.cw_max_s, p.gamma_per_m, p.radius_m) == (4.0, 16.0, 0.004, 400.0)
    assert (p.dtn_dist_m, p.p_start, p.q_flood, p.ttl_init, p.e_thr_s) == (30.0, 0.5, 0.3, 8, 900.0)


def test_scenario_rejects_bad_values():
    base = {"n": "10", "tau": "0.15"}
    with pytest.raises(ValueError, match="n: expected an integer"):
        scenario_from_settings({**base, "n": "ten"})
    with pytest.raises(ValueError, match="radio"):
        scenario_from_settings({**base, "radio": "zigbee"})
    with pytest.raises(ValueError, match="radio_pdr_model"):
        scenario_from_settings({**base, "radio_pdr_model": "cliff"})
    with pytest.raises(ValueError, match="radio_interference"):
        scenario_from_settings({**base, "radio_interference": "capture"})
    with pytest.raises(ValueError):  # the domain error itself reaches main
        scenario_from_settings({**base, "tau": "1.5"})
    with pytest.raises(ValueError):
        scenario_from_settings({**base, "cw_min": "30"})
    with pytest.raises(ValueError, match="arena side"):
        scenario_from_settings({**base, "side": "0"})
    with pytest.raises(ValueError, match="thaw displacement"):
        scenario_from_settings({**base, "dtn_dist": "0"})
    for q in ("0", "1.5"):
        with pytest.raises(ValueError, match="q_flood"):
            scenario_from_settings({**base, "q_flood": q})


def test_every_config_field_has_a_key():
    tables = ((SCENARIO_KEYS, ScenarioConfig, {"radio", "params"}),
              (RADIO_KEYS, RadioProfile, set()), (PARAM_KEYS, ProtocolParams, set()))
    for table, cls, nested in tables:
        types = {f.name: f.type for f in dataclasses.fields(cls) if f.name not in nested}
        assert {fld: kind.__name__ for fld, kind in table.values()} == types
    # build_settings takes every flag's dest as its config key
    assert set(vars(build_parser().parse_args(["sweep"]))) - {"command", "config"} <= KNOWN_KEYS


def test_unset_keys_take_the_library_defaults():
    assert scenario_from_settings({"n": "40", "tau": "0.15"}) == ScenarioConfig(n=40, tau=0.15)
    assert (scenario_from_settings({"n": "40", "tau": "0.15", "radio": "wifi"})
            == ScenarioConfig(n=40, tau=0.15, radio=wifi_profile()))


def test_readme_lists_the_config_keys_with_the_library_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n### ", 1)[0]
    documented = dict(re.findall(r"^\| `(\w+)` \| ([^|]*)\|", section, re.M))
    assert set(documented) == KNOWN_KEYS
    library = scenario_from_settings({"n": "1", "tau": "0"})
    for table, obj in ((SCENARIO_KEYS, library), (RADIO_KEYS, library.radio),
                       (PARAM_KEYS, library.params)):
        for key, (fld, kind) in table.items():
            if key not in ("n", "tau"):  # required, so the README gives no default
                default = re.match(r"`([^`]*)`", documented[key]).group(1)
                assert kind(default) == getattr(obj, fld), key


def test_sweep_plan_parses_axis_values_and_protocols():
    axis, values, names = sweep_plan({
        "sweep_axis": "tau", "sweep_values": "0.05, 0.1,0.15",
        "protocols": "locate, flooding",
    })
    assert axis == "tau"
    assert values == [0.05, 0.1, 0.15]
    assert names == ["locate", "flooding"]
    # sweep_plan only parses: the axis and the protocol names are checked by main
    assert sweep_plan({"sweep_axis": "side", "sweep_values": "1", "protocols": "gossip"}) \
        == ("side", [1.0], ["gossip"])
    with pytest.raises(ValueError, match="sweep_values"):
        sweep_plan({"sweep_axis": "tau"})
    with pytest.raises(ValueError, match="sweep_values"):
        sweep_plan({"sweep_axis": "tau", "sweep_values": "a,b"})


@pytest.fixture
def tiny_row(monkeypatch):
    cfg = ScenarioConfig(n=3, tau=0.34, side_m=800.0, runs=2, base_seed=4,
                         horizon_s=300.0)
    monkeypatch.setenv(THREADS_ENV, "1")
    results, agg = run_batch(cfg)
    return SweepRow("locate", cfg.n, cfg.tau, cfg.params.p_start, results, agg)


def test_runs_csv_shape(tiny_row):
    lines = runs_csv_lines([tiny_row])
    assert lines[0] == RUNS_HEADER
    assert len(lines) == 3
    for line, idx in zip(lines[1:], (0, 1)):
        fields = line.split(",")
        assert len(fields) == 10
        assert fields[0] == "locate"
        assert (fields[1], fields[2]) == ("3", "0.340000")
        assert int(fields[3]) == idx
        assert int(fields[4]) == 4 ^ idx
        assert fields[5] in ("0", "1")
        if fields[5] == "1":
            assert float(fields[6]) > 0.0
        else:
            assert fields[6] == ""
        assert int(fields[7]) >= 1


def test_aggregate_csv_shape(tiny_row):
    lines = aggregate_csv_lines([tiny_row])
    assert lines[0] == AGG_HEADER
    fields = lines[1].split(",")
    assert len(fields) == 10
    assert fields[0] == "locate"
    assert fields[3] == "0.400000"
    assert fields[4] == "2"
    assert 0.0 <= float(fields[5]) <= 1.0


def test_plot_script_stanzas():
    script = plot_script("tau", ["locate", "flooding"])
    assert script.count("set terminal pngcairo") == 3
    for stem in ("ert_vs_tau.png", "err_vs_tau.png", "eo_vs_tau.png"):
        assert f'set output "{stem}"' in script
    assert script.count('every ::1') == 6  # two series in each of three plots
    assert 'stringcolumn(1) eq "locate"' in script
    assert "yerrorlines" in script and "linespoints" in script
    assert "($6*100)" in script


def test_write_outputs_emits_plot_only_for_sweeps(tmp_path, tiny_row):
    written = write_outputs(tmp_path / "a", [tiny_row])
    assert [p.name for p in written] == ["runs.csv", "aggregate.csv"]
    written = write_outputs(tmp_path / "b", [tiny_row], axis="tau")
    assert [p.name for p in written] == ["runs.csv", "aggregate.csv", "plot.gp"]


def test_selftest_passes():
    ok, lines = selftest_report()
    assert ok
    assert all(line.startswith("ok") for line in lines)


def test_main_selftest_exit_code(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: ok" in out


def test_main_failed_selftest_exits_1(monkeypatch, capsys):
    # one reference check off by 1e-6, past the 1e-9 tolerance; the others still pass
    right = cli.dtn_forward_probability
    monkeypatch.setattr(cli, "dtn_forward_probability",
                        lambda p, heard: right(p, heard) * (1.0 + 1e-6 * (heard == 2)))
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert [line.split(" = ")[0] for line in out.splitlines() if line.startswith("FAIL")] \
        == ["FAIL  dtn_forward_probability(0.4, 2)"]
    assert "selftest: FAILED" in out


RUN_ARGS = ["run", "--protocol", "locate", "--n", "8", "--tau", "0.25",
            "--runs", "5", "--seed", "11", "--horizon", "900"]


def test_main_run_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(RUN_ARGS + ["--out", str(out_dir)]) == 0
    assert (out_dir / "runs.csv").exists()
    assert (out_dir / "aggregate.csv").exists()
    assert not (out_dir / "plot.gp").exists()
    stdout = capsys.readouterr().out
    assert "locate n=8 tau=0.25" in stdout
    assert "wrote" in stdout


def test_main_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(RUN_ARGS + ["--out", str(a)]) == 0
    assert main(RUN_ARGS + ["--out", str(b)]) == 0
    assert (a / "runs.csv").read_bytes() == (b / "runs.csv").read_bytes()
    assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()


def test_the_spec_spelling_unit_disk_gives_the_same_csvs(tmp_path):
    assert RadioProfile(pdr_model="unit-disk") == RadioProfile(pdr_model=UNIT_DISK)
    outputs = []
    for spelling in ("unit_disk", "unit-disk"):
        cfg = tmp_path / f"{spelling}.cfg"
        cfg.write_text(f"n = 8\ntau = 0.25\nruns = 3\nhorizon = 600\n"
                       f"radio_interference = collision\nradio_pdr_model = {spelling}\n")
        out_dir = tmp_path / spelling
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        outputs.append([(out_dir / name).read_bytes() for name in ("runs.csv", "aggregate.csv")])
    assert outputs[0] == outputs[1]


def test_main_sweep_writes_plot_script(tmp_path, capsys):
    out_dir = tmp_path / "sw"
    code = main(["sweep", "--n", "8", "--tau", "0.25", "--runs", "2", "--seed", "3",
                 "--horizon", "600", "--axis", "tau", "--values", "0.1,0.3",
                 "--protocols", "locate,flooding", "--out", str(out_dir)])
    assert code == 0
    gp = (out_dir / "plot.gp").read_text()
    assert 'stringcolumn(1) eq "flooding"' in gp
    agg_lines = (out_dir / "aggregate.csv").read_text().splitlines()
    assert len(agg_lines) == 5  # header + 2 protocols x 2 values
    assert len(capsys.readouterr().out.splitlines()) == 5  # 4 summaries + wrote line


def test_main_bad_config_exits_2(tmp_path, capsys):
    assert main(["run", "--tau", "0.15"]) == 2
    assert "`n`" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("nodes = 4\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "nodes" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_main_non_finite_horizon_exits_2(horizon, capsys):
    assert main(["run", "--n", "5", "--tau", "0.2", "--runs", "1",
                 "--horizon", horizon]) == 2
    assert f"horizon_s {horizon} must be finite" in capsys.readouterr().err


def test_main_non_finite_radio_range_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 5\ntau = 0.2\nruns = 1\nradio_range = nan\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "range_m nan must be finite" in capsys.readouterr().err


def test_main_zero_radio_beta_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 5\ntau = 0.2\nruns = 1\nradio_pdr_model = smooth\nradio_beta = 0\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "beta 0.0 must be positive" in capsys.readouterr().err


def test_main_negative_seed_exits_2(tmp_path, capsys):
    # random.Random seeds with |seed|: run i of base seed -1 would replay run i + 1 of seed 0
    out_dir = tmp_path / "out"
    assert main(RUN_ARGS + ["--seed", "-1", "--out", str(out_dir)]) == 2
    assert "seed -1 must be non-negative" in capsys.readouterr().err
    assert not out_dir.exists()


def no_simulation(points):
    raise AssertionError("simulated a config that should be rejected")


def test_main_sub_metre_side_exits_2_before_simulating(tmp_path, monkeypatch, capsys):
    # legs of a 1e-20 m arena end faster than the clock resolves, so a run would never end
    monkeypatch.setattr("locatesim.cli.sweep", no_simulation)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("side = 1e-20\n")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--n", "2", "--tau", "0", "--runs", "1",
                 "--horizon", "10", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: arena side 1e-20 ")
    assert len(err.splitlines()) == 1
    assert not out_dir.exists()


def test_main_sub_resolution_contention_window_exits_2(tmp_path, monkeypatch, capsys):
    # a 1e-300 s beacon window is below the clock's resolution: the source would beacon
    # at one time forever
    monkeypatch.setattr("locatesim.cli.sweep", no_simulation)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("cw_min = 0\ncw_max = 1e-300\n")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--n", "0", "--tau", "0", "--runs", "1",
                 "--horizon", "10", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horizon 10.0 s exceeds 1e6 contention windows")
    assert len(err.splitlines()) == 1
    assert not out_dir.exists()


def test_main_horizon_past_1e6_poll_periods_exits_2(tmp_path, monkeypatch, capsys):
    # a frozen carrier's poll walks the 1 s lattice to the horizon one addition at a time
    monkeypatch.setattr("locatesim.cli.sweep", no_simulation)
    out_dir = tmp_path / "out"
    assert main(["run", "--n", "5", "--tau", "0.2", "--runs", "1", "--horizon", "2e6",
                 "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horizon 2000000.0 s exceeds 1e6 poll periods (1.0 s)")
    assert len(err.splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("key,value,message", [
    ("sweep_axis", "side", "unknown sweep axis 'side', expected one of ('tau', 'n', 'p_start')"),
    ("protocols", "gossip", "unknown protocol 'gossip', expected one of"),
    ("sweep_axis", None, "missing required setting `sweep_axis`"),  # None leaves it out
    ("sweep_values", None, "missing required setting `sweep_values`"),
])
def test_main_bad_sweep_setting_exits_2_before_simulating(key, value, message, tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.setattr("locatesim.cli.sweep", no_simulation)
    settings = {"n": "5", "tau": "0.2", "runs": "1", "sweep_axis": "tau",
                "sweep_values": "0.1", key: value}
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items() if v is not None))
    out_dir = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("command,flag,key,value", [
    ("run", "--n", "n", "abc"),
    ("run", "--n", "n", ""),  # a config file cannot carry an empty value
    ("run", "--runs", "runs", "1.5"),
    ("run", "--seed", "seed", "x"),
    ("run", "--tau", "tau", "x"),
    ("run", "--p-start", "p_start", "x"),
    ("run", "--horizon", "horizon", "x"),
    ("run", "--protocol", "protocol", "bogus"),
    ("run", "--radio", "radio", "zigbee"),
    ("sweep", "--axis", "sweep_axis", "side"),
    # values that start with `-` but are not plain negative numbers
    ("run", "--horizon", "horizon", "-1e5"),
    ("run", "--tau", "tau", "-inf"),
    ("sweep", "--values", "sweep_values", "-0.1,0.2"),
])
def test_main_bad_flag_exits_2_with_the_config_entry_line(command, flag, key, value, tmp_path,
                                                            monkeypatch, capsys):
    """A flag value is checked by the code that checks the same config file entry, and
    gives its one `error:` line: argparse checks no value."""
    monkeypatch.setattr("locatesim.cli.sweep", no_simulation)
    flags = {"--n": "5", "--tau": "0.2", "--runs": "1", "--horizon": "100"}
    if command == "sweep":
        flags.update({"--axis": "tau", "--values": "0.1"})

    def exit_line(argv, out_dir):
        assert main([command, *argv, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not out_dir.exists()
        return err

    err = exit_line([a for f, v in {**flags, flag: value}.items() for a in (f, v)],
                    tmp_path / "flag")
    if value:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        rest = [a for f, v in flags.items() if f != flag for a in (f, v)]
        assert exit_line(["--config", str(cfg), *rest], tmp_path / "file") == err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_main_run_is_a_one_point_sweep(threads, tmp_path, monkeypatch):
    monkeypatch.setenv("LOCATE_SIM_THREADS", threads)
    run_dir, sweep_dir = tmp_path / "run", tmp_path / "sweep"
    assert main(RUN_ARGS + ["--out", str(run_dir)]) == 0
    assert main(["sweep"] + RUN_ARGS[1:] + ["--axis", "tau", "--values", "0.25",
                                            "--out", str(sweep_dir)]) == 0
    for name in ("runs.csv", "aggregate.csv"):
        assert (run_dir / name).read_bytes() == (sweep_dir / name).read_bytes()


@pytest.mark.parametrize("axis,values,message", [
    ("tau", "0.4,nan", "solver fraction nan outside [0, 1]"),
    ("p_start", "0.4,1.5", "p_start 1.5 outside (0, 1]"),
    ("n", "4,2.5", "node count must be an integer, got 2.5"),
])
def test_main_bad_sweep_value_exits_2_before_simulating(axis, values, message, tmp_path,
                                                          capsys):
    # the bad value comes last, so a sweep that ran points in turn would simulate first
    out_dir = tmp_path / "sw"
    assert main(["sweep", "--n", "5", "--tau", "0.2", "--runs", "1", "--horizon", "100",
                 "--axis", axis, "--values", values, "--out", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("threads", ["many", "-2"])
@pytest.mark.parametrize("command", [
    RUN_ARGS,
    ["sweep", "--n", "5", "--tau", "0.2", "--runs", "1", "--horizon", "100",
     "--axis", "tau", "--values", "0.1,0.3"],
])
def test_main_bad_thread_count_exits_2_before_simulating(command, threads, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.setenv("LOCATE_SIM_THREADS", threads)
    out_dir = tmp_path / "out"
    assert main(command + ["--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: LOCATE_SIM_THREADS ") and threads in err
    assert len(err.splitlines()) == 1
    assert not out_dir.exists()


def test_main_unwritable_output_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(RUN_ARGS + ["--out", str(blocker / "sub")])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err
