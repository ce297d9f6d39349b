"""Scenario runner, VCD export and command-line behavior."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import datachan
from datachan.cli import main
from datachan.config import ChannelConfig, config_to_text
from datachan.errors import ConfigError
from datachan.logic import HIGH, LOW, UNKNOWN
from datachan.scenario import (PRESETS, WORK_BUDGET, load_scenario, parse_scenario_text,
                               run_scenario, validate_scenario)
from datachan.vcd import traces_to_vcd
from reference_kernel import traces_from_histories


# --------------------------------------------------------------------------
# VCD export

def _small_traces():
    return traces_from_histories(
        {"Clk": [(0, LOW), (100, HIGH), (200, LOW)], "Q": [(0, UNKNOWN), (130, HIGH)]},
        300,
    )


def test_vcd_structure():
    text = bytes(traces_to_vcd(_small_traces())).decode()
    assert text.startswith("$timescale 1 ps $end\n")
    assert "$var wire 1 ! Clk $end" in text
    assert "$var wire 1 \" Q $end" in text
    assert "$dumpvars" in text
    body = text.split("$enddefinitions $end\n", 1)[1]
    assert "#100\n1!" in body
    assert "#130\n1\"" in body
    assert text.rstrip().endswith("#300")


def test_vcd_initial_values_at_zero():
    text = bytes(traces_to_vcd(_small_traces())).decode()
    dump = text.split("$dumpvars\n", 1)[1].split("$end", 1)[0]
    assert "0!" in dump   # Clk starts LOW
    assert 'x"' in dump   # Q starts UNKNOWN


def test_vcd_byte_stable():
    assert traces_to_vcd(_small_traces()) == traces_to_vcd(_small_traces())


def test_vcd_rejects_empty():
    with pytest.raises(ValueError):
        traces_to_vcd(traces_from_histories({}, 0))


def test_vcd_rejects_negative_times():
    with pytest.raises(ValueError, match="negative change time -5 ps"):
        traces_to_vcd(traces_from_histories({"A": [(-5, HIGH), (10, LOW)]}, 20))


# --------------------------------------------------------------------------
# scenarios

def test_scenario_file_parsing(tmp_path):
    path = tmp_path / "sc.txt"
    path.write_text(
        "name = mine\nsource = prbs7\nn_words = 25\nseed = 9\n"
        "outputs = bits, report\n# comment\n"
    )
    sc = load_scenario(str(path))
    assert (sc.name, sc.source, sc.n_words, sc.seed) == ("mine", "prbs7", 25, 9)
    assert sc.outputs == ("bits", "report")


def test_scenario_parse_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_scenario_text("just words\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("volume = 11\n")


def test_unknown_scenario_name():
    with pytest.raises(ConfigError):
        load_scenario("no-such-preset")


STREAM_STAGES = ["stimulus", "kernel", "extract", "protocol", "transitions", "supply_current",
                 "spectrum", "tx_synthesis", "low_band_ratio", "levels", "edges", "edges",
                 "eye", "mask"]
WRITERS = ["write_vcd", "write_bits", "write_tx_plus", "write_tx_minus", "write_eye",
           "write_spectrum", "write_report", "write_report_txt"]
MB_KEYS = {"before_mb", "after_mb", "peak_mb", "peak_above_before_mb"}


def _stage_names(res):
    return [record["stage"] for record in res.stages]


def test_run_scenario_stream(tmp_path, config):
    sc = PRESETS["stream-prbs7"]
    res = run_scenario(config, sc, tmp_path)
    assert res.passed
    assert res.checks["serial-equivalence"]
    assert res.checks["protocol"]
    assert res.checks["compliance"]
    assert res.checks["eye-mask"]
    for kind in ("vcd", "bits", "tx_plus", "tx_minus", "eye", "spectrum", "report"):
        assert res.artifacts[kind].exists()
    rep = json.loads(res.artifacts["report"].read_text())
    assert rep["pass"] is True
    assert [item["item"] for item in rep["items"]] == [
        "v_off", "v_swing", "v_high", "v_low", "rise_ps", "fall_ps", "low_band_ratio"]
    assert _stage_names(res) == STREAM_STAGES + WRITERS
    for record in res.stages:
        assert set(record) == {"stage", "time_s"} and record["time_s"] >= 0

    # under tracemalloc each record also holds the traced memory
    tracemalloc.start()
    try:
        traced = run_scenario(config, replace(sc, n_words=12), tmp_path / "traced")
    finally:
        tracemalloc.stop()
    assert _stage_names(traced) == STREAM_STAGES + WRITERS
    for record in traced.stages:
        assert set(record) == {"stage", "time_s"} | MB_KEYS
        assert record["peak_mb"] >= max(record["before_mb"], record["after_mb"])


def test_run_scenario_standby(tmp_path, config):
    res = run_scenario(config, PRESETS["standby"], tmp_path)
    assert res.passed
    assert res.checks == {"compliance": True} and res.skipped == {}
    assert _stage_names(res) == ["stimulus", "kernel", "tx_synthesis", "write_vcd",
                                 "write_tx_plus", "write_tx_minus", "write_report",
                                 "write_report_txt"]
    rep = json.loads(res.artifacts["report"].read_text())
    names = {item["item"] for item in rep["items"]}
    assert names == {"v_off", "standby_drop"}


def test_run_scenario_word_file(tmp_path, config):
    wf = tmp_path / "words.txt"
    wf.write_text("1111100000\n0000011111\n" * 30)
    sc = parse_scenario_text(
        f"name = filed\nsource = file\nword_file = {wf}\noutputs = bits\n")
    res = run_scenario(config, sc, tmp_path)
    assert res.checks["serial-equivalence"]
    bits = res.artifacts["bits"].read_text().replace("\n", "")
    # leftmost file character is the highest bit, so D0-first serial order
    # emits the five zeros of word one before its five ones
    assert bits.startswith("00000111111111100000")


# --------------------------------------------------------------------------
# command line

def test_cli_run_ok(tmp_path):
    code = main(["run", "--scenario", "stream-random", "--words", "30",
                 "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "stream-random.report.json").exists()


def test_run_scenario_reports_skipped_checks(tmp_path, config):
    fixed = replace(PRESETS["stream-random"], source="fixed", fixed_word="1" * 10,
                    n_words=20)
    res = run_scenario(config, fixed, tmp_path)
    assert res.passed
    assert set(res.checks) == {"serial-equivalence", "protocol", "eye-mask"}
    assert res.skipped == {"compliance": "no complete rise transition found"}
    assert "report" not in res.artifacts
    # the raising rise edge is recorded; the fall edge never runs
    assert _stage_names(res) == STREAM_STAGES[:11] + ["eye", "mask"] + WRITERS[:6]

    res = run_scenario(config, replace(PRESETS["stream-random"], n_words=1), tmp_path)
    # the raising low-band ratio and eye are recorded; no level or edge is measured
    assert res.skipped["compliance"].startswith("resolution")
    assert res.skipped["eye-mask"] == "streaming window is 10.0 UI, the eye needs at least 100"
    assert _stage_names(res) == STREAM_STAGES[:9] + ["eye"] + WRITERS[:4] + ["write_spectrum"]

    res = run_scenario(config, replace(PRESETS["stream-random"], n_words=5), tmp_path)
    assert set(res.checks) == {"serial-equivalence", "protocol", "compliance"}
    assert res.skipped == {
        "eye-mask": "streaming window is 50.0 UI, the eye needs at least 100"}
    assert "eye" not in res.artifacts
    # the raising eye is recorded; the mask never runs
    assert _stage_names(res) == STREAM_STAGES[:13] + WRITERS[:4] + WRITERS[5:]


def test_cli_prints_skipped_checks(tmp_path, capsys):
    code = main(["report", "--words", "5", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] stream-random" in out
    assert "  eye-mask: skipped (streaming window is 50.0 UI" in out


SHORT_WINDOWS = {
    "one-word": (["--words", "1"], None),
    "disable-at-0": ([], "name = dis0\nn_words = 12\ndisable_at_word = 0\n"),
}


@pytest.mark.parametrize("case", sorted(SHORT_WINDOWS))
def test_cli_short_window_skips_compliance(tmp_path, capsys, case):
    args, text = SHORT_WINDOWS[case]
    if text is not None:
        sc = tmp_path / "short.scenario"
        sc.write_text(text)
        args = ["--scenario", str(sc)]
    code = main(["report", *args, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "  compliance: skipped (resolution 9.77e+07 Hz too coarse" in out
    assert "  serial-equivalence: pass" in out and "  protocol: pass" in out


def test_cli_subcommand_restricts_outputs(tmp_path):
    code = main(["eye", "--scenario", "stream-random", "--words", "30",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "stream-random.eye.csv").exists()
    assert not (tmp_path / "stream-random.vcd").exists()


def test_cli_runs_every_given_scenario(tmp_path):
    code = main(["report", "--scenario", "stream-random", "--scenario",
                 "standby", "--words", "20", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "stream-random.report.json").exists()
    assert (tmp_path / "standby.report.json").exists()


def test_cli_unknown_scenario_is_usage_error(tmp_path):
    assert main(["run", "--scenario", "bogus", "--out", str(tmp_path)]) == 2


def test_cli_repeated_scenario_name_is_usage_error(tmp_path, capsys):
    first, second = tmp_path / "a.scenario", tmp_path / "b.scenario"
    first.write_text("name = x\nsource = prbs7\n")
    second.write_text("name = x\nsource = random\n")
    out = tmp_path / "out"
    err = _usage_error(capsys, ["report", "--scenario", str(first), "--scenario",
                                str(second), "--words", "5", "--out", str(out)])
    assert "scenario name 'x' is given more than once" in err
    assert not out.exists()


def test_cli_runs_at_zero_skew(tmp_path):
    # every delay is positive but Nclk's at skew 0, and Nclk drives nothing
    cfg_path = tmp_path / "skew0.cfg"
    cfg_path.write_text(config_to_text(ChannelConfig(word_width=16, skew_ps=0)))
    assert main(["report", "--config", str(cfg_path), "--words", "12",
                 "--out", str(tmp_path)]) == 0


BAD_CONFIGS = {
    "word_width = 9\n": "word_width must be one of 8, 10, 16",
    "horizon_words = 0\n": "horizon_words must be at least 1, got 0",
    "horizon_words = -3\n": "horizon_words must be at least 1, got -3",
    "spike.q_c = abc\n": "bad numeric value 'abc'",
    "mask_vertices = 1;2\n": "mask_vertices needs at least three x:y pairs",
    "mask_vertices =\n": "mask_vertices needs at least three x:y pairs",
    "mask_vertices = 0:1;1:0;0:-1;-1:0;0.5:0.5\n": "mask polygon must be convex",
    "mask_vertices = -0.25:0;0:0.2;0.3:0;0:-0.2\n": "mask polygon must be symmetric",
    "dt_ps = nan\n": "dt_ps must be finite, got nan",
    "driver.avcc_v = nan\n": "driver.avcc_v must be finite, got nan",
    "driver.t_rf_ps = nan\n": "driver.t_rf_ps must be finite, got nan",
    "spike.w_ps = inf\n": "spike.w_ps must be finite, got inf",
    "spike.q_c = nan\n": "spike.q_c must be finite, got nan",
    "driver.i_sink_a = -inf\n": "driver.i_sink_a must be finite, got -inf",
    "mask_vertices = -0.25:0;-0.15:inf;0.15:0.2;0.25:0;0.15:-0.2;-0.15:-0.2\n":
        "mask_vertices must be finite, got inf",
    # the paper's 2.8 V output bias is not modelled, so it has no keys
    "driver.i_bias_a = 5.343e-07\n": "unknown key 'driver.i_bias_a'",
    "driver.v_bias_v = 2.8\n": "unknown key 'driver.v_bias_v'",
    # written by older versions; the key left with the kernel's zero-delay guard
    "loop_limit = 1000\n": "unknown key 'loop_limit'",
    # accepted by validate(), but over the work budget: exit 2 before allocating
    "dt_ps = 1e-300\n": "Tx samples per leg, over the work budget of 33554432",
    "eye_bins_v = 1000000000000\n": "1.28e+14 eye bins, over the work budget of 33554432",
}


def test_cli_bad_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text, message in BAD_CONFIGS.items():
        bad.write_text(text)
        err = _usage_error(capsys, ["run", "--config", str(bad), "--out", str(tmp_path)])
        assert message in err


def test_work_budget_admits_the_4000_word_stage_bench_run():
    config = ChannelConfig()
    validate_scenario(config, replace(PRESETS["stream-random"], n_words=4000))
    # the largest stream at the default dt_ps, as README gives it
    validate_scenario(config, replace(PRESETS["stream-random"], n_words=55_362))
    with pytest.raises(ConfigError, match="Tx samples per leg, over the work budget"):
        validate_scenario(config, replace(PRESETS["stream-random"], n_words=55_363))
    # a power of two, so the FFT's padded window stays within it with the leg
    assert WORK_BUDGET & (WORK_BUDGET - 1) == 0


def test_word_file_over_the_work_budget_is_usage_error(tmp_path, capsys):
    # a word file's count is known once the run reads it, before the stimulus
    wf, sc, cfg = tmp_path / "words.txt", tmp_path / "file.scenario", tmp_path / "c.cfg"
    wf.write_text("0101010101\n" * 3)
    sc.write_text(f"source = file\nword_file = {wf}\n")
    cfg.write_text("dt_ps = 1e-300\n")
    err = _usage_error(capsys, ["run", "--config", str(cfg), "--scenario", str(sc),
                                "--out", str(tmp_path / "out")])
    assert "Tx samples per leg, over the work budget of 33554432" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("word", [-1, 3])
def test_word_file_disable_outside_its_words_is_usage_error(tmp_path, capsys, word):
    wf, sc = tmp_path / "words.txt", tmp_path / "file.scenario"
    wf.write_text("0101010101\n" * 3)
    sc.write_text(f"source = file\nword_file = {wf}\ndisable_at_word = {word}\n")
    err = _usage_error(capsys, ["run", "--scenario", str(sc), "--out", str(tmp_path / "out")])
    assert f"disable_at_word must be in 0..2 for 3 words, got {word}" in err
    assert not (tmp_path / "out").exists()


def test_cli_config_file_round_trip(tmp_path):
    cfg_path = tmp_path / "chan.cfg"
    cfg_path.write_text(config_to_text(ChannelConfig(seed=8)))
    code = main(["report", "--config", str(cfg_path), "--scenario",
                 "stream-random", "--words", "25", "--out", str(tmp_path)])
    assert code == 0


def test_cli_report_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs a CLI process about 14 ms to import, and nothing a report
    # computes needs masked arrays (np.median imports it on its first call)
    code = ("import sys; from datachan.cli import main; "
            f"code = main(['report', '--words', '20', '--out', {str(tmp_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(datachan.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 False"


def test_cli_selftest():
    assert main(["selftest"]) == 0


def test_cli_runs_width_16(tmp_path, capsys):
    cfg_path = tmp_path / "w16.cfg"
    cfg_path.write_text(config_to_text(ChannelConfig(word_width=16)))
    code = main(["run", "--config", str(cfg_path), "--words", "12",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "  serial-equivalence: pass" in out
    assert "  protocol: pass" in out
    assert code == 0


BAD_SCENARIOS = {
    "n_words": ("n_words = abc\n", "n_words must be an integer"),
    "fixed-width": ("source = fixed\nfixed_word = 10101\n", "fixed_word must be 10 binary"),
    "fixed-digits": ("source = fixed\nfixed_word = 1010120101\n", "fixed_word must be 10 binary"),
    "disable-past-end": ("n_words = 5\ndisable_at_word = 5\n", "disable_at_word must be in 0..4"),
    "outputs": ("outputs = bits, waveform\n", "unknown outputs waveform"),
    "source": ("source = noise\n", "unknown data source"),
    "prbs7-seed-0": ("source = prbs7\nseed = 0\n",
                     "seed 0x0 leaves the PRBS7 register stuck at zero"),
    "prbs7-seed-128": ("source = prbs7\nseed = 128\n",
                       "seed 0x80 leaves the PRBS7 register stuck at zero"),
    "name-parent": ("name = ../escaped\n", "scenario name must be a plain file name"),
    "name-empty": ("name =\n", "scenario name must be a plain file name, got ''"),
    "name-dot": ("name = .\n", "scenario name must be a plain file name, got '.'"),
    "name-dotdot": ("name = ..\n", "scenario name must be a plain file name, got '..'"),
    "name-slash": ("name = a/b\n", "scenario name must be a plain file name"),
    "name-backslash": ("name = a\\b\n", "scenario name must be a plain file name"),
}


def _usage_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_cli_bad_scenario_is_usage_error(tmp_path, capsys, case):
    text, message = BAD_SCENARIOS[case]
    sc = tmp_path / "bad.scenario"
    sc.write_text(text)
    err = _usage_error(capsys, ["run", "--scenario", str(sc),
                                "--out", str(tmp_path / "out" / "sub")])
    assert message in err
    assert [p.name for p in tmp_path.rglob("*")] == ["bad.scenario"]


def test_cli_zero_words_is_usage_error(tmp_path, capsys):
    err = _usage_error(capsys, ["run", "--words", "0", "--out", str(tmp_path)])
    assert "n_words must be at least 1" in err


def test_cli_bad_scenario_stops_before_any_run(tmp_path, capsys):
    sc = tmp_path / "bad.scenario"
    sc.write_text("name = late\noutputs = bogus\n")
    _usage_error(capsys, ["run", "--scenario", "stream-random", "--scenario", str(sc),
                          "--words", "5", "--out", str(tmp_path)])
    assert not (tmp_path / "stream-random.report.json").exists()


BAD_WORD_FILES = {
    "1111100000\n11111\n": "line 2: expected 10 binary digits",
    "": "holds no words",
    "# only a comment\n\n": "holds no words",
}


def test_cli_bad_word_file_is_usage_error(tmp_path, capsys):
    wf = tmp_path / "words.txt"
    sc = tmp_path / "file.scenario"
    sc.write_text(f"source = file\nword_file = {wf}\n")
    for text, message in BAD_WORD_FILES.items():
        wf.write_text(text)
        err = _usage_error(capsys, ["run", "--scenario", str(sc),
                                    "--out", str(tmp_path / "out")])
        assert message in err
        assert not (tmp_path / "out").exists()


def test_cli_input_errors_name_their_file(tmp_path, capsys):
    good, bad = tmp_path / "a.scenario", tmp_path / "b.scenario"
    good.write_text("n_words = 5\n")
    bad.write_text("name = b\nn_words = x\n")
    err = _usage_error(capsys, ["report", "--scenario", str(good), "--scenario", str(bad),
                                "--out", str(tmp_path)])
    assert f"error: scenario file {bad}: line 2: n_words must be an integer, got 'x'" in err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = x\n")
    err = _usage_error(capsys, ["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert f"error: config file {cfg}: line 1: bad numeric value 'x'" in err


UNREADABLE_INPUTS = {
    "missing-config": (["--config", "{tmp}/nope.cfg"], "cannot read config file {tmp}/nope.cfg"),
    "config-is-dir": (["--config", "{tmp}"], "cannot read config file {tmp}"),
    "binary-config": (["--config", "{tmp}/binary.cfg"], "binary.cfg: not a text file"),
    "missing-word-file": (["--scenario", "{tmp}/file.scenario"],
                          "cannot read word file {tmp}/nope.txt"),
    "scenario-is-dir": (["--scenario", "{tmp}"], "cannot read scenario file {tmp}"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_cli_unreadable_input_is_usage_error(tmp_path, capsys, case):
    args, message = UNREADABLE_INPUTS[case]
    (tmp_path / "binary.cfg").write_bytes(b"seed = \xff\xfe\n")
    (tmp_path / "file.scenario").write_text(f"source = file\nword_file = {tmp_path}/nope.txt\n")
    err = _usage_error(capsys, ["run", *(a.format(tmp=tmp_path) for a in args),
                                "--out", str(tmp_path / "out")])
    assert message.format(tmp=tmp_path) in err
    assert not (tmp_path / "out").exists()


def test_cli_unwritable_out_is_internal_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    code = main(["report", "--words", "5", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("i/o error: ") and err.count("\n") == 1, err


def test_cli_coarse_sampling_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "coarse.cfg"
    cfg_path.write_text("dt_ps = 40\n")
    err = _usage_error(capsys, ["run", "--config", str(cfg_path), "--words", "5",
                                "--out", str(tmp_path)])
    assert "fewer than 32 samples" in err
