"""The stage bench records every stage's time and memory and leaves the pipeline as it was."""

import importlib.util
import json
from pathlib import Path

from datachan import scenario

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "stages.py"
STAGES = {"stimulus", "kernel", "tx_synthesis", "extract", "protocol", "transitions",
          "supply_current", "spectrum", "low_band_ratio", "levels", "edges", "eye", "mask"}


def test_memory_bench_records_each_stage(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_stages", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    before = {attr: getattr(scenario, attr) for attr in
              ("ARTIFACTS", "advance", "drv", "eyemod", "golden", "measure",
               "protocol", "specmod", "stimulus")}
    assert bench.main(["--out", str(tmp_path / "bench.json"), "--words", "12"]) == 0
    assert all(getattr(scenario, attr) is value for attr, value in before.items())

    doc = json.loads((tmp_path / "bench.json").read_text())
    assert doc["repeat"] == bench.REPEAT
    # --words 12 makes the four stream-random runs one
    report, full = doc["runs"]
    assert (report["scenario"], report["outputs"]) == ("stream-prbs10", ["report"])
    assert (full["scenario"], full["outputs"]) == ("stream-random", list(scenario.ALL_OUTPUTS))
    for run in (report, full):
        assert run["words"] == 12 and run["passed"]
        for stage in run["stages"]:
            assert stage["time_s"] >= 0
            assert stage["peak_mb"] >= max(stage["before_mb"], stage["after_mb"])
    # the levels are measured once and passed to both edge measurements
    names = [stage["stage"] for stage in report["stages"]]
    assert set(names) == STAGES | {"write_report", "write_report_txt"}
    assert names.count("levels") == 1 and names.count("edges") == 2
    writers = {"write_" + key for _, _, key, _, _ in scenario.ARTIFACTS}
    assert {s["stage"] for s in full["stages"]} == STAGES | writers
