"""The memory trajectory script runs, records every stage and leaves the pipeline as it was."""

import hashlib
import importlib.util
import json
from pathlib import Path

from datachan import scenario
from datachan.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "memory.py"
STAGES = {"stimulus", "kernel", "tx_synthesis", "extract", "protocol", "transitions",
          "supply_current", "spectrum", "low_band_ratio", "levels", "edges", "eye", "mask"}


def test_memory_bench_records_each_stage(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_memory", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    before = {attr: getattr(scenario, attr) for attr in
              ("ARTIFACTS", "advance", "drv", "eyemod", "golden", "measure",
               "protocol", "specmod", "stimulus")}
    assert bench.main(["--out", str(tmp_path / "bench.json"), "--words", "12"]) == 0
    assert all(getattr(scenario, attr) is value for attr, value in before.items())

    doc = json.loads((tmp_path / "bench.json").read_text())
    report, full = doc["runs"]
    assert (report["scenario"], report["outputs"]) == ("stream-prbs10", ["report"])
    assert (full["scenario"], full["outputs"]) == ("stream-random", list(scenario.ALL_OUTPUTS))
    for run in (report, full):
        assert run["words"] == 12 and run["passed"]
        for stage in run["stages"]:
            assert stage["peak_mb"] >= max(stage["before_mb"], stage["after_mb"])
    # measure_levels also runs inside measure_edge, but is recorded once per direct call
    names = [stage["stage"] for stage in report["stages"]]
    assert set(names) == STAGES | {"write_report", "write_report_txt"}
    assert names.count("levels") == 1 and names.count("edges") == 2
    assert {s["stage"] for s in full["stages"]} == STAGES | {
        "write_" + key for _, _, key, _, _ in scenario.ARTIFACTS}

    assert main(["run", "--words", "12", "--out", str(tmp_path / "plain")]) == 0
    for key, suffix in {"vcd": ".vcd", "tx_plus": ".tx_plus.csv", "eye": ".eye.csv",
                        "spectrum": ".spectrum.csv", "report": ".report.json"}.items():
        data = (tmp_path / "plain" / ("stream-random" + suffix)).read_bytes()
        assert full["artifacts"][key] == {"bytes": len(data),
                                          "sha256": hashlib.sha256(data).hexdigest()}
