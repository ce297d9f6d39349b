"""The writer trajectory script runs and records what a plain run writes."""

import hashlib
import importlib.util
import json
from pathlib import Path

from datachan import scenario
from datachan.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "writers.py"


def test_writer_bench_matches_a_plain_run(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_writers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    artifacts = scenario.ARTIFACTS
    assert bench.main(["--out", str(tmp_path / "bench.json"), "--words", "12"]) == 0
    assert scenario.ARTIFACTS is artifacts

    doc = json.loads((tmp_path / "bench.json").read_text())
    (run,) = doc["runs"]
    assert run["words"] == 12 and run["passed"]
    assert main(["run", "--words", "12", "--out", str(tmp_path / "plain")]) == 0
    for key, path in {"vcd": ".vcd", "tx_plus": ".tx_plus.csv",
                      "spectrum": ".spectrum.csv", "report": ".report.json"}.items():
        data = (tmp_path / "plain" / ("stream-random" + path)).read_bytes()
        assert run["artifacts"][key]["bytes"] == len(data)
        assert run["artifacts"][key]["sha256"] == hashlib.sha256(data).hexdigest()
        assert run["artifacts"][key]["writer_s"] > 0
