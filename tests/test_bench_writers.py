"""The stage bench times every artifact writer and records what a plain run writes."""

import hashlib
import importlib.util
import json
from pathlib import Path

from datachan import scenario
from datachan.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "stages.py"


def test_writer_bench_matches_a_plain_run(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_stages", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    artifacts = scenario.ARTIFACTS
    assert bench.main(["--out", str(tmp_path / "bench.json"), "--words", "12"]) == 0
    assert scenario.ARTIFACTS is artifacts

    doc = json.loads((tmp_path / "bench.json").read_text())
    # --words 12 makes the four stream-random runs one
    _, full = doc["runs"]
    assert full["words"] == 12 and full["passed"]
    writers = {"write_" + key for _, _, key, _, _ in scenario.ARTIFACTS}
    assert writers <= {s["stage"] for s in full["stages"]}
    assert all(s["time_s"] > 0 for s in full["stages"] if s["stage"] in writers)

    assert main(["run", "--words", "12", "--out", str(tmp_path / "plain")]) == 0
    for key, suffix in {"vcd": ".vcd", "tx_plus": ".tx_plus.csv", "eye": ".eye.csv",
                        "spectrum": ".spectrum.csv", "report": ".report.json"}.items():
        data = (tmp_path / "plain" / ("stream-random" + suffix)).read_bytes()
        assert full["artifacts"][key] == {"bytes": len(data),
                                          "sha256": hashlib.sha256(data).hexdigest()}
