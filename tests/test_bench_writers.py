"""The stage bench times every artifact writer and records what a plain run writes."""

import hashlib

from datachan import scenario
from datachan.cli import main


def test_writer_bench_matches_a_plain_run(stage_bench, tmp_path):
    _, doc, _ = stage_bench
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
