"""The stage bench times every artifact writer and records what a plain run writes."""

import hashlib
from dataclasses import replace

from datachan import scenario
from datachan.cli import main
from datachan.config import ChannelConfig


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


def test_every_writer_returns_the_bytes_it_writes(tmp_path, monkeypatch):
    # perfbench's writers.bytes is the len() of what each writer returns, so
    # each ARTIFACTS writer returns bytes, as many as the file it writes holds
    returned = {}

    def recorded(key, write):
        def call(product):
            returned[key] = write(product)
            return returned[key]
        return call

    monkeypatch.setattr(scenario, "ARTIFACTS", tuple(
        (*entry[:4], recorded(entry[2], entry[4])) for entry in scenario.ARTIFACTS))
    runs = {"stream-random": {"vcd", "bits", "tx_plus", "tx_minus", "eye", "spectrum",
                              "report", "report_txt"},
            "standby": {"vcd", "tx_plus", "tx_minus", "report", "report_txt"}}
    for name, keys in runs.items():
        returned.clear()
        sc = replace(scenario.PRESETS[name], n_words=12, outputs=scenario.ALL_OUTPUTS)
        result = scenario.run_scenario(ChannelConfig(), sc, tmp_path / name)
        assert returned.keys() == result.artifacts.keys() == keys
        for key, path in result.artifacts.items():
            assert len(returned[key]) == memoryview(returned[key]).nbytes == path.stat().st_size
            assert bytes(returned[key]) == path.read_bytes()
