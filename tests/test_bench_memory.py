"""The stage bench records every stage's time and memory."""

from datachan import scenario

STAGES = {"stimulus", "kernel", "tx_synthesis", "extract", "protocol", "transitions",
          "supply_current", "spectrum", "low_band_ratio", "levels", "edges", "eye", "mask"}


def test_memory_bench_records_each_stage(stage_bench):
    bench, doc, _ = stage_bench
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
        # the process's peak resident MB after each stage, on both sides of --ab
        for side in (run, run["other"]):
            hwm = [stage["vm_hwm_mb"] for stage in side["stages"]]
            assert hwm[0] > 0 and hwm == sorted(hwm)
    # the levels are measured once and passed to both edge measurements
    names = [stage["stage"] for stage in report["stages"]]
    assert set(names) == STAGES | {"write_report", "write_report_txt"}
    assert names.count("levels") == 1 and names.count("edges") == 2
    writers = {"write_" + key for _, _, key, _, _ in scenario.ARTIFACTS}
    assert {s["stage"] for s in full["stages"]} == STAGES | writers


def test_memory_bench_counts_each_stage_page_faults(stage_bench):
    # the minor page faults of each stage, a median of the untraced runs, on
    # both sides of --ab; a run's first touch of its arrays takes some
    _, doc, _ = stage_bench
    for run in doc["runs"]:
        for side in (run, run["other"]):
            faults = [stage["minflt"] for stage in side["stages"]]
            assert all(isinstance(n, int) and n >= 0 for n in faults)
            assert sum(faults) > 0
