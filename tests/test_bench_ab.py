"""The stage bench's ``--ab`` mode: both trees in subprocesses, stage times paired."""


def test_ab_against_its_own_tree(stage_bench):
    _, doc, other = stage_bench
    # the other tree was named through "..": each child's package is compared
    # with that tree's src/datachan as a resolved path, and the file records
    # the path as given
    assert other.startswith("..")
    assert doc["ab"] == {"other": other, "other_src_lines": doc["src_lines"]}
    # --words 12 makes the four stream-random runs one
    assert [run["scenario"] for run in doc["runs"]] == ["stream-prbs10", "stream-random"]
    for run in doc["runs"]:
        other = run["other"]
        assert run["passed"] and other["passed"]
        assert run["artifacts"] and run["artifacts"] == other["artifacts"]
        names = [s["stage"] for s in run["stages"]]
        assert names == [s["stage"] for s in other["stages"]]
        assert set(run["ratios"]) == set(names) | {"total"}
        for ratio in run["ratios"].values():
            assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
        for side in (run, other):
            kernel = next(s for s in side["stages"] if s["stage"] == "kernel")
            assert kernel["after_mb"] > kernel["before_mb"] and kernel["time_s"] > 0
