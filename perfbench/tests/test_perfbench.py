"""Tests of the benchmark itself: inputs, the correctness gate and the trace.

Run from the root of the checkout: python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest

import manifest
import run
import tracing
import workloads


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _request(wl: workloads.Workload, out: str, trace: bool) -> dict:
    return {"config": str(wl.config), "out": out, "trace": trace,
            "scenarios": [str(sc.path) for sc in wl.scenarios]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads.generate(name, 11, Path("inputs"))
    first = _tree(Path("inputs"))
    shutil.rmtree("inputs")
    workloads.generate(name, 11, Path("inputs"))
    assert _tree(Path("inputs")) == first
    shutil.rmtree("inputs")
    workloads.generate(name, 12, Path("inputs"))
    assert _tree(Path("inputs")) != first


def test_batch_mix_covers_every_path(tmp_path):
    wl = workloads.generate("scenario-batch", 5, tmp_path)
    assert len(wl.scenarios) == 16
    assert len({sc.name for sc in wl.scenarios}) == 16
    assert {sc.source for sc in wl.scenarios} == {"none", "random", "prbs7", "fixed", "file"}
    assert all(sc.disable_at_word >= workloads.EYE_MIN_WORDS
               for sc in wl.scenarios if sc.disable_at_word is not None)
    for sc in wl.scenarios:
        if sc.source == "fixed":
            word = re.search(r"fixed_word = (\d+)", sc.path.read_text()).group(1)
            assert set(word) == {"0", "1"}


def test_failing_scenario_is_counted_not_fatal(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.generate("scenario-batch", 3, Path("inputs"), words=12)
    Path("inputs/file-0.words").write_text("0101\n")  # wrong word width: raises
    res = run._child(_request(wl, "out", trace=False), "t", Path("."))
    failures = run.check_invocation(wl, res, Path("out"))
    failed = sorted(line.split(":", 1)[0] for line in failures)
    assert failed == ["file-0", "file-1", "file-2"]  # the ones after it never ran
    assert "did not run" in " ".join(failures)


def test_missing_check_or_artifact_is_a_failure(tmp_path):
    wl = workloads.generate("stream-verify", 1, tmp_path / "inputs", words=12)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "verify.report.json").write_text("{}")
    (tmp_path / "out" / "verify.report.txt").write_text("")
    result = {"exit_code": 0, "error": None, "scenarios": {"verify": {
        "passed": True,
        "checks": {"serial-equivalence": True, "protocol": True, "compliance": True,
                   "eye-mask": True}}}}
    assert run.check_invocation(wl, result, tmp_path / "out") == []
    del result["scenarios"]["verify"]["checks"]["eye-mask"]
    assert run.check_invocation(wl, result, tmp_path / "out") == [
        "verify: missing check eye-mask"]
    result["scenarios"]["verify"]["checks"]["eye-mask"] = True
    (tmp_path / "out" / "verify.report.txt").unlink()
    assert run.check_invocation(wl, result, tmp_path / "out") == [
        "verify: missing artifact verify.report.txt"]


def test_traced_spans_nest_under_run_scenario(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.generate("scenario-batch", 4, Path("inputs"), words=12)
    res = run._child(_request(wl, "out", trace=True), "t", Path("."))
    assert run.check_invocation(wl, res, Path("out")) == []
    spans = res["spans"]
    assert workloads.EXPECTED_SPANS["scenario-batch"] <= {s["name"] for s in spans}
    runs = [i for i, s in enumerate(spans) if s["name"] == "scenario.run_scenario"]
    assert len(runs) == len(wl.scenarios)
    for i, span in enumerate(spans):
        assert span["start"] <= span["end"]
        if span["name"] == "cli.main":
            assert span["parent"] is None
            continue
        ancestor = i
        while spans[ancestor]["name"] != "scenario.run_scenario":
            ancestor = spans[ancestor]["parent"]
            assert ancestor is not None, span["name"]
        assert span["scenario"] == ancestor
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]

    metrics = tracing.layer_metrics(spans)
    assert 0 < metrics["scenario.self_s"] < metrics["scenario.run_scenario_s"]
    assert metrics["golden.bits"] > 0 and metrics["writers.bytes"] > 0


def test_layer_times_read_at_reference_speed():
    spans = [
        {"name": "cli.main", "parent": None, "scenario": None, "start": 0.0, "end": 4.0},
        {"name": "scenario.run_scenario", "parent": 0, "scenario": 1, "start": 0.5, "end": 3.5},
        {"name": "netlist.advance", "parent": 1, "scenario": 1, "start": 1.0, "end": 2.0,
         "counts": {"trace_entries": 1000}},
    ]
    wall = tracing.layer_metrics(spans)
    slow = tracing.layer_metrics(spans, speed=0.5)
    assert slow["netlist.trace_entries"] == wall["netlist.trace_entries"] == 1000
    for name in ("cli.main_s", "cli.self_s", "scenario.self_s", "netlist.advance_s",
                 "netlist.ns_per_entry"):
        assert slow[name] == pytest.approx(wall[name] / 2)


def test_reference_kernel_does_not_load_datachan():
    code = ("import sys, calibrate; calibrate.kernel_s(); "
            "print(any(m.startswith('datachan') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=run.BENCH_DIR,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_peak_rss_is_the_childs_own(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.generate("stream-verify", 2, Path("inputs"), words=12)
    ballast = np.ones(20_000_000)  # 160 MB resident in this process
    del ballast
    res = run._child(_request(wl, "out", trace=False), "t", Path("."))
    assert res["max_rss_kib"] * 1024 < 120e6


def test_renamed_layer_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "PATCHES",
                        [("datachan.netlist", "no_such_function", "netlist.x", None)])
    with pytest.raises(AttributeError):
        tracing.Tracer().install()


def test_benchmark_json_matches_manifest():
    path = Path(run.ROOT) / "BENCHMARK.json"
    assert path.read_text() == manifest.render()
    spec = json.loads(path.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
