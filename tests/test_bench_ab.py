"""The stage bench's ``--ab`` mode: both trees in subprocesses, stage times paired."""

import importlib.util
import marshal
import os
import py_compile
import struct
from pathlib import Path


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


def test_ab_refreshes_stale_bytecode_before_the_first_run(stage_bench, tmp_path, monkeypatch):
    # each side's src holds a module whose bytecode is stale to the import (the
    # source's size changed) though its mtime matches: with bytecode writes off,
    # every child would compile it again
    bench = stage_bench[0]
    sources = []
    for side in ("this", "other"):
        source = tmp_path / side / "src" / "datachan" / "mod.py"
        source.parent.mkdir(parents=True)
        source.write_text("X = 1\n")
        py_compile.compile(str(source))
        mtime = source.stat().st_mtime_ns
        source.write_text("X = 22\n")
        os.utime(source, ns=(mtime, mtime))
        sources.append(source)
    seen = []

    def child(src, name, n_words, outputs, traced):
        for source in sources:
            pyc = Path(importlib.util.cache_from_source(str(source))).read_bytes()
            st = source.stat()
            names = {}
            exec(marshal.loads(pyc[16:]), names)
            seen.append((pyc[8:16] == struct.pack("<LL", int(st.st_mtime), st.st_size),
                         names["X"]))
        return [{"stage": "kernel", "time_s": 1.0, "vm_hwm_mb": 1.0, "minflt": 0}], True, {}, {}

    monkeypatch.setattr(bench, "ROOT", tmp_path / "this")
    monkeypatch.setattr(bench, "_child", child)
    bench.measure("stream-random", 12, ("report",), tmp_path / "other")
    assert seen and set(seen) == {(True, 22)}
