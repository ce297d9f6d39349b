"""Per-stage trajectory: the time and the memory of every stage and writer.

Usage, from the root of a Linux checkout (Python >= 3.10 and numpy):

    python3 bench/stages.py --out BENCH_11.json
    python3 bench/stages.py --out /tmp/small.json --words 20
    python3 bench/stages.py --out BENCH_15.json --ab ../parent-checkout

The script runs ``run_scenario`` with the default configuration:
`stream-prbs10` at 1500 words with ``outputs = report`` (the `datachan report`
path), and `stream-random` at 100, 600, 1000 and 4000 words with every output.
``--words`` sets every run's word count.  The stage records are the ones
``run_scenario`` keeps in ``ScenarioResult.stages``, one per pipeline stage and
artifact writer (stage ``write_<key>``).  The kernel counters are read from
the run's stimulus and traces, so they count the same on any kernel:
``stimulus_changes``, ``dclk_falls`` (falling edges of the working clock),
and the changes of each net (``changes_per_net``: the entries of its trace
after the power-on UNKNOWN), with their sum ``changes``.  Every run is a
fresh subprocess (``--child``) that imports the package from this tree's
``src``.  Each
scenario runs ``REPEAT`` times untraced, for the median time of each stage by
position and the median ``vm_hwm_mb``: the process's peak resident MB, the
highest ``VmHWM`` of ``/proc/self/status`` read up to the stage's end, which
counts what ``tracemalloc`` does not see, such as pocketfft's buffers, and
only the pages touched; and the median ``minflt``, the minor page faults the
stage took (``ru_minflt`` of ``resource.getrusage``), which shows a stage
that first touches pages no earlier stage freed into the heap.  Before each
stage of an untraced run the cyclic garbage collector runs, outside the
stage's timed interval, so that no stage
pays for a collection that the allocations of earlier ones set off.  It runs
once more under ``tracemalloc``, for the traced MB live before and after each
stage and the peak while it ran.  The artifacts are the same files a plain run
writes.

``--ab OTHER_ROOT`` compares this tree with another checkout, whose runs
import the package from its ``src``: the untraced runs go in ``REPEAT`` pairs,
this tree first in even pairs and the other first in odd ones, then one
traced run each.  A run records both sides, and for each stage name (the
times of its calls summed) and for all stages together the ratio this / other
of every pair: its median and quartiles.  The ratio of a stage neither tree
changed reads 1 within them.

Before a scenario's runs each tree's ``src`` is byte-compiled
(``compileall``), so that every child of either tree loads fresh bytecode.
Where ``PYTHONDONTWRITEBYTECODE`` is set, a child cannot write the bytecode
of a module it finds stale, so it would compile that module in every run, and
peak higher for it.  The compile is forced: ``compileall`` takes bytecode
for fresh when its source's mtime matches, but the import also compares the
source's size.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from datachan import scenario  # noqa: E402
from datachan.config import ChannelConfig  # noqa: E402

REPEAT = 5

RUNS = (("stream-prbs10", 1500, ("report",)),) + tuple(
    ("stream-random", n, scenario.ALL_OUTPUTS) for n in (100, 600, 1000, 4000))


def _counters(stim, traces) -> dict:
    """The kernel counters of one run (see the module docstring)."""
    per_net = {}
    for net in traces.nets():
        times, codes = traces.arrays(net)
        per_net[net] = len(times) - int(len(times) > 0 and times[0] == 0 and codes[0] == 2)
    return {"stimulus_changes": len(stim), "dclk_falls": len(traces.edges("Dclk", "fall")),
            "changes": sum(per_net.values()), "changes_per_net": per_net}


def _vm_hwm_mb() -> float:
    """This process's peak resident memory in MB: ``VmHWM``, in KiB on Linux."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("/proc/self/status holds no VmHWM line")


def _run(sc: scenario.Scenario, traced: bool) -> tuple[list[dict], bool, dict, dict]:
    """(stage records, passed, artifact sizes and hashes, kernel counters) of one
    run of ``sc``.  The counters come from a traced run only, whose times are not
    used, and ``vm_hwm_mb`` and ``minflt`` from an untraced one, as tracing
    allocates too."""
    counters, advance, stage = {}, scenario.advance, scenario._stage

    def counted(netlist, stim, until_ps):
        traces = advance(netlist, stim, until_ps)
        counters.update(_counters(stim, traces))
        return traces

    def peaked(result, name, fn, /, *args, **kwargs):
        gc.collect()  # before the stage's timer starts
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return stage(result, name, fn, *args, **kwargs)
        finally:
            result.stages[-1]["minflt"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
            # the highest reading so far: a later read of VmHWM can be a few pages
            # lower, as the kernel keeps the peak from per-CPU page counts that lag
            prior = [record["vm_hwm_mb"] for record in result.stages[-2:-1]]
            result.stages[-1]["vm_hwm_mb"] = max([_vm_hwm_mb(), *prior])

    if traced:
        scenario.advance = counted
        tracemalloc.start()
    else:
        scenario._stage = peaked
    try:
        with tempfile.TemporaryDirectory() as out:
            result = scenario.run_scenario(ChannelConfig(), sc, out)
            artifacts = {key: {"bytes": path.stat().st_size,
                               "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
                         for key, path in result.artifacts.items()}
    finally:
        tracemalloc.stop()
        scenario.advance, scenario._stage = advance, stage
    return result.stages, result.passed, artifacts, counters


# The command of a child run: import the package from the ``src`` given first,
# then run this script on the other arguments.  Its ``src`` is never read, as
# ``datachan`` and every module of it come from the package already imported.
_CHILD = ("import runpy, sys; sys.path.insert(0, sys.argv[1]); import datachan; "
          "sys.argv = sys.argv[2:]; runpy.run_path(sys.argv[0], run_name='__main__')")


def _child(src: Path, name: str, n_words: int, outputs: tuple[str, ...],
           traced: bool) -> tuple[list[dict], bool, dict, dict]:
    """``_run`` in a fresh interpreter that imports the package from ``src``."""
    spec = json.dumps({"name": name, "words": n_words, "outputs": outputs, "traced": traced})
    out = subprocess.run([sys.executable, "-c", _CHILD, str(src), __file__, "--child", spec],
                         check=True, capture_output=True, text=True).stdout
    stages, passed, artifacts, counters, package = json.loads(out)
    if Path(package).resolve() != (src / "datachan").resolve():
        raise RuntimeError(f"a child run for {src} imported the package from {package}")
    return stages, passed, artifacts, counters


def _summary(name: str, n_words: int, outputs: tuple[str, ...], runs: list) -> dict:
    """Median stage times, ``vm_hwm_mb`` and ``minflt`` of all ``runs`` but the
    last, a traced one, with its memory and kernel counters."""
    shapes = [([s["stage"] for s in stages], ok, files) for stages, ok, files, _ in runs]
    if any(shape != shapes[0] for shape in shapes):
        raise RuntimeError(f"{name}: the runs differ in stage sequence, verdict or artifacts")
    *timed, (traced, passed, artifacts, counters) = runs
    stages = [record | {key: median(run[0][i][key] for run in timed)
                        for key in ("time_s", "vm_hwm_mb", "minflt")}
              for i, record in enumerate(traced)]
    return {"scenario": name, "words": n_words, "outputs": list(outputs), "passed": passed,
            "stages": stages, "artifacts": artifacts, "counters": counters}


def _stage_times(stages: list[dict]) -> dict[str, float]:
    """Time per stage name, the calls of a name summed, and ``total``."""
    out: dict[str, float] = {}
    for s in stages:
        out[s["stage"]] = out.get(s["stage"], 0.0) + s["time_s"]
    out["total"] = sum(s["time_s"] for s in stages)
    return out


def measure(name: str, n_words: int, outputs: tuple[str, ...],
            other_root: Path | None = None) -> dict:
    """Per-stage time and memory of runs of preset ``name``; with ``other_root``,
    that tree's alongside and the paired stage ratios."""
    sides = {"this": ROOT / "src"}
    if other_root is not None:
        sides["other"] = other_root / "src"
    for src in sides.values():
        compileall.compile_dir(src, quiet=1, force=True)  # see the module docstring
    timed: dict[str, list] = {side: [] for side in sides}
    for pair in range(REPEAT):
        for side in reversed(sides) if pair % 2 else sides:
            timed[side].append(_child(sides[side], name, n_words, outputs, traced=False))
    summary = {side: _summary(name, n_words, outputs,
                              timed[side] + [_child(src, name, n_words, outputs, traced=True)])
               for side, src in sides.items()}
    this = summary["this"]
    if other_root is None:
        return this
    other = summary["other"]
    pairs = [(_stage_times(a[0]), _stage_times(b[0]))
             for a, b in zip(timed["this"], timed["other"])]
    ratios = {}
    for stage in pairs[0][0]:
        if stage in pairs[0][1]:
            q1, mid, q3 = np.percentile([a[stage] / b[stage] for a, b in pairs], [25, 50, 75])
            ratios[stage] = {"median": mid, "q1": q1, "q3": q3}
    return this | {"other": {key: other[key]
                             for key in ("passed", "stages", "artifacts", "counters")},
                   "ratios": ratios}


def src_lines(root: Path = ROOT) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src" / "datachan").glob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--words", type=int, help="word count of every run")
    parser.add_argument("--ab", metavar="OTHER_ROOT", help="checkout to compare with")
    parser.add_argument("--child", help="one run in a subprocess, printed as JSON")
    args = parser.parse_args(argv)
    if args.child:
        spec = json.loads(args.child)
        sc = replace(scenario.PRESETS[spec["name"]], n_words=spec["words"],
                     outputs=tuple(spec["outputs"]))
        print(json.dumps([*_run(sc, spec["traced"]), str(Path(scenario.__file__).parent)]))
        return 0
    if not args.out:
        parser.error("--out is required")
    other_root = Path(args.ab).resolve() if args.ab else None
    runs = []
    for name, n_words, outputs in dict.fromkeys(
            (name, args.words or n_words, outputs) for name, n_words, outputs in RUNS):
        runs.append(measure(name, n_words, outputs, other_root))
        stages = runs[-1]["stages"]
        top = max(stages, key=lambda s: s["peak_mb"])
        hwm = next(s for s in stages if s["vm_hwm_mb"] == stages[-1]["vm_hwm_mb"])
        print(f"{name} {n_words} words: stages {sum(s['time_s'] for s in stages):.3f} s, "
              f"highest traced peak {top['peak_mb']:.1f} MB ({top['stage']}), "
              f"VmHWM {hwm['vm_hwm_mb']:.1f} MB (from {hwm['stage']})", flush=True)
    host = {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "cpus": os.cpu_count()}
    doc = {"repeat": REPEAT, "src_lines": src_lines(), "host": host, "runs": runs}
    if other_root:
        # as given, so that a relative path leaves no host path in the file
        doc["ab"] = {"other": args.ab, "other_src_lines": src_lines(other_root)}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
