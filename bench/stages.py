"""Per-stage trajectory: the time and the `tracemalloc` memory of every stage and writer.

Usage, from the root of a checkout (Python >= 3.10 and numpy):

    python3 bench/stages.py --out BENCH_10.json
    python3 bench/stages.py --out /tmp/small.json --words 20
    python3 bench/stages.py --out BENCH_10.json --baseline parent.json

The script runs ``run_scenario`` in process, with the default configuration:
`stream-prbs10` at 1500 words with ``outputs = report`` (the `datachan report`
path), and `stream-random` at 100, 600, 1000 and 4000 words with every output.
``--words`` sets every run's word count.  Each pipeline stage and artifact
writer (stage ``write_<key>``) is wrapped where ``run_scenario`` calls it.  A
run makes two passes: one calls each stage ``REPEAT`` times and records the
median time, one calls it once under ``tracemalloc`` and records the traced MB
live before and after it and the peak while it ran.  ``--baseline`` embeds an
earlier output, for instance one run on the parent commit.  The artifacts are
the same files a plain run writes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from datachan import scenario  # noqa: E402
from datachan.config import ChannelConfig  # noqa: E402

MB = 1e6
REPEAT = 5

# (module name in ``scenario``, function, stage name)
STAGES = (
    ("stimulus", "stream_stimulus", "stimulus"),
    ("drv", "synthesize_tx", "tx_synthesis"),
    ("golden", "extract_serial", "extract"),
    ("protocol", "check_protocol", "protocol"),
    ("drv", "line_transition_times", "transitions"),
    ("drv", "supply_current", "supply_current"),
    ("specmod", "spectrum", "spectrum"),
    ("specmod", "low_band_ratio", "low_band_ratio"),
    ("measure", "measure_levels", "levels"),
    ("measure", "measure_edge", "edges"),
    ("eyemod", "build_eye", "eye"),
    ("eyemod", "mask_check", "mask"),
)
RUNS = (("stream-prbs10", 1500, ("report",)),) + tuple(
    ("stream-random", n, scenario.ALL_OUTPUTS) for n in (100, 600, 1000, 4000))


class _Recorder:
    """Wraps callables so that each call records one measurement.

    Without tracing, a call runs ``REPEAT`` times and records its median
    time.  Under ``tracemalloc`` it runs once and records its memory.
    """

    def __init__(self):
        self.stages: list[dict] = []

    def wrap(self, name: str, fn):
        def run(*args, **kwargs):
            traced, spans = tracemalloc.is_tracing(), []
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                for _ in range(1 if traced else REPEAT):
                    start = perf_counter()
                    out = fn(*args, **kwargs)
                    spans.append(perf_counter() - start)
                return out
            finally:
                record = {"stage": name}
                if traced:
                    after, peak = tracemalloc.get_traced_memory()
                    record.update(before_mb=before / MB, after_mb=after / MB, peak_mb=peak / MB,
                                  peak_above_before_mb=(peak - before) / MB)
                else:
                    record["time_s"] = median(spans or [perf_counter() - start])
                self.stages.append(record)
        return run


class _Staged:
    """A module whose listed functions go through the recorder."""

    def __init__(self, module, wrapped: dict):
        self._module, self._wrapped = module, wrapped

    def __getattr__(self, name: str):
        return self._wrapped.get(name) or getattr(self._module, name)


def _pass(sc: scenario.Scenario, traced: bool) -> tuple[list[dict], bool, dict]:
    """(stage records, passed, artifact sizes and hashes) of one wrapped run of ``sc``."""
    rec = _Recorder()
    patched = {"advance": rec.wrap("kernel", scenario.advance),
               "ARTIFACTS": tuple((kind, product, key, suffix, rec.wrap("write_" + key, write))
                                  for kind, product, key, suffix, write in scenario.ARTIFACTS)}
    for module in {module for module, _, _ in STAGES}:
        real = getattr(scenario, module)
        patched[module] = _Staged(real, {fn: rec.wrap(stage, getattr(real, fn))
                                         for mod, fn, stage in STAGES if mod == module})
    saved = {attr: getattr(scenario, attr) for attr in patched}
    vars(scenario).update(patched)
    if traced:
        tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as out:
            result = scenario.run_scenario(ChannelConfig(), sc, out)
            artifacts = {key: {"bytes": path.stat().st_size,
                               "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
                         for key, path in result.artifacts.items()}
    finally:
        tracemalloc.stop()
        vars(scenario).update(saved)
    return rec.stages, result.passed, artifacts


def measure(name: str, n_words: int, outputs: tuple[str, ...]) -> dict:
    """Per-stage time and memory of one in-process run of preset ``name``."""
    sc = replace(scenario.PRESETS[name], n_words=n_words, outputs=outputs)
    timed, passed, artifacts = _pass(sc, traced=False)
    traced, *again = _pass(sc, traced=True)
    if again != [passed, artifacts] or [s["stage"] for s in timed] != [s["stage"] for s in traced]:
        raise RuntimeError(f"{name}: the timing and memory passes differ")
    return {"scenario": name, "words": n_words, "outputs": list(outputs), "passed": passed,
            "stages": [t | m for t, m in zip(timed, traced)], "artifacts": artifacts}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "datachan").glob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--words", type=int, help="word count of every run")
    parser.add_argument("--baseline", help="earlier output of this script to embed")
    args = parser.parse_args(argv)
    runs = []
    for name, n_words, outputs in dict.fromkeys(
            (name, args.words or n_words, outputs) for name, n_words, outputs in RUNS):
        runs.append(measure(name, n_words, outputs))
        stages = runs[-1]["stages"]
        top = max(stages, key=lambda s: s["peak_mb"])
        print(f"{name} {n_words} words: stages {sum(s['time_s'] for s in stages):.3f} s, "
              f"highest peak {top['peak_mb']:.1f} MB ({top['stage']})", flush=True)
    host = {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "cpus": os.cpu_count()}
    doc = {"repeat": REPEAT, "src_lines": src_lines(), "host": host, "runs": runs}
    if args.baseline:
        doc["baseline"] = json.loads(Path(args.baseline).read_text())
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
