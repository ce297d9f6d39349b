"""Per-stage memory trajectory: the `tracemalloc` live set and peak of each stage.

Usage, from the root of a checkout (Python >= 3.10 and numpy):

    python3 bench/memory.py --out BENCH_8.json
    python3 bench/memory.py --out /tmp/small.json --words 20
    python3 bench/memory.py --out BENCH_8.json --baseline parent.json

The script runs ``run_scenario`` in process, with the default configuration,
on two scenarios: `stream-prbs10` at 1500 words with ``outputs = report``
(the `datachan report` path) and `stream-random` at 600 words with every
output (``--words`` sets both word counts).  Each pipeline stage is wrapped
where ``run_scenario`` calls it; for every call the JSON records the traced
bytes live before and after it, and the traced peak while it ran, in MB.
Stages called inside another stage (``measure_edge`` calls
``measure_levels``) count towards the outer one only.  ``--baseline`` embeds
an earlier output of this script, for instance one run on the parent commit,
under ``baseline``.  The artifacts are the same files a plain run writes.
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

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from datachan import scenario  # noqa: E402
from datachan.config import ChannelConfig  # noqa: E402

MB = 1e6

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
SCENARIOS = (("stream-prbs10", 1500, ("report",)),
             ("stream-random", 600, scenario.ALL_OUTPUTS))


class _Recorder:
    """Wraps callables so that each outermost call records its memory."""

    def __init__(self):
        self.stages: list[dict] = []
        self._depth = 0

    def wrap(self, name: str, fn):
        def run(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                after, peak = tracemalloc.get_traced_memory()
                self.stages.append({"stage": name, "before_mb": before / MB,
                                    "after_mb": after / MB, "peak_mb": peak / MB,
                                    "peak_above_before_mb": (peak - before) / MB})
        return run


class _Staged:
    """A module whose listed functions go through the recorder."""

    def __init__(self, module, wrapped: dict):
        self._module, self._wrapped = module, wrapped

    def __getattr__(self, name: str):
        return self._wrapped.get(name) or getattr(self._module, name)


def measure(name: str, n_words: int, outputs: tuple[str, ...]) -> dict:
    """Per-stage memory of one in-process run of preset ``name``."""
    rec = _Recorder()
    patched = {"advance": rec.wrap("kernel", scenario.advance),
               "ARTIFACTS": tuple((kind, product, key, suffix, rec.wrap("write_" + key, write))
                                  for kind, product, key, suffix, write in scenario.ARTIFACTS)}
    for module in {module for module, _, _ in STAGES}:
        real = getattr(scenario, module)
        patched[module] = _Staged(real, {fn: rec.wrap(stage, getattr(real, fn))
                                         for mod, fn, stage in STAGES if mod == module})
    saved = {attr: getattr(scenario, attr) for attr in patched}
    for attr, value in patched.items():
        setattr(scenario, attr, value)
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as out:
            sc = replace(scenario.PRESETS[name], n_words=n_words, outputs=outputs)
            result = scenario.run_scenario(ChannelConfig(), sc, out)
            written = {key: path.read_bytes() for key, path in result.artifacts.items()}
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        for attr, value in saved.items():
            setattr(scenario, attr, value)
    return {
        "scenario": name,
        "words": n_words,
        "outputs": list(outputs),
        "passed": result.passed,
        "stages": rec.stages,
        "max_stage_peak_mb": max(s["peak_mb"] for s in rec.stages),
        "artifacts": {key: {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
                      for key, data in written.items()},
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "datachan").glob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--words", type=int, help="words of both scenarios")
    parser.add_argument("--baseline", help="earlier output of this script to embed")
    args = parser.parse_args(argv)
    runs = []
    for name, n_words, outputs in SCENARIOS:
        runs.append(measure(name, args.words or n_words, outputs))
        top = max(runs[-1]["stages"], key=lambda s: s["peak_mb"])
        print(f"{name}: highest stage peak {top['peak_mb']:.1f} MB ({top['stage']})",
              flush=True)
    doc = {
        "src_lines": src_lines(),
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "runs": runs,
    }
    if args.baseline:
        doc["baseline"] = json.loads(Path(args.baseline).read_text())
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
