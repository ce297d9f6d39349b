"""Artifact writer trajectory: time every writer of a full `stream-random` run.

Usage, from the root of a checkout (Python >= 3.10 and numpy):

    python3 bench/writers.py --out BENCH_6.json
    python3 bench/writers.py --out /tmp/small.json --words 20

For each word count (default 100, 1000 and 4000) the script runs
``run_scenario`` once in process, with the default configuration and every
output.  Each artifact writer is called five times on its product; the JSON
records the median time of those calls, the artifact's size and sha256, and
the line count of ``src/datachan``.  The timings go only into that file:
the scenario's artifacts are the same files a plain run writes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from datachan import scenario  # noqa: E402
from datachan.config import ChannelConfig  # noqa: E402

REPEAT = 5


def _timed(write, key: str, times: dict[str, float]):
    """``write``, run ``REPEAT`` times, with its median time stored under ``key``."""
    def run(product):
        spans = []
        for _ in range(REPEAT):
            start = perf_counter()
            text = write(product)
            spans.append(perf_counter() - start)
        times[key] = median(spans)
        return text
    return run


def measure(n_words: int) -> dict:
    """Writer times, sizes and hashes of one full `stream-random` run."""
    times: dict[str, float] = {}
    artifacts = scenario.ARTIFACTS
    scenario.ARTIFACTS = tuple((kind, product, key, suffix, _timed(write, key, times))
                               for kind, product, key, suffix, write in artifacts)
    try:
        with tempfile.TemporaryDirectory() as out:
            sc = replace(scenario.PRESETS["stream-random"], n_words=n_words)
            result = scenario.run_scenario(ChannelConfig(), sc, out)
            written = {key: path.read_bytes() for key, path in result.artifacts.items()}
    finally:
        scenario.ARTIFACTS = artifacts
    return {
        "words": n_words,
        "passed": result.passed,
        "writers_s": sum(times.values()),
        "artifacts": {key: {"writer_s": times[key], "bytes": len(data),
                            "sha256": hashlib.sha256(data).hexdigest()}
                      for key, data in written.items()},
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "datachan").glob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--words", type=int, nargs="+", default=[100, 1000, 4000])
    args = parser.parse_args(argv)
    runs = []
    for n in args.words:
        runs.append(measure(n))
        print(f"{n} words: writers {runs[-1]['writers_s']:.3f} s", flush=True)
    doc = {
        "scenario": "stream-random",
        "repeat": REPEAT,
        "src_lines": src_lines(),
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
