"""Per-stage trajectory: the time and the `tracemalloc` memory of every stage and writer.

Usage, from the root of a checkout (Python >= 3.10 and numpy):

    python3 bench/stages.py --out BENCH_11.json
    python3 bench/stages.py --out /tmp/small.json --words 20
    python3 bench/stages.py --out BENCH_11.json --baseline parent.json

The script runs ``run_scenario`` in process, with the default configuration:
`stream-prbs10` at 1500 words with ``outputs = report`` (the `datachan report`
path), and `stream-random` at 100, 600, 1000 and 4000 words with every output.
``--words`` sets every run's word count.  The stage records are the ones
``run_scenario`` keeps in ``ScenarioResult.stages``, one per pipeline stage and
artifact writer (stage ``write_<key>``).  Each scenario runs ``REPEAT`` times
untraced, for the median time of each stage by position, and once under
``tracemalloc``, for the traced MB live before and after each stage and the
peak while it ran.  ``--baseline`` embeds an earlier output, for instance one
run on the parent commit.  The artifacts are the same files a plain run writes.
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

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from datachan import scenario  # noqa: E402
from datachan.config import ChannelConfig  # noqa: E402

REPEAT = 5

RUNS = (("stream-prbs10", 1500, ("report",)),) + tuple(
    ("stream-random", n, scenario.ALL_OUTPUTS) for n in (100, 600, 1000, 4000))


def _run(sc: scenario.Scenario, traced: bool) -> tuple[list[dict], bool, dict]:
    """(stage records, passed, artifact sizes and hashes) of one run of ``sc``."""
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
    return result.stages, result.passed, artifacts


def measure(name: str, n_words: int, outputs: tuple[str, ...]) -> dict:
    """Per-stage time and memory of in-process runs of preset ``name``."""
    sc = replace(scenario.PRESETS[name], n_words=n_words, outputs=outputs)
    runs = [_run(sc, traced=False) for _ in range(REPEAT)] + [_run(sc, traced=True)]
    shapes = [([s["stage"] for s in stages], ok, files) for stages, ok, files in runs]
    if any(shape != shapes[0] for shape in shapes):
        raise RuntimeError(f"{name}: the runs differ in stage sequence, verdict or artifacts")
    *timed, (traced, passed, artifacts) = runs
    stages = [record | {"time_s": median(run[0][i]["time_s"] for run in timed)}
              for i, record in enumerate(traced)]
    return {"scenario": name, "words": n_words, "outputs": list(outputs), "passed": passed,
            "stages": stages, "artifacts": artifacts}


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
