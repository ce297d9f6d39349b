"""The benchmark's definition: workloads, metrics, units, directions and bounds.

``python3 perfbench/manifest.py`` writes ``BENCHMARK.json`` at the root of
the checkout from these tables, so the file and the driver cannot disagree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import COUNTS, TIMED

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

WORKLOADS = {
    "stream-full": "the default `datachan run`: one random stream with every artifact; "
                   "the only workload where the writers dominate, next to kernel and analog",
    "stream-verify": "the `datachan report` path: one longer PRBS10 stream, report only; "
                     "kernel and supply current dominate, writers do not run",
    "scenario-batch": "one CLI call with 16 short scenarios (standby, disable, prbs7, fixed, "
                      "word file): per-scenario fixed costs and the protocol edge paths",
}

# bound: share of the parent's median by which the metric may get worse.
END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "words_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "pass_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
]

_SPECIAL = {
    "netlist.ns_per_entry": ("ns", "lower"),
    "writers.bytes": ("B", "lower"),
    "writers.mb_per_s": ("MB/s", "higher"),
    "scenario.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
PER_LAYER = (
    [{"name": f"{name}_s", "unit": "s", "better": "lower"} for name in TIMED]
    + [{"name": name, "unit": "count", "better": "lower"} for name in COUNTS]
    + [{"name": name, "unit": unit, "better": better}
       for name, (unit, better) in _SPECIAL.items()]
)

UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("BENCHMARK.json")
    target.write_text(render())
