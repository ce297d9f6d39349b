"""Outside-in tracing: wrap the pipeline's public functions where it looks them up.

Nothing inside the program is changed.  Each wrapper records one span
(name, start, end, parent, scenario id) plus optional work counts, in
memory; the spans are written out when the run ends.  A patch target that
no longer exists raises at install time, so a rename cannot silently drop a
layer from the trace.
"""

from __future__ import annotations

import functools
import importlib
import time
from statistics import median


def _trace_entries(args, out):
    return {"trace_entries": sum(len(h) for h in out.events.values())}


def _stream_events(args, out):
    return {"events": len(out.events)}


def _tx_samples(args, out):
    return {"tx_samples": len(out[0].samples) + len(out[1].samples)}


def _spikes(args, out):
    return {"spikes": len(args[0])}


def _bits(args, out):
    return {"bits": len(out.bits)}


def _fft_len(args, out):
    return {"fft_len": 2 * (len(out.freqs_hz) - 1)}


def _occupied_bins(args, out):
    return {"occupied_bins": int((out.counts != 0).sum())}


def _text_bytes(args, out):
    return {"bytes": len(out)}


# (module, attribute path, span name, counter).  Names imported with
# `from x import y` are patched in the importing module, where the pipeline
# looks them up; names used as `module.attr` are patched in their module.
PATCHES = [
    ("datachan.cli", "main", "cli.main", None),
    ("datachan.cli", "run_scenario", "scenario.run_scenario", None),
    ("datachan.scenario", "build_channel", "netlist.build_channel", None),
    ("datachan.scenario", "advance", "netlist.advance", _trace_entries),
    ("datachan.stimulus", "stream_stimulus", "stimulus.stream_stimulus", _stream_events),
    ("datachan.stimulus", "random_words", "stimulus.words", None),
    ("datachan.stimulus", "gen_prbs", "stimulus.words", None),
    ("datachan.golden", "load_words", "stimulus.words", None),
    ("datachan.golden", "extract_serial", "golden.extract_serial", _bits),
    ("datachan.golden", "golden_serialize", "golden.golden_serialize", None),
    ("datachan.protocol", "check_protocol", "protocol.check_protocol", None),
    ("datachan.driver", "synthesize_tx", "driver.synthesize_tx", _tx_samples),
    ("datachan.driver", "line_transition_times", "driver.line_transition_times", None),
    ("datachan.driver", "supply_current", "driver.supply_current", _spikes),
    ("datachan.spectrum", "spectrum", "spectrum.spectrum", _fft_len),
    ("datachan.spectrum", "low_band_ratio", "spectrum.low_band_ratio", None),
    ("datachan.measure", "measure_levels", "measure.measure_levels", None),
    ("datachan.measure", "measure_edge", "measure.measure_edge", None),
    ("datachan.eye", "build_eye", "eye.build_eye", _occupied_bins),
    ("datachan.eye", "mask_check", "eye.mask_check", None),
    ("datachan.report", "compliance_report", "report.compliance_report", None),
    ("datachan.vcd", "traces_to_vcd", "vcd.traces_to_vcd", _text_bytes),
    ("datachan.driver", "trace_to_csv", "driver.trace_to_csv", _text_bytes),
    ("datachan.spectrum", "Spectrum.to_csv", "spectrum.to_csv", _text_bytes),
    ("datachan.eye", "EyeHistogram.to_csv", "eye.to_csv", _text_bytes),
    ("datachan.golden", "format_bitstream", "golden.format_bitstream", _text_bytes),
    ("datachan.report", "ComplianceReport.to_json", "report.to_json", _text_bytes),
    ("datachan.report", "ComplianceReport.to_text", "report.to_text", _text_bytes),
]

WRITERS = ("vcd.traces_to_vcd", "driver.trace_to_csv", "spectrum.to_csv",
           "eye.to_csv", "golden.format_bitstream", "report.to_json", "report.to_text")

TIMED = sorted({name for _, _, name, _ in PATCHES})
# Work counts, each summed from the counter of the layer it is named after.
COUNTS = ("netlist.trace_entries", "stimulus.events", "driver.tx_samples",
          "driver.spikes", "golden.bits", "spectrum.fft_len", "eye.occupied_bins")


class Tracer:
    """In-memory span recorder that installs wrappers around pipeline names."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            if name == "scenario.run_scenario":
                scenario = index
            else:
                scenario = spans[parent]["scenario"] if parent is not None else None
            span = {"name": name, "parent": parent, "scenario": scenario}
            spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span["counts"] = counter(args, out)
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self._wrap(getattr(owner, leaf), name, counter))


def _self_time(spans: list[dict], name: str) -> float:
    """Duration of spans called ``name`` not covered by their direct children."""
    total = 0.0
    for i, span in enumerate(spans):
        if span["name"] == name:
            children = sum(s["end"] - s["start"] for s in spans if s["parent"] == i)
            total += span["end"] - span["start"] - children
    return total


def layer_metrics(spans: list[dict], speed: float = 1.0) -> dict[str, float]:
    """Per-layer busy time and work counts of one traced workload run.

    Times are multiplied by ``speed``, the host speed factor of the run
    (see calibrate.py), so they read at the reference speed.
    """
    busy = {name: 0.0 for name in TIMED}
    counts: dict[str, int] = {}
    for span in spans:
        busy[span["name"]] += (span["end"] - span["start"]) * speed
        for key, value in span.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value

    out = {f"{name}_s": seconds for name, seconds in busy.items()}
    for metric in COUNTS:
        out[metric] = counts.get(metric.split(".", 1)[1], 0)
    out["netlist.ns_per_entry"] = (busy["netlist.advance"] * 1e9 / out["netlist.trace_entries"]
                                   if out["netlist.trace_entries"] else 0.0)
    writer_s = sum(busy[w] for w in WRITERS)
    out["writers.bytes"] = counts.get("bytes", 0)
    out["writers.mb_per_s"] = out["writers.bytes"] / 1e6 / writer_s if writer_s else 0.0
    out["scenario.self_s"] = _self_time(spans, "scenario.run_scenario") * speed
    out["cli.self_s"] = _self_time(spans, "cli.main") * speed
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(run[key] for run in runs) for key in runs[0]}
