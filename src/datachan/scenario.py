"""End-to-end scenario execution: simulate, verify, synthesize, measure, export."""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import driver as drv
from . import eye as eyemod
from . import golden, measure, protocol, report, spectrum as specmod, stimulus, vcd
from .config import ChannelConfig, _parse_input, config_to_text, read_settings
from .errors import ConfigError, NoSettleError, NoTransitionError, ResolutionError
from .netlist import advance, build_channel

ALL_OUTPUTS = ("vcd", "bits", "tx", "eye", "spectrum", "report")
SOURCES = ("random", "prbs7", "prbs10", "fixed", "file", "none")


@dataclass
class Scenario:
    """A reproducible run: data source, control schedule, requested outputs."""

    name: str = "stream-random"
    source: str = "random"           # random | prbs7 | prbs10 | fixed | file
    n_words: int | None = None
    seed: int | None = None
    word_file: str | None = None
    fixed_word: str | None = None    # binary string, leftmost = highest bit
    disable_at_word: int | None = None
    outputs: tuple[str, ...] = ALL_OUTPUTS


PRESETS = {
    "stream-random": Scenario(name="stream-random", source="random"),
    "stream-prbs7": Scenario(name="stream-prbs7", source="prbs7"),
    "stream-prbs10": Scenario(name="stream-prbs10", source="prbs10"),
    "standby": Scenario(name="standby", source="none", outputs=("vcd", "tx", "report")),
    "disable-midword": Scenario(name="disable-midword", source="random",
                                disable_at_word=3),
}


# Scenario file keys: their fields default to None, so the kind is listed.
_SCENARIO_KEYS = {"name": str, "source": str, "word_file": str, "fixed_word": str,
                  "n_words": int, "seed": int, "disable_at_word": int, "outputs": tuple}


def parse_scenario_text(text: str) -> Scenario:
    def parse(key: str, val: str) -> object:
        kind = _SCENARIO_KEYS.get(key)
        if kind is None:
            raise ConfigError(f"unknown key {key!r}")
        if kind is tuple:
            return tuple(v.strip() for v in val.split(",") if v.strip())
        try:
            return kind(val)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {val!r}") from None

    return Scenario(**read_settings(text, parse))


def load_scenario(spec: str) -> Scenario:
    if spec in PRESETS:
        return PRESETS[spec]
    if Path(spec).exists():
        return _parse_input(spec, "scenario file", parse_scenario_text)
    raise ConfigError(f"unknown scenario {spec!r} (not a preset, not a file)")


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    artifacts: dict[str, Path] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    report: report.ComplianceReport | None = None
    messages: list[str] = field(default_factory=list)
    skipped: dict[str, str] = field(default_factory=dict)  # check -> reason
    stages: list[dict] = field(default_factory=list)  # one record per stage call, in order


def _stage(result: ScenarioResult, name: str, fn, /, *args, **kwargs):
    """Return ``fn(*args, **kwargs)``; append its record to ``result.stages``, also if it raises.

    A record holds the wall time and, while ``tracemalloc`` is tracing, the
    traced MB live before and after the call and the peak during it.  Callers
    pass ``fn`` as looked up at the call (``drv.synthesize_tx``, ``advance``),
    so that perfbench/tracing.py's patches are the functions timed.
    """
    traced = tracemalloc.is_tracing()
    if traced:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
    start = perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        record = {"stage": name, "time_s": perf_counter() - start}
        if traced:
            after, peak = tracemalloc.get_traced_memory()
            record.update(before_mb=before / 1e6, after_mb=after / 1e6, peak_mb=peak / 1e6,
                          peak_above_before_mb=(peak - before) / 1e6)
        result.stages.append(record)


# The most Tx samples per leg, FFT points or eye bins one run may need.  Each
# is the length of one float64 array, so this bounds every array of a run at
# 256 MiB.  A 4000-word run at the default 10 ps needs 2.4M Tx samples per
# leg and 2^22 FFT points.  A power of two, so that ``_check_words`` need not
# count the FFT points.
WORK_BUDGET = 1 << 25


def validate_scenario(config: ChannelConfig, sc: Scenario) -> None:
    """Raise ``ConfigError`` for a scenario that ``config`` cannot run.

    The work the run needs is checked against ``WORK_BUDGET`` before anything
    is allocated.  A word file's count is known once it is read: ``_words_for``
    checks it, and it is read here only to check ``disable_at_word``.
    """
    if sc.name in ("", ".", "..") or "/" in sc.name or "\\" in sc.name:
        raise ConfigError(f"scenario name must be a plain file name, got {sc.name!r}")
    if sc.source not in SOURCES:
        raise ConfigError(f"unknown data source {sc.source!r}")
    unknown = [kind for kind in sc.outputs if kind not in ALL_OUTPUTS]
    if unknown:
        raise ConfigError(f"unknown outputs {', '.join(unknown)} "
                          f"(known: {', '.join(ALL_OUTPUTS)})")
    if sc.n_words is not None and sc.n_words < 1:
        raise ConfigError(f"n_words must be at least 1, got {sc.n_words}")
    w = config.word_width
    if sc.fixed_word is not None and (len(sc.fixed_word) != w
                                      or set(sc.fixed_word) - {"0", "1"}):
        raise ConfigError(f"fixed_word must be {w} binary digits, got {sc.fixed_word!r}")
    if sc.source in ("prbs7", "prbs10"):
        # zero bits: only the seed check runs (SeedError is a ConfigError)
        stimulus.prbs_bits(sc.source.upper(), 0,
                           sc.seed if sc.seed is not None else config.seed)
    if sc.source == "file":
        if sc.disable_at_word is not None:
            _words_for(config, sc)
        return
    _check_words(config, sc, 0 if sc.source == "none" else (
        sc.n_words if sc.n_words is not None else config.horizon_words))


def _check_words(config: ChannelConfig, sc: Scenario, n_words: int) -> None:
    """Raise ``ConfigError`` if ``sc`` cannot run on ``n_words`` words: its
    ``disable_at_word`` is not one of them, or it needs more than
    ``WORK_BUDGET`` Tx samples per leg or eye bins.

    The FFT pads the streaming window, a part of a leg, to the next power of
    two: within the power-of-two budget whenever the leg is.
    """
    if sc.disable_at_word is not None and sc.source != "none" and not (
            0 <= sc.disable_at_word < n_words):
        raise ConfigError(f"disable_at_word must be in 0..{n_words - 1} "
                          f"for {n_words} words, got {sc.disable_at_word}")
    until = stimulus.stream_horizon(config, n_words, *_control(config, sc))
    for quantity, count in (("Tx samples per leg", until / config.dt_ps),
                            ("eye bins", config.eye_bins_t * config.eye_bins_v)):
        if count > WORK_BUDGET:
            raise ConfigError(f"the run needs {count:.4g} {quantity}, over the work "
                              f"budget of {WORK_BUDGET}")


def _words_for(config: ChannelConfig, sc: Scenario) -> list[stimulus.Word]:
    n = sc.n_words if sc.n_words is not None else config.horizon_words
    seed = sc.seed if sc.seed is not None else config.seed
    w = config.word_width
    if sc.source == "random":
        return stimulus.random_words(n, seed, w)
    if sc.source in ("prbs7", "prbs10"):
        return stimulus.gen_prbs(sc.source.upper(), n, seed, w)
    if sc.source == "fixed":
        pattern = sc.fixed_word or "1" * w
        return [tuple(int(c) for c in reversed(pattern))] * n
    if not sc.word_file:
        raise ConfigError("scenario source 'file' needs word_file")
    try:
        words = golden.load_words(sc.word_file, w)
    except ValueError as exc:
        raise ConfigError(f"word file {sc.word_file}: {exc}") from None
    _check_words(config, sc, len(words))
    return words


# A standby run lasts this many bit periods.
STANDBY_PERIODS = 200


def _control(config: ChannelConfig, sc: Scenario) -> tuple[stimulus.ProtocolSchedule, int]:
    """The control schedule of ``sc`` and the bit periods its run lasts after the
    last word (after power-on: a standby run never streams)."""
    schedule = stimulus.reset_schedule(config)
    if sc.source == "none":
        return stimulus.ProtocolSchedule(schedule.actions[:1]), STANDBY_PERIODS
    if sc.disable_at_word is not None:
        enable = schedule.times_of(stimulus.Action.ENABLE_PULSE)[0]
        timing = stimulus.timing_for_enable(config, enable)
        t_d = timing.slot_mid(sc.disable_at_word, config.word_width // 2)
        schedule = stimulus.ProtocolSchedule(
            schedule.actions + [(t_d, stimulus.Action.DISABLE_ASSERT)]
        )
    return schedule, 4


# Artifacts in write order: (output kind, product, result key, file suffix,
# writer).  A writer returns the file's bytes; text is encoded as UTF-8.  A
# product the run did not make (no eye from a short window, no bit stream
# from a standby run) writes nothing.  The writers are lambdas so
# that each call looks its function up: perfbench/tracing.py patches
# vcd.traces_to_vcd, driver.trace_to_csv and the to_csv/to_json/to_text
# methods after import, and a function captured here would escape them.
ARTIFACTS = (
    ("vcd", "traces", "vcd", ".vcd", lambda traces: vcd.traces_to_vcd(traces)),
    ("bits", "bits", "bits", ".bits.txt", lambda bits: golden.format_bitstream(bits).encode()),
    ("tx", "tx_plus", "tx_plus", ".tx_plus.csv", lambda tx: drv.trace_to_csv(tx)),
    ("tx", "tx_minus", "tx_minus", ".tx_minus.csv", lambda tx: drv.trace_to_csv(tx)),
    ("eye", "eye", "eye", ".eye.csv", lambda eye: eye.to_csv()),
    ("spectrum", "spectrum", "spectrum", ".spectrum.csv", lambda spec: spec.to_csv()),
    ("report", "report", "report", ".report.json", lambda rep: rep.to_json().encode()),
    ("report", "report", "report_txt", ".report.txt", lambda rep: rep.to_text().encode()),
)


def run_scenario(config: ChannelConfig, sc: Scenario, out_dir: str | Path) -> ScenarioResult:
    """Simulate ``sc``, run its checks and write the requested artifacts.

    Standby (source ``none``) is the reset schedule's first Disable with no
    enable: the channel never streams, and only its pulled-up level is checked.
    Each stage and writer call is recorded in ``result.stages``.
    """
    config.validate()
    validate_scenario(config, sc)
    result = ScenarioResult(name=sc.name, passed=True)
    standby = sc.source == "none"
    words = [] if standby else _words_for(config, sc)
    schedule, tail_periods = _control(config, sc)
    stim = _stage(result, "stimulus", stimulus.stream_stimulus, config, words, schedule,
                  tail_periods)

    netlist = build_channel(config)
    traces = _stage(result, "kernel", advance, netlist, stim.events, stim.until_ps)
    if standby:
        tx_plus, tx_minus, v_off = _synthesize(config, schedule, traces, result)
        result.report = report.compliance_report(
            {"v_off": v_off, "standby_drop": config.driver.avcc_v - v_off},
            config_to_text(config), report.STANDBY_BOUNDS)
        result.checks["compliance"] = result.report.passed
        products = {"tx_plus": tx_plus, "tx_minus": tx_minus}
    else:
        products = _stream_checks(config, sc, words, stim, traces, result)
    products.update(traces=traces, report=result.report)
    result.passed = all(result.checks.values())

    out = Path(out_dir)
    for kind, product, key, suffix, write in ARTIFACTS:
        if kind in sc.outputs and products.get(product) is not None:
            out.mkdir(parents=True, exist_ok=True)
            path = result.artifacts[key] = out / (sc.name + suffix)
            # the record covers the file write too
            _stage(result, "write_" + key, lambda: path.write_bytes(write(products[product])))
    return result


def _synthesize(config: ChannelConfig, schedule: stimulus.ProtocolSchedule, traces,
                result: ScenarioResult) -> tuple[drv.WaveformTrace, drv.WaveformTrace, float]:
    """The Tx pair of ``traces`` and ``v_off``, the median Tx+ level before the
    channel was first enabled: all of a standby run."""
    tx_plus, tx_minus = _stage(result, "tx_synthesis", drv.synthesize_tx,
                               traces, config.driver, config.dt_ps)
    enables = schedule.times_of(stimulus.Action.ENABLE_PULSE)
    n_off = max(1, int((enables[0] - tx_plus.t0_ps) / tx_plus.dt_ps)) if enables else None
    off = tx_plus.samples[:n_off]  # the mean of the middle one or two (np.median imports numpy.ma)
    lo, hi = (len(off) - 1) // 2, len(off) // 2
    return tx_plus, tx_minus, float(np.partition(off, [lo, hi])[lo:hi + 1].mean())


def _stream_checks(config: ChannelConfig, sc: Scenario, words: list[stimulus.Word],
                   stim: stimulus.StreamStimulus, traces, result: ScenarioResult) -> dict:
    """Run the stream checks into ``result``; return the products to write.

    A check that cannot run on this window goes to ``result.skipped``.  The
    supply current and its spectrum come before Tx synthesis, so that neither
    full-length Tx leg is live during the FFT.
    """
    extracted = _stage(result, "extract", golden.extract_serial, traces, config)
    expect = golden.golden_serialize(words, config.word_width,
                                     bit_period=config.bit_period)
    n_cmp = len(extracted.bits)
    result.checks["serial-equivalence"] = (
        (sc.disable_at_word is not None or n_cmp == len(expect.bits))
        and extracted.bits == expect.bits[:n_cmp]
    )
    verdict = _stage(result, "protocol", protocol.check_protocol, traces, stim.schedule, config)
    result.checks["protocol"] = verdict.passed
    result.messages += verdict.warnings

    # analog measurements over the streaming window
    n_rounds = n_cmp // config.word_width
    t_stream0 = stim.timing.slot_start(0, 1)
    t_stream1 = stim.timing.slot_start(max(n_rounds, 1), 1)

    transitions = _stage(result, "transitions", drv.line_transition_times, traces)
    transitions = transitions[(transitions >= t_stream0) & (transitions < t_stream1)]
    current = _stage(result, "supply_current", drv.supply_current, transitions, config.spike,
                     config.dt_ps, t_stream0, t_stream1)
    spec_obj = _stage(result, "spectrum", specmod.spectrum, current)
    del current  # the FFT's buffer: nothing reads it after the spectrum

    tx_plus, tx_minus, v_off = _synthesize(config, stim.schedule, traces, result)

    def window(trace: drv.WaveformTrace) -> drv.WaveformTrace:
        i0 = int((t_stream0 - trace.t0_ps) / trace.dt_ps)
        i1 = int((t_stream1 - trace.t0_ps) / trace.dt_ps)
        return drv.WaveformTrace(trace.dt_ps, trace.samples[i0:i1],
                                 trace.t0_ps + i0 * trace.dt_ps)

    wp, wm = window(tx_plus), window(tx_minus)
    try:
        ratio = _stage(result, "low_band_ratio", specmod.low_band_ratio, spec_obj)
        levels = v_hi, v_lo, swing = _stage(result, "levels", measure.measure_levels, wm)
        rise = _stage(result, "edges", measure.measure_edge, wm, "rise", levels)
        fall = _stage(result, "edges", measure.measure_edge, wm, "fall", levels)
    except (ResolutionError, NoSettleError, NoTransitionError) as exc:
        result.skipped["compliance"] = str(exc)
    else:
        result.report = report.compliance_report(
            {"v_off": v_off, "v_high": v_hi, "v_low": v_lo, "v_swing": swing,
             "rise_ps": rise, "fall_ps": fall, "low_band_ratio": ratio},
            config_to_text(config),
        )
        result.checks["compliance"] = result.report.passed

    try:
        eye_obj = _stage(result, "eye", eyemod.build_eye, wp, wm, config.ui_ps,
                         config.eye_bins_t, config.eye_bins_v,
                         fold_offset_ps=t_stream0 - config.ui_ps / 2.0)
    except ResolutionError as exc:
        eye_obj = None
        result.skipped["eye-mask"] = str(exc)
    else:
        mask = eyemod.EyeMask(config.mask_vertices)
        eye_pass, margin = _stage(result, "mask", eyemod.mask_check, eye_obj, mask)
        result.checks["eye-mask"] = eye_pass
        result.messages.append(f"eye mask margin: {margin * 1e3:.1f} mV")
    return {"bits": extracted, "tx_plus": wp, "tx_minus": wm, "eye": eye_obj,
            "spectrum": spec_obj}
