"""End-to-end scenario execution: simulate, verify, synthesize, measure, export."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import driver as drv
from . import eye as eyemod
from . import golden, measure, protocol, report, spectrum as specmod, stimulus, vcd
from .config import ChannelConfig, config_to_text
from .errors import ConfigError, NoSettleError, NoTransitionError
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


def parse_scenario_text(text: str) -> Scenario:
    sc = Scenario()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"scenario line {lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in ("name", "source", "word_file", "fixed_word"):
            sc = replace(sc, **{key: val})
        elif key in ("n_words", "seed", "disable_at_word"):
            try:
                sc = replace(sc, **{key: int(val)})
            except ValueError:
                raise ConfigError(
                    f"scenario line {lineno}: {key} must be an integer, got {val!r}"
                ) from None
        elif key == "outputs":
            sc = replace(sc, outputs=tuple(v.strip() for v in val.split(",") if v.strip()))
        else:
            raise ConfigError(f"scenario line {lineno}: unknown key {key!r}")
    return sc


def load_scenario(spec: str) -> Scenario:
    if spec in PRESETS:
        return PRESETS[spec]
    path = Path(spec)
    if path.exists():
        return parse_scenario_text(path.read_text())
    raise ConfigError(f"unknown scenario {spec!r} (not a preset, not a file)")


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    artifacts: dict[str, Path] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    report: report.ComplianceReport | None = None
    verdict: protocol.ProtocolVerdict | None = None
    messages: list[str] = field(default_factory=list)


def validate_scenario(config: ChannelConfig, sc: Scenario) -> None:
    """Raise ``ConfigError`` for a scenario that ``config`` cannot run.

    A file source is read here, to check ``disable_at_word`` against its
    word count.
    """
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
    if sc.disable_at_word is not None and sc.source != "none":
        n = len(_words_for(config, sc)) if sc.source == "file" else (
            sc.n_words if sc.n_words is not None else config.horizon_words)
        if not 0 <= sc.disable_at_word < n:
            raise ConfigError(f"disable_at_word must be in 0..{n - 1} "
                              f"for {n} words, got {sc.disable_at_word}")


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
        return golden.load_words(sc.word_file, w)
    except ValueError as exc:
        raise ConfigError(f"word file {sc.word_file}: {exc}") from None


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def run_scenario(config: ChannelConfig, sc: Scenario, out_dir: str | Path) -> ScenarioResult:
    config.validate()
    validate_scenario(config, sc)
    out = Path(out_dir)
    result = ScenarioResult(name=sc.name, passed=True)

    if sc.source == "none":
        return _run_standby(config, sc, out, result)

    words = _words_for(config, sc)
    schedule = stimulus.reset_schedule(config)
    stim = stimulus.stream_stimulus(config, words, schedule)
    timing = stim.timing
    if sc.disable_at_word is not None:
        t_d = timing.slot_mid(sc.disable_at_word, config.word_width // 2)
        schedule = stimulus.ProtocolSchedule(
            schedule.actions + [(t_d, stimulus.Action.DISABLE_ASSERT)]
        )
        stim = stimulus.stream_stimulus(config, words, schedule)

    netlist = build_channel(config)
    traces = advance(netlist, stim.events, stim.until_ps)

    # serializer equivalence against the functional golden model
    extracted = golden.extract_serial(traces, config)
    expect = golden.golden_serialize(words, config.word_width,
                                     bit_period=config.bit_period)
    n_cmp = len(extracted.bits)
    if sc.disable_at_word is None and n_cmp != len(expect.bits):
        result.checks["serial-equivalence"] = False
    else:
        result.checks["serial-equivalence"] = (
            extracted.bits == expect.bits[:n_cmp]
        )
    verdict = protocol.check_protocol(traces, schedule, config)
    result.verdict = verdict
    result.checks["protocol"] = verdict.passed
    result.messages += verdict.warnings

    # analog synthesis over the streaming window
    n_rounds = len(extracted.bits) // config.word_width
    t_stream0 = timing.slot_start(0, 1)
    t_stream1 = timing.slot_start(max(n_rounds, 1), 1)
    tx_plus, tx_minus = drv.synthesize_tx(
        traces, config.driver, config.dt_ps, ui_ps=config.ui_ps
    )

    def window(trace: drv.WaveformTrace) -> drv.WaveformTrace:
        i0 = int((t_stream0 - trace.t0_ps) / trace.dt_ps)
        i1 = int((t_stream1 - trace.t0_ps) / trace.dt_ps)
        return drv.WaveformTrace(trace.dt_ps, trace.samples[i0:i1],
                                 trace.t0_ps + i0 * trace.dt_ps)

    wp, wm = window(tx_plus), window(tx_minus)

    transitions = [t for t in drv.line_transition_times(traces)
                   if t_stream0 <= t < t_stream1]
    current = drv.supply_current(transitions, config.spike, config.dt_ps,
                                 t_stream0, t_stream1)
    spec_obj = specmod.spectrum(current)
    ratio = specmod.low_band_ratio(spec_obj)

    measurements = {
        "v_off": _standby_level(tx_plus, config, schedule),
        "v_high": None, "v_low": None, "v_swing": None,
        "rise_ps": None, "fall_ps": None,
        "low_band_ratio": ratio,
    }
    try:
        v_hi, v_lo, swing = measure.measure_levels(wm)
        measurements.update(v_high=v_hi, v_low=v_lo, v_swing=swing)
        measurements["rise_ps"] = measure.measure_edge(wm, "rise")
        measurements["fall_ps"] = measure.measure_edge(wm, "fall")
    except (NoSettleError, NoTransitionError) as exc:
        result.messages.append(f"level/edge measurement skipped: {exc}")

    rep = None
    if all(v is not None for v in measurements.values()):
        rep = report.compliance_report(measurements, config_to_text(config))
        result.report = rep
        result.checks["compliance"] = rep.passed

    # eye over the streaming window
    eye_obj = mask = None
    if len(wp.samples) * wp.dt_ps >= 100 * config.ui_ps:
        fold = t_stream0 - config.ui_ps / 2.0
        eye_obj = eyemod.build_eye(wp, wm, config.ui_ps, config.eye_bins_t,
                                   config.eye_bins_v, fold_offset_ps=fold)
        mask = eyemod.EyeMask(config.mask_vertices)
        eye_pass, margin = eyemod.mask_check(eye_obj, mask)
        result.checks["eye-mask"] = eye_pass
        result.messages.append(f"eye mask margin: {margin * 1e3:.1f} mV")

    result.passed = all(result.checks.values())

    if "vcd" in sc.outputs:
        result.artifacts["vcd"] = _write(out, f"{sc.name}.vcd",
                                         vcd.traces_to_vcd(traces))
    if "bits" in sc.outputs:
        result.artifacts["bits"] = _write(out, f"{sc.name}.bits.txt",
                                          golden.format_bitstream(extracted))
    if "tx" in sc.outputs:
        result.artifacts["tx_plus"] = _write(out, f"{sc.name}.tx_plus.csv",
                                             drv.trace_to_csv(wp))
        result.artifacts["tx_minus"] = _write(out, f"{sc.name}.tx_minus.csv",
                                              drv.trace_to_csv(wm))
    if "eye" in sc.outputs and eye_obj is not None:
        result.artifacts["eye"] = _write(out, f"{sc.name}.eye.csv", eye_obj.to_csv())
    if "spectrum" in sc.outputs:
        result.artifacts["spectrum"] = _write(out, f"{sc.name}.spectrum.csv",
                                              spec_obj.to_csv())
    if "report" in sc.outputs and rep is not None:
        result.artifacts["report"] = _write(out, f"{sc.name}.report.json",
                                            rep.to_json())
        result.artifacts["report_txt"] = _write(out, f"{sc.name}.report.txt",
                                                rep.to_text())
    return result


def _standby_level(tx_plus: drv.WaveformTrace, config: ChannelConfig,
                   schedule: stimulus.ProtocolSchedule) -> float:
    """Output level before the channel was ever enabled."""
    enables = schedule.times_of(stimulus.Action.ENABLE_PULSE)
    t_end = enables[0] if enables else tx_plus.t0_ps + len(tx_plus.samples) * tx_plus.dt_ps
    n = max(1, int((t_end - tx_plus.t0_ps) / tx_plus.dt_ps))
    return float(np.median(tx_plus.samples[:n]))


def _run_standby(config: ChannelConfig, sc: Scenario, out: Path,
                 result: ScenarioResult) -> ScenarioResult:
    period = config.bit_period
    schedule = stimulus.ProtocolSchedule([
        (round(period / 4), stimulus.Action.DISABLE_ASSERT),
    ])
    until = round(200 * period)
    events = stimulus.merge_events([
        stimulus.clock_events(config, until),
        schedule.to_events(config),
    ])
    netlist = build_channel(config)
    traces = advance(netlist, events, until)
    tx_plus, tx_minus = drv.synthesize_tx(traces, config.driver, config.dt_ps,
                                          ui_ps=config.ui_ps)
    v_off = float(np.median(tx_plus.samples))
    drop = config.driver.avcc_v - v_off
    items = [
        report.ComplianceItem("v_off", 3.290, 3.310, v_off,
                              3.290 <= v_off <= 3.310),
        report.ComplianceItem("standby_drop", None, 0.010, drop, drop <= 0.010),
    ]
    rep = report.ComplianceReport(items=items, config_text=config_to_text(config))
    rep.notes.append("standby: channel never enabled; outputs at pulled-up level")
    result.report = rep
    result.checks["compliance"] = rep.passed
    result.passed = rep.passed

    if "vcd" in sc.outputs:
        result.artifacts["vcd"] = _write(out, f"{sc.name}.vcd",
                                         vcd.traces_to_vcd(traces))
    if "tx" in sc.outputs:
        result.artifacts["tx_plus"] = _write(out, f"{sc.name}.tx_plus.csv",
                                             drv.trace_to_csv(tx_plus))
        result.artifacts["tx_minus"] = _write(out, f"{sc.name}.tx_minus.csv",
                                              drv.trace_to_csv(tx_minus))
    if "report" in sc.outputs:
        result.artifacts["report"] = _write(out, f"{sc.name}.report.json",
                                            rep.to_json())
        result.artifacts["report_txt"] = _write(out, f"{sc.name}.report.txt",
                                                rep.to_text())
    return result
