"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Each test prints a ``[PASS]``/``[FAIL]`` line for its criterion, one per
word width for the criteria that depend on it (visible with ``pytest -s`` or
in captured output), and asserts it.  Tolerances are pinned here and nowhere
else.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from datachan import ChannelConfig, advance, build_channel
from datachan import driver as drv
from datachan import eye as eyemod
from datachan import golden, measure, protocol, spectrum as specmod, stimulus
from datachan.logic import HIGH
from datachan.scenario import PRESETS, run_scenario
from reference_analysis import naive_supply_current, ref_mean_square
from reference_kernel import intervals

POW2_SAMPLES = 1 << 18  # power-of-two spectral window (no padding dilution)
WIDTHS = (8, 10, 16)    # criteria 1, 2, 3 and 9 run at every supported width


def _verdict(num: int, label: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def _stream(width: int, n_words: int):
    """A random stream of ``n_words`` at ``width``: (config, words, stim, traces)."""
    config = ChannelConfig(word_width=width)
    words = stimulus.random_words(n_words, seed=config.seed, width=width)
    stim = stimulus.stream_stimulus(config, words)
    traces = advance(build_channel(config), stim.events, stim.until_ps)
    return config, words, stim, traces


@pytest.fixture(scope="module")
def long_run():
    """One 440-word random stream with synthesized outputs, shared below."""
    config, words, stim, traces = _stream(10, 440)
    t0 = stim.timing.slot_start(0, 1)
    t1 = stim.timing.slot_start(440, 1)
    tx_plus, tx_minus = drv.synthesize_tx(traces, config.driver, config.dt_ps, t0, t1)
    return config, words, stim, traces, tx_plus, tx_minus


def test_criterion_1_oracle_equivalence():
    for width in WIDTHS:
        _criterion_1(width)


def _criterion_1(width: int):
    config = ChannelConfig(word_width=width)
    period = config.bit_period
    t_start = time.monotonic()
    ok = True
    for phase in range(10):
        words = stimulus.random_words(100, seed=100 + phase, width=width)
        sched = stimulus.reset_schedule(
            config, assert_at=round(period / 4 + phase * period / 10))
        stim = stimulus.stream_stimulus(config, words, sched)
        traces = advance(build_channel(config), stim.events, stim.until_ps)
        got = golden.extract_serial(traces, config)
        want = golden.golden_serialize(words, width, bit_period=config.bit_period)
        if got.bits != want.bits:
            ok = False
            break
    elapsed = time.monotonic() - t_start
    ok = ok and elapsed <= 10.0
    _verdict(1, f"width {width}: 1000 random words x 10 enable phases match the "
                f"functional model bit-exactly in {elapsed:.1f} s", ok)


def test_criterion_2_bit_select_sequencing():
    for width in WIDTHS:
        _criterion_2(width)


def _criterion_2(width: int):
    # the window ends at word 100; ten more words keep the stream end out of it
    config, _, stim, traces = _stream(width, 110)
    period = round(config.bit_period)
    t0, t1 = stim.timing.slot_start(1, 1), stim.timing.slot_start(100, 1)

    ok = True
    # one-hot at every select event time in the streaming window
    times = sorted({t for k in range(1, width + 1)
                    for t, _ in traces.events[f"Sel{k}"] if t0 <= t < t1})
    for t in times:
        high = [k for k in range(1, width + 1)
                if traces.level_at(f"Sel{k}", t) is HIGH]
        if len(high) != 1:
            ok = False

    # single-period dwell and period-10 recurrence on the exact grid
    for k in range(1, width + 1):
        ivals = [iv for iv in intervals(traces, f"Sel{k}", HIGH) if t0 <= iv[0] < t1]
        if not all(abs(b - a - period) <= 1 for a, b in ivals):
            ok = False
        starts = [a for a, _ in ivals]
        gaps = np.diff(starts)
        want = [round((r + 1) * width * config.bit_period)
                - round(r * width * config.bit_period) for r in range(len(gaps))]
        if not all(abs(int(g) - w) <= 1 for g, w in zip(gaps, want)):
            ok = False

    # Start's recurring pulse overlaps Sel10's within one serial period
    start_ints = [iv for iv in intervals(traces, "Start", HIGH) if iv[0] >= t0][:50]
    sel_ints = [iv for iv in intervals(traces, f"Sel{width}", HIGH) if iv[0] >= t0]
    for s0, s1 in start_ints:
        if not any(a < s1 and s0 < b for a, b in sel_ints):
            ok = False
    ok = ok and bool(times) and bool(start_ints)
    _verdict(2, f"width {width}: selects are one-hot with single-period dwell, "
                f"period-{width} recurrence, and Start overlaps the last select", ok)


def test_criterion_3_latency_all_disable_phases():
    for width, pinned in ((8, 9697), (10, 12121), (16, 19394)):
        _criterion_3(width, pinned)


def _criterion_3(width: int, pinned: int):
    config = ChannelConfig(word_width=width)
    bound = protocol.latency_bound_ps(config)
    ok = bound == pinned
    for slot in range(1, width + 1):
        words = stimulus.random_words(12, seed=slot, width=width)
        stim = stimulus.stream_stimulus(config, words)
        t_d = stim.timing.slot_mid(3, slot)
        sched = stimulus.ProtocolSchedule(
            stim.schedule.actions + [(t_d, stimulus.Action.DISABLE_ASSERT)])
        stim = stimulus.stream_stimulus(config, words, sched)
        traces = advance(build_channel(config), stim.events, stim.until_ps)
        verdict = protocol.check_protocol(traces, sched, config)
        for rec in verdict.records:
            if rec.latency_ps is None or rec.latency_ps > bound:
                ok = False
    _verdict(3, f"width {width}: disable quiets the channel and enable starts it "
                f"within {pinned} ps for all {width} assertion phases", ok)


def test_criterion_4_output_levels(long_run, tmp_path):
    config, _, _, _, _, tx_minus = long_run
    v_hi, v_lo, _ = measure.measure_levels(tx_minus)
    res = run_scenario(config, PRESETS["standby"], tmp_path)
    by_name = {i.name: i.achieved for i in res.report.items}
    v_off, drop = by_name["v_off"], by_name["standby_drop"]
    ok = (abs(v_off - 3.299) <= 0.5e-3
          and abs(v_hi - 3.299) <= 0.5e-3
          and abs(v_lo - 2.8019) <= 0.5e-3
          and drop <= 10e-3)
    _verdict(4, f"V_off={v_off:.6f} V, V_H={v_hi:.6f} V, V_L={v_lo:.6f} V "
                f"within 0.5 mV; standby drop {drop * 1e3:.2f} mV <= 10 mV", ok)


def test_criterion_5_edge_times(long_run):
    config, _, _, _, _, tx_minus = long_run
    tol = max(1.0, config.dt_ps)
    levels = measure.measure_levels(tx_minus)
    rise = measure.measure_edge(tx_minus, "rise", levels)
    fall = measure.measure_edge(tx_minus, "fall", levels)
    ok = (abs(rise - 104.0) <= tol and abs(fall - 104.0) <= tol
          and abs(rise - fall) <= 0.01 * max(rise, fall))
    _verdict(5, f"20%-80% rise={rise:.2f} ps, fall={fall:.2f} ps, both "
                f"104 ps +/- {tol:g} ps and equal within 1%", ok)


def _trimmed_spectrum(trace):
    assert len(trace.samples) >= POW2_SAMPLES
    return specmod.spectrum(
        drv.WaveformTrace(trace.dt_ps, trace.samples[:POW2_SAMPLES], trace.t0_ps))


def test_criterion_6_low_band_supply_noise(long_run):
    config, _, stim, traces, _, _ = long_run
    t_start = time.monotonic()
    t0, t1 = stim.timing.slot_start(0, 1), stim.timing.slot_start(440, 1)
    transitions = [t for t in drv.line_transition_times(traces) if t0 <= t < t1]
    current = drv.supply_current(transitions, config.spike, config.dt_ps, t0, t1)
    ratio = specmod.low_band_ratio(_trimmed_spectrum(current))

    # single-line baseline driven by the worst pixel-rate pattern
    pattern = [(1, 1, 1, 1, 1, 0, 0, 0, 0, 0)] * 440
    stream = golden.golden_serialize(pattern, bit_period=config.bit_period)
    naive = naive_supply_current(stream, config.spike, config.dt_ps)
    naive_ratio = specmod.low_band_ratio(_trimmed_spectrum(naive))
    elapsed = time.monotonic() - t_start

    ok = ratio < 0.06 and naive_ratio > 0.06 and elapsed <= 5.0
    _verdict(6, f"split-line noise peaks at {ratio * 100:.4f}% of DC below "
                f"500 MHz (< 6%) while the single-line baseline reaches "
                f"{naive_ratio * 100:.2f}% (> 6%) in {elapsed:.1f} s", ok)


def test_criterion_7_eye_mask(long_run):
    config, _, stim, _, tx_plus, tx_minus = long_run
    fold = stim.timing.slot_start(0, 1) - config.ui_ps / 2.0
    eye = eyemod.build_eye(tx_plus, tx_minus, config.ui_ps, config.eye_bins_t,
                           config.eye_bins_v, fold_offset_ps=fold)
    mask = eyemod.EyeMask(config.mask_vertices)
    eye_ok, margin = eyemod.mask_check(eye, mask)

    t_centers = 0.5 * (eye.t_edges_ui[:-1] + eye.t_edges_ui[1:]) - 1.0
    v_centers = 0.5 * (eye.v_edges[:-1] + eye.v_edges[1:])
    central = eye.counts[np.ix_(np.abs(v_centers) < 0.2,
                                np.abs(t_centers) < 0.25)]
    ok = eye_ok and margin > 0 and int(central.sum()) == 0
    _verdict(7, f"random-stream eye clears the keep-out mask with "
                f"{margin * 1e3:.1f} mV margin and an empty central "
                f"0.5 UI x 400 mV window", ok)


def test_criterion_8_numerical_kernels():
    rng = np.random.default_rng(3)
    x = 1e-3 + 2e-4 * rng.standard_normal(4096)
    spec = specmod.spectrum(drv.WaveformTrace(10.0, x))
    parseval = abs(ref_mean_square(spec) / float(np.mean(x**2)) - 1.0)

    const = specmod.spectrum(drv.WaveformTrace(10.0, np.full(1024, 2e-3)))
    const_ok = (abs(const.mags_a[0] - 2e-3) < 1e-15
                and np.all(const.mags_a[1:] < 1e-15))

    n, dt = 4096, 10.0
    k = 100
    t = np.arange(n) * dt * 1e-12
    tone = specmod.spectrum(drv.WaveformTrace(
        dt, 1e-3 + 3e-4 * np.cos(2 * np.pi * (k / (n * dt * 1e-12)) * t)))
    tone_ok = abs(tone.mags_a[k] - 3e-4) < 1e-12

    ui = 606.0606060606061
    tt = 10.0 * np.arange(60000)
    v = 0.2 * np.sin(2 * np.pi * tt / ui)
    p = drv.WaveformTrace(10.0, 3.0 + v / 2)
    m = drv.WaveformTrace(10.0, 3.0 - v / 2)
    e1 = eyemod.build_eye(p, m, ui, fold_offset_ps=11.0)
    e2 = eyemod.build_eye(p, m, ui, fold_offset_ps=11.0 + 6 * ui)
    fold_ok = np.array_equal(e1.counts, e2.counts)

    ok = parseval < 1e-6 and const_ok and tone_ok and fold_ok
    _verdict(8, f"Parseval within {parseval:.1e}, constant and tone spectra "
                f"exact, eye fold invariant under 2-UI shifts", ok)


def test_criterion_9_determinism(tmp_path):
    for width in WIDTHS:
        _criterion_9(width, tmp_path / str(width))


def _criterion_9(width: int, tmp_path):
    config = ChannelConfig(word_width=width)
    sc = replace(PRESETS["stream-prbs7"], n_words=40)
    res_a = run_scenario(config, sc, tmp_path / "a")
    res_b = run_scenario(config, sc, tmp_path / "b")
    ok = set(res_a.artifacts) == set(res_b.artifacts) and len(res_a.artifacts) >= 6
    for kind in res_a.artifacts:
        if res_a.artifacts[kind].read_bytes() != res_b.artifacts[kind].read_bytes():
            ok = False
    _verdict(9, f"width {width}: two identical scenario runs produce byte-identical "
                "VCD/CSV/report artifacts", ok)
