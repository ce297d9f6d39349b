"""Measurement kernels: levels, edges, eye folding, spectra, compliance."""

import math

import numpy as np
import pytest

from datachan.config import DriverParams
from datachan.driver import WaveformTrace
from datachan.errors import (AlignmentError, NoSettleError, NoTransitionError,
                             ResolutionError)
from datachan.eye import EyeHistogram, EyeMask, build_eye, mask_check
from datachan.measure import measure_edge, measure_levels
from datachan.report import STANDBY_BOUNDS, compliance_report
from datachan.spectrum import low_band_ratio, spectrum
from reference_analysis import ref_mean_square


# --------------------------------------------------------------------------
# levels and edges

def _square_wave(v_hi, v_lo, dt=1.0, half=500, cycles=6, tau=40.0):
    t = np.arange(0, 2 * half * cycles, dt)
    phase = np.mod(t, 2 * half)
    target = np.where(phase < half, v_lo, v_hi)
    # first-order settle toward the target so edges are realistic
    v = np.empty_like(target, dtype=float)
    v[0] = target[0]
    alpha = dt / tau
    for i in range(1, len(v)):
        v[i] = v[i - 1] + (target[i] - v[i - 1]) * alpha
    return WaveformTrace(dt, v)


def test_levels_on_square_wave():
    trace = _square_wave(3.299, 2.8019)
    v_hi, v_lo, swing = measure_levels(trace)
    assert v_hi == pytest.approx(3.299, abs=1e-3)
    assert v_lo == pytest.approx(2.8019, abs=1e-3)
    assert swing == pytest.approx(0.4971, abs=2e-3)


def test_levels_constant_trace():
    trace = WaveformTrace(1.0, np.full(100, 3.299))
    assert measure_levels(trace) == (3.299, 3.299, 0.0)


def test_levels_need_samples():
    with pytest.raises(NoSettleError):
        measure_levels(WaveformTrace(1.0, np.array([])))


def test_edge_on_exponential_is_tau_ln4():
    tau = 104.0 / math.log(4.0)
    trace = _square_wave(3.299, 2.8019, dt=1.0, half=2000, cycles=4, tau=tau)
    levels = measure_levels(trace)
    # discrete first-order settling tracks exp(-t/tau) for dt << tau
    assert measure_edge(trace, "rise", levels) == pytest.approx(104.0, abs=2.0)
    assert measure_edge(trace, "fall", levels) == pytest.approx(104.0, abs=2.0)


def test_edge_on_linear_ramp_is_point6_of_full():
    dt = 1.0
    ramp = np.concatenate([np.zeros(300), np.linspace(0, 1, 201),
                           np.ones(300), np.linspace(1, 0, 201), np.zeros(300)])
    trace = WaveformTrace(dt, ramp)
    levels = measure_levels(trace)
    assert measure_edge(trace, "rise", levels) == pytest.approx(0.6 * 200.0, abs=0.5)
    assert measure_edge(trace, "fall", levels) == pytest.approx(0.6 * 200.0, abs=0.5)


def test_edge_requires_transitions():
    flat = WaveformTrace(1.0, np.full(100, 1.0))
    with pytest.raises(NoTransitionError):
        measure_edge(flat, "rise", measure_levels(flat))
    square = _square_wave(1.0, 0.0)
    with pytest.raises(ValueError):
        measure_edge(square, "sideways", measure_levels(square))


# --------------------------------------------------------------------------
# eye folding and mask

def _eye_traces(ui, n=80000, dt=10.0, seed=0):
    rng = np.random.default_rng(seed)
    t = dt * np.arange(n)
    v = 0.25 * np.sin(2 * np.pi * t / (2 * ui)) + 0.01 * rng.standard_normal(n)
    return (WaveformTrace(dt, 3.0 + v / 2), WaveformTrace(dt, 3.0 - v / 2))


def test_eye_fold_invariance_exact():
    ui = 606.0606060606061
    p, m = _eye_traces(ui)
    base = build_eye(p, m, ui, fold_offset_ps=77.0)
    for shifts in (1, 5):
        again = build_eye(p, m, ui, fold_offset_ps=77.0 + shifts * 2 * ui)
        assert np.array_equal(base.counts, again.counts)


def test_eye_needs_matching_grids():
    ui = 606.06
    p, m = _eye_traces(ui)
    with pytest.raises(AlignmentError):
        build_eye(p, WaveformTrace(m.dt_ps, m.samples, 5.0), ui)
    with pytest.raises(ResolutionError, match="window is 1.7 UI, the eye needs at least 100"):
        build_eye(WaveformTrace(10.0, p.samples[:100]),
                  WaveformTrace(10.0, m.samples[:100]), ui)


def test_eye_total_counts_all_samples():
    ui = 606.06
    p, m = _eye_traces(ui)
    eye = build_eye(p, m, ui)
    assert int(eye.counts.sum()) == len(p.samples)


def test_mask_validation():
    with pytest.raises(ValueError):
        EyeMask(((0.0, 0.0), (1.0, 1.0)))                       # too few
    with pytest.raises(ValueError):
        EyeMask(((-0.2, 0.0), (0.0, 0.1), (0.2, 0.0), (0.0, 0.3)))  # concave
    with pytest.raises(ValueError):
        EyeMask(((-0.1, 0.0), (0.3, 0.2), (0.3, -0.2)))         # asymmetric


def test_mask_contains_and_extent():
    mask = EyeMask(((-0.25, 0.0), (-0.15, 0.2), (0.15, 0.2),
                    (0.25, 0.0), (0.15, -0.2), (-0.15, -0.2)))

    def inside(x, v):
        extent = mask.vertical_extent(x)
        return extent is not None and extent[0] <= v <= extent[1]

    assert inside(0.0, 0.0)
    assert inside(0.0, 0.19)
    assert not inside(0.0, 0.21)
    assert not inside(0.3, 0.0)
    lo, hi = mask.vertical_extent(0.0)
    assert (lo, hi) == (-0.2, 0.2)
    lo, hi = mask.vertical_extent(0.2)
    assert hi == pytest.approx(0.1)
    assert mask.vertical_extent(0.5) is None


def test_mask_check_detects_violation():
    ui = 606.06
    mask = EyeMask(((-0.25, 0.0), (0.0, 0.2), (0.25, 0.0), (0.0, -0.2)))
    counts = np.zeros((64, 64), dtype=np.int64)
    t_edges = np.linspace(0.0, 2.0, 65)
    v_edges = np.linspace(-0.5, 0.5, 65)
    counts[40, 10] = 5  # far from the eye center: no violation
    eye = EyeHistogram(ui, counts, t_edges, v_edges)
    ok, margin = mask_check(eye, mask)
    assert ok and margin > 0
    counts[32, 32] = 1  # dead center of the keep-out
    ok, margin = mask_check(eye, mask)
    assert not ok and margin < 0


def test_mask_margin_shrinks_toward_mask():
    ui = 606.06
    mask = EyeMask(((-0.25, 0.0), (0.0, 0.2), (0.25, 0.0), (0.0, -0.2)))
    t_edges = np.linspace(0.0, 2.0, 65)
    v_edges = np.linspace(-0.5, 0.5, 65)
    margins = []
    for row in (60, 50, 45):
        counts = np.zeros((64, 64), dtype=np.int64)
        counts[row, 32] = 1
        _, margin = mask_check(EyeHistogram(ui, counts, t_edges, v_edges), mask)
        margins.append(margin)
    assert margins[0] > margins[1] > margins[2] > 0


# --------------------------------------------------------------------------
# spectra

def test_spectrum_constant_is_pure_dc():
    trace = WaveformTrace(10.0, np.full(1024, 2.5e-3))
    spec = spectrum(trace)
    assert spec.mags_a[0] == pytest.approx(2.5e-3, rel=1e-12)
    assert np.all(spec.mags_a[1:] < 1e-15)


def test_spectrum_single_tone_amplitude():
    n, dt = 1024, 10.0
    k = 32
    t = np.arange(n) * dt * 1e-12
    f = k / (n * dt * 1e-12)
    x = 1.0e-3 + 0.2e-3 * np.cos(2 * np.pi * f * t)
    spec = spectrum(WaveformTrace(dt, x))
    assert spec.mags_a[k] == pytest.approx(0.2e-3, rel=1e-9)
    assert spec.mags_a[0] == pytest.approx(1.0e-3, rel=1e-9)
    others = np.delete(spec.mags_a, [0, k])
    assert np.all(others < 1e-12)


def test_spectrum_mean_padding_preserves_dc_bin():
    rng = np.random.default_rng(1)
    x = 1e-3 + 1e-5 * rng.standard_normal(1000)  # padded 1000 -> 1024
    spec = spectrum(WaveformTrace(10.0, x))
    assert spec.mags_a[0] == pytest.approx(float(x.mean()), rel=1e-12)


def test_parseval_identity():
    rng = np.random.default_rng(7)
    x = 1e-3 + 2e-4 * rng.standard_normal(1024)  # power of two: no padding
    spec = spectrum(WaveformTrace(10.0, x))
    assert ref_mean_square(spec) == pytest.approx(float(np.mean(x**2)), rel=1e-6)


def test_low_band_ratio_resolution_guard():
    spec = spectrum(WaveformTrace(10.0, np.full(64, 1e-3)))
    with pytest.raises(ResolutionError):
        low_band_ratio(spec)


def test_low_band_ratio_flags_in_band_tone():
    n, dt = 65536, 10.0
    t = np.arange(n) * dt * 1e-12
    f = 216 / (n * dt * 1e-12)  # ~330 MHz, snapped onto the bin grid
    assert 0 < f <= 5e8
    x = 1e-3 + 1e-4 * np.cos(2 * np.pi * f * t)
    ratio = low_band_ratio(spectrum(WaveformTrace(dt, x)))
    assert ratio == pytest.approx(0.1, rel=1e-6)


# --------------------------------------------------------------------------
# compliance

GOOD = {
    "v_off": 3.299, "v_high": 3.299, "v_low": 2.8019, "v_swing": 0.4971,
    "rise_ps": 104.0, "fall_ps": 104.0, "low_band_ratio": 0.001,
}


def test_compliance_passes_at_operating_point():
    rep = compliance_report(dict(GOOD))
    assert rep.passed
    assert {i.name for i in rep.items} == set(GOOD)


def test_compliance_fails_on_doubled_sink_current():
    p = DriverParams(i_sink_a=2 * 9.942e-3)
    meas = dict(GOOD)
    meas["v_low"] = p.v_sink
    meas["v_swing"] = p.v_standby - p.v_sink
    rep = compliance_report(meas)
    assert not rep.passed
    failed = {i.name for i in rep.items if not i.passed}
    assert failed == {"v_low", "v_swing"}


def test_compliance_requires_all_keys():
    with pytest.raises(ValueError):
        compliance_report({"v_off": 3.299})
    with pytest.raises(ValueError, match="standby_drop"):
        compliance_report({"v_off": 3.299}, bounds=STANDBY_BOUNDS)


def test_report_serialization():
    rep = compliance_report(dict(GOOD), config_text="serial_rate_hz = 1\n")
    assert '"pass": true' in rep.to_json()
    text = rep.to_text()
    assert "overall: PASS" in text
    assert "v_low" in text
