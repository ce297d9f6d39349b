"""Whole-array analysis stages: the oracles for the pass-wise versions in ``src/``.

Each function is the analysis code as it was before the stages read their
samples in ``_PASS_CELLS`` passes: it builds the time grid, the
differential signal, the phase and the per-state copies over the whole
window at once.  The pass-wise code must give the same bits.

It also holds the single-line supply baseline that acceptance criterion 6
compares the split-line channel against; nothing in ``src/`` models it.
"""

from types import SimpleNamespace

import numpy as np

from datachan.driver import WaveformTrace, _deposit_spikes
from datachan.errors import NoSettleError, NoTransitionError
from datachan.eye import EyeHistogram

MODE_BINS = 2001


def ref_times(trace):
    return trace.t0_ps + trace.dt_ps * np.arange(len(trace.samples))


def ref_build_eye(tx_plus, tx_minus, ui_ps, bins_t=128, bins_v=128,
                  fold_offset_ps=0.0, v_range=None):
    diff = np.asarray(tx_plus.samples, float) - np.asarray(tx_minus.samples, float)
    phase = np.mod(ref_times(tx_plus) - fold_offset_ps, 2.0 * ui_ps) / ui_ps
    if v_range is None:
        vmax = float(np.abs(diff).max()) * 1.05 + 1e-9
        v_range = (-vmax, vmax)
    counts, t_edges, v_edges = np.histogram2d(
        phase, diff, bins=[bins_t, bins_v],
        range=[[0.0, 2.0], [v_range[0], v_range[1]]],
    )
    return EyeHistogram(ui_ps=ui_ps, counts=counts.T.astype(np.int64),
                        t_edges_ui=t_edges, v_edges=v_edges,
                        fold_offset_ps=fold_offset_ps)


def ref_mask_check(eye, mask):
    """The per-bin loop: one ``vertical_extent`` call per occupied bin."""
    t_centers = 0.5 * (eye.t_edges_ui[:-1] + eye.t_edges_ui[1:]) - 1.0
    v_centers = 0.5 * (eye.v_edges[:-1] + eye.v_edges[1:])
    margin = None
    violated = False
    vi, ti = np.nonzero(eye.counts)
    for iv, it in zip(vi, ti):
        x, v = float(t_centers[it]), float(v_centers[iv])
        extent = mask.vertical_extent(x)
        if extent is None:
            continue
        v_lo, v_hi = extent
        if v < v_lo:
            d = v_lo - v
        elif v > v_hi:
            d = v - v_hi
        else:
            violated = True
            d = -min(v - v_lo, v_hi - v)
        margin = d if margin is None else min(margin, d)
    if margin is None:
        mask_vs = [v for _, v in mask.vertices]
        margin = min(eye.v_edges[-1] - max(mask_vs), min(mask_vs) - eye.v_edges[0])
    return (not violated, float(margin))


def ref_measure_levels(trace):
    v = np.asarray(trace.samples, dtype=float)
    if len(v) == 0:
        raise NoSettleError("empty trace")
    vmin, vmax = float(v.min()), float(v.max())
    if vmax - vmin < 1e-12:
        return vmin, vmin, 0.0
    mid = 0.5 * (vmin + vmax)
    levels = []
    for cls in (v[v > mid], v[v <= mid]):
        counts, edges = np.histogram(cls, bins=MODE_BINS, range=(vmin, vmax))
        k = int(np.argmax(counts))
        if counts[k] < 3:
            raise NoSettleError("no settled interval found")
        sel = cls[(cls >= edges[k]) & (cls <= edges[k + 1])]
        levels.append(float(sel.mean()))
    v_high, v_low = levels
    return v_high, v_low, v_high - v_low


def _up_crossings(t, v, th):
    idx = np.nonzero((v[:-1] < th) & (v[1:] >= th))[0]
    frac = (th - v[idx]) / (v[idx + 1] - v[idx])
    return t[idx] + frac * (t[idx + 1] - t[idx])


def _down_crossings(t, v, th):
    idx = np.nonzero((v[:-1] > th) & (v[1:] <= th))[0]
    frac = (v[idx] - th) / (v[idx] - v[idx + 1])
    return t[idx] + frac * (t[idx + 1] - t[idx])


def ref_measure_edge(trace, which):
    if which not in ("rise", "fall"):
        raise ValueError("which must be 'rise' or 'fall'")
    v_high, v_low, swing = ref_measure_levels(trace)
    if swing <= 0:
        raise NoTransitionError("waveform has no swing")
    th20 = v_low + 0.2 * swing
    th80 = v_low + 0.8 * swing
    t = ref_times(trace)
    v = np.asarray(trace.samples, dtype=float)
    if which == "rise":
        starts = _up_crossings(t, v, th20)
        ends = _up_crossings(t, v, th80)
    else:
        starts = _down_crossings(t, v, th80)
        ends = _down_crossings(t, v, th20)
    durations = []
    j = 0
    for i, t_start in enumerate(starts):
        next_start = starts[i + 1] if i + 1 < len(starts) else np.inf
        while j < len(ends) and ends[j] <= t_start:
            j += 1
        if j < len(ends) and ends[j] < next_start:
            durations.append(ends[j] - t_start)
    if not durations:
        raise NoTransitionError(f"no complete {which} transition found")
    return float(np.mean(durations))


def ref_spectrum(trace):
    x = np.asarray(trace.samples, dtype=float)
    if len(x) == 0:
        raise ValueError("empty trace")
    mean = float(x.mean())
    n = 1 << (len(x) - 1).bit_length()
    if n != len(x):
        x = np.concatenate([x, np.full(n - len(x), mean)])
    X = np.fft.rfft(x) / n
    mags = np.abs(X)
    mags[1:] *= 2.0
    if n % 2 == 0:
        mags[-1] /= 2.0
    dt_s = trace.dt_ps * 1e-12
    freqs = np.fft.rfftfreq(n, d=dt_s)
    return SimpleNamespace(freqs_hz=freqs, mags_a=mags, rbw_hz=1.0 / (n * dt_s))


def ref_mean_square(spec):
    """Parseval: the mean square of the signal from its one-sided amplitudes.

    DC and Nyquist count once; every other bin is a sinusoid of amplitude
    ``m``, whose mean square is ``m**2 / 2``.
    """
    m = spec.mags_a
    return m[0] ** 2 + float(np.sum((m[1:-1] / np.sqrt(2.0)) ** 2)) + m[-1] ** 2


def transition_times(bitstream):
    """Times of data transitions between consecutive bit slots of a ``BitStream``."""
    out = []
    for i in range(1, len(bitstream.bits)):
        if bitstream.bits[i] != bitstream.bits[i - 1]:
            out.append(bitstream.start_time_ps + i * bitstream.bit_period)
    return out


def naive_supply_current(bitstream, model, dt_ps):
    """Single-pre-driver baseline: spikes only where the raw data toggles.

    Each data transition flips both legs of the differential pre-driver
    pair, so it deposits two spike charges.  Spike timing then follows the
    data pattern instead of the fixed bit-rate grid.
    """
    model.validate()
    t0 = float(bitstream.start_time_ps)
    horizon = t0 + float(len(bitstream.bits) * bitstream.bit_period)
    n = int((horizon - t0) / dt_ps)
    samples = np.full(n, model.i_dc_a)
    _deposit_spikes(samples, t0, dt_ps, transition_times(bitstream),
                    2.0 * model.q_c, model.w_ps)
    return WaveformTrace(dt_ps, samples, t0)


def assert_same_array(got, want, what="array"):
    """Same dtype, shape and bytes; on a difference, report the first one.

    Comparing bytes also tells -0.0 from 0.0.  pytest's own report of two
    large arrays would print little more than their reprs.
    """
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        raise AssertionError(f"{what}: got {got.dtype}{got.shape}, "
                             f"want {want.dtype}{want.shape}")
    if got.tobytes() == want.tobytes():
        return
    g = got.reshape(-1).view(np.uint8).reshape(got.size, -1)
    w = want.reshape(-1).view(np.uint8).reshape(want.size, -1)
    i = int(np.flatnonzero((g != w).any(axis=1))[0])
    raise AssertionError(f"{what} differs first at flat index {i} of {got.size}: "
                         f"got {got.reshape(-1)[i]!r}, want {want.reshape(-1)[i]!r}")
