"""Vectorised analog back end and bulk writers against per-element references.

Each reference below is the per-spike, per-event or per-line loop that the
numpy code replaced.  The arithmetic is unchanged, so results must match
bit for bit (compared as raw bytes, which also tells -0.0 from 0.0).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from datachan import driver as drv
from datachan.config import DriverParams, SpikeModel
from datachan.eye import EyeHistogram
from datachan.logic import HIGH, LOW, UNKNOWN
from datachan.spectrum import Spectrum
from datachan.vcd import _identifiers, traces_to_vcd
from reference_analysis import naive_supply_current, transition_times
from reference_kernel import traces_from_histories

# --------------------------------------------------------------------------
# per-element references


def ref_deposit_spike(samples, t0, dt, center, q, w):
    a, b = center - w / 2.0, center + w / 2.0
    i0 = max(0, int(math.floor((a - t0) / dt + 0.5)))
    i1 = min(len(samples) - 1, int(math.ceil((b - t0) / dt + 0.5)))
    if i1 < i0:
        return
    edges = t0 + dt * (np.arange(i0, i1 + 2) - 0.5)
    t = np.clip(edges, a, b)
    left = np.minimum(t, center)
    right = np.maximum(t, center)
    cum = 2.0 * q * (left - a) ** 2 / w**2 + (q - 2.0 * q * (b - right) ** 2 / w**2)
    cum -= q / 2.0
    samples[i0:i1 + 1] += np.diff(cum) / (dt * 1e-12)


def ref_line_transition_times(traces, nets=("Even", "Odd", "nEven", "nOdd")):
    out = []
    for net in nets:
        prev = None
        for t, lvl in traces.events[net]:
            if {prev, lvl} == {HIGH, LOW}:
                out.append(t)
            prev = lvl
    return sorted(out)


def ref_sink_timeline(traces, nets, t_start, t_end):
    times = sorted({t for net in nets for t, _ in traces.events[net]
                    if t_start < t < t_end})
    steps = [(t_start, any(traces.level_at(net, t_start) is LOW for net in nets))]
    for t in times:
        state = any(traces.level_at(net, t) is LOW for net in nets)
        if state != steps[-1][1]:
            steps.append((t, state))
    return steps


def ref_shape_segments(steps, params, dt_ps, t_start, n):
    v_hi, v_lo = params.v_standby, params.v_sink
    out = np.empty(n)
    v = v_lo if steps[0][1] else v_hi
    if params.edge_model == "EXPONENTIAL":
        tau = params.t_rf_ps / drv.LN4 if params.t_rf_ps > 0 else 0.0
    else:
        t_full = params.t_rf_ps / drv._RC_SPAN if params.t_rf_ps > 0 else 0.0
    bounds = [t for t, _ in steps[1:]] + [t_start + n * dt_ps]
    for (seg_t, sinking), seg_end in zip(steps, bounds):
        target = v_lo if sinking else v_hi
        i0 = max(0, math.ceil((seg_t - t_start) / dt_ps))
        i1 = min(n, math.ceil((seg_end - t_start) / dt_ps))
        rel = t_start + dt_ps * np.arange(i0, i1) - seg_t
        if params.edge_model == "EXPONENTIAL":
            if tau == 0.0:
                out[i0:i1] = target
                v = target
            else:
                out[i0:i1] = target + (v - target) * np.exp(-rel / tau)
                v = target + (v - target) * math.exp(-(seg_end - seg_t) / tau)
        else:
            if t_full == 0.0:
                out[i0:i1] = target
                v = target
            else:
                u = np.clip(rel / t_full, 0.0, 1.0)
                out[i0:i1] = v + (target - v) * 0.5 * (1.0 - np.cos(np.pi * u))
                ue = min(max((seg_end - seg_t) / t_full, 0.0), 1.0)
                v = v + (target - v) * 0.5 * (1.0 - math.cos(math.pi * ue))
    return out


def ref_trace_csv(trace):
    lines = ["time_ps,value"]
    for i, v in enumerate(trace.samples):
        lines.append(f"{trace.t0_ps + i * trace.dt_ps:.3f},{v:.6g}")
    return "\n".join(lines) + "\n"


def ref_spectrum_csv(spec):
    lines = ["freq_hz,magnitude_a"]
    for f, m in zip(spec.freqs_hz, spec.mags_a):
        lines.append(f"{f:.6g},{m:.6g}")
    return "\n".join(lines) + "\n"


def ref_eye_csv(eye):
    lines = []
    for row in eye.counts:
        lines.append(",".join(str(int(c)) for c in row))
    return "\n".join(lines) + "\n"


def ref_vcd(traces, module="channel"):
    nets = traces.nets()
    ids = dict(zip(nets, _identifiers(len(nets))))
    out = ["$timescale 1 ps $end", f"$scope module {module} $end"]
    for net in nets:
        out.append(f"$var wire 1 {ids[net]} {net} $end")
    out += ["$upscope $end", "$enddefinitions $end", "#0", "$dumpvars"]
    changes = {}
    for net in nets:
        hist = traces.events[net]
        first = hist[0] if hist else None
        if first is not None and first[0] == 0:
            out.append(f"{'01x'[first[1]]}{ids[net]}")
            rest = hist[1:]
        else:
            out.append(f"x{ids[net]}")
            rest = hist
        for t, lvl in rest:
            changes.setdefault(t, []).append(f"{'01x'[lvl]}{ids[net]}")
    out.append("$end")
    for t in sorted(changes):
        out.append(f"#{t}")
        out.extend(changes[t])
    out.append(f"#{traces.horizon_ps}")
    return "\n".join(out) + "\n"


def assert_same_text(got, want):
    """Exact equality that reports the first differing line, not a diff.

    pytest's own diff of two multi-megabyte strings can run for minutes.
    """
    if got == want:
        return
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    i = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
             min(len(got_lines), len(want_lines)))

    def line(lines):
        return repr(lines[i]) if i < len(lines) else "end of text"

    raise AssertionError(f"texts differ first at line {i + 1}: "
                         f"got {line(got_lines)}, want {line(want_lines)}")


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --------------------------------------------------------------------------
# strategies

SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.5, -2.25, 123456.789]
values = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))
ROWS_PER_CHUNK = drv._FORMAT_CHUNK // 2
LENGTHS = [0, 1, ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK, ROWS_PER_CHUNK + 1]
# the byte-assembled writers also work in passes of this many lines
TRACE_LENGTHS = LENGTHS + [drv._PASS_CELLS - 1, drv._PASS_CELLS, drv._PASS_CELLS + 1]
LINE_NETS = ("Even", "Odd", "nEven", "nOdd")


@st.composite
def histories(draw, max_events=12):
    """A strictly time-ordered history that may or may not start at t = 0."""
    n = draw(st.integers(0, max_events))
    start = draw(st.integers(0, 3))
    gaps = draw(st.lists(st.integers(1, 400), min_size=n, max_size=n))
    levels = draw(st.lists(st.sampled_from([LOW, HIGH, UNKNOWN]), min_size=n, max_size=n))
    times = np.cumsum([start] + gaps)[:n].tolist()
    return list(zip(times, levels))


def tiled(draw_values, n):
    return np.resize(np.asarray(draw_values, dtype=float), n)


# --------------------------------------------------------------------------
# supply current


@settings(max_examples=150, deadline=None)
@given(centers=st.lists(st.floats(-400.0, 2400.0), max_size=40),
       far=st.lists(st.sampled_from([-1e300, -1e9, 1e9, 1e300]), max_size=3),
       n=st.integers(1, 200), t0=st.sampled_from([0.0, 17.5, -250.0]),
       dt=st.sampled_from([10.0, 3.3, 1.0]), w=st.sampled_from([60.0, 7.5, 250.0]))
def test_spike_deposit_matches_per_spike_loop(centers, far, n, t0, dt, w):
    # overlapping spikes, spikes clipped at either end, spikes wholly
    # outside the window and the empty list all come from these ranges
    q = 50e-15
    centers = centers + far
    got = np.full(n, 1e-3)
    drv._deposit_spikes(got, t0, dt, centers, q, w)
    want = np.full(n, 1e-3)
    for c in centers:
        ref_deposit_spike(want, t0, dt, c, q, w)
    assert same_bits(got, want)


def test_spike_deposit_empty_and_outside():
    samples = np.full(50, 2e-3)
    drv._deposit_spikes(samples, 0.0, 10.0, [], 1e-15, 60.0)
    drv._deposit_spikes(samples, 0.0, 10.0, [-1000.0, 5000.0, 1e300], 1e-15, 60.0)
    assert same_bits(samples, np.full(50, 2e-3))


def test_spike_deposit_chunks_keep_spike_order(monkeypatch):
    # many overlapping spikes spread over several deposit passes
    monkeypatch.setattr(drv, "_PASS_CELLS", 40)
    centers = list(np.linspace(0.0, 300.0, 97))
    got = np.zeros(40)
    drv._deposit_spikes(got, 0.0, 10.0, centers, 50e-15, 60.0)
    want = np.zeros(40)
    for c in centers:
        ref_deposit_spike(want, 0.0, 10.0, c, 50e-15, 60.0)
    assert same_bits(got, want)


def test_supply_and_naive_current_share_the_deposit():
    from fractions import Fraction

    from datachan.golden import BitStream

    model = SpikeModel()
    stream = BitStream(bits=[0, 1, 1, 0, 1, 0, 0, 1] * 8,
                       bit_period=Fraction(10**12, 1_650_000_000))
    naive = naive_supply_current(stream, model, 10.0)
    t0 = float(stream.start_time_ps)
    want = np.full(len(naive.samples), model.i_dc_a)
    for t in transition_times(stream):
        ref_deposit_spike(want, t0, 10.0, float(t), 2.0 * model.q_c, model.w_ps)
    assert same_bits(naive.samples, want)


# --------------------------------------------------------------------------
# Tx synthesis and line transitions


@settings(max_examples=120, deadline=None)
@given(hists=st.lists(histories(), min_size=4, max_size=4),
       edge=st.sampled_from(["EXPONENTIAL", "RAISED_COSINE"]),
       t_rf=st.sampled_from([0.0, 104.0, 37.3]),
       dt=st.sampled_from([10.0, 3.0, 1.0]),
       window=st.tuples(st.integers(0, 600), st.integers(1, 3000)),
       chunk=st.sampled_from([7, 256, drv._PASS_CELLS]))
def test_tx_synthesis_matches_per_segment_loop(hists, edge, t_rf, dt, window, chunk):
    horizon = max([h[-1][0] for h in hists if h] + [0]) + 500
    traces = traces_from_histories(dict(zip(LINE_NETS, hists)), horizon)
    params = DriverParams(t_rf_ps=t_rf, edge_model=edge)
    t0, t1 = window[0], window[0] + window[1]
    n = int((t1 - t0) / dt)
    default_chunk, drv._PASS_CELLS = drv._PASS_CELLS, chunk
    try:
        got_plus, got_minus = drv.synthesize_tx(traces, params, dt, t0, t1)
    finally:
        drv._PASS_CELLS = default_chunk
    for nets, got in ((("Even", "Odd"), got_minus), (("nEven", "nOdd"), got_plus)):
        steps = ref_sink_timeline(traces, nets, t0, t1)
        assert drv._sink_timeline(traces, nets, t0, t1) == steps
        assert same_bits(got.samples, ref_shape_segments(steps, params, dt, t0, n))
    assert drv.line_transition_times(traces).tolist() == ref_line_transition_times(traces)


# --------------------------------------------------------------------------
# writers


@pytest.mark.parametrize("n", TRACE_LENGTHS)
@settings(max_examples=15, deadline=None)
@given(vals=st.lists(values, min_size=1, max_size=16),
       t0=st.sampled_from([0.0, 1234.0, -55.5, -0.0, -40.0, 5.0, 99_995.0,
                           999_999_995.0, 2.0**62]),
       dt=st.sampled_from([10.0, 0.5, 2.0, 1.0]))
# 0.0 and -0.0 print differently, so values are told apart by their bits
@example(vals=[0.0, -0.0, 1.5], t0=0.0, dt=10.0)
# integer timestamps crossing 9 -> 10 and 99,999 -> 100,000
@example(vals=[-0.0, 0.0], t0=5.0, dt=1.0)
@example(vals=[1e300, 0.0], t0=99_995.0, dt=1.0)
def test_trace_csv_matches_per_line_format(n, vals, t0, dt):
    trace = drv.WaveformTrace(dt, tiled(vals, n), t0)
    assert_same_text(drv.trace_to_csv(trace), ref_trace_csv(trace))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@settings(max_examples=15, deadline=None)
@given(vals=st.lists(values, min_size=1, max_size=16))
def test_trace_csv_at_line_pass_boundary(offset, vals):
    # ten-digit times make every line equally wide, so a pass holds a known
    # number of lines: the trace ends one line before, on or after a pass
    line = len("1000000000.000,") + max(len("%.6g" % v) for v in vals) + 1
    trace = drv.WaveformTrace(1.0, tiled(vals, drv._PASS_CELLS // line + offset), 1e9)
    assert_same_text(drv.trace_to_csv(trace), ref_trace_csv(trace))


@pytest.mark.parametrize("n", LENGTHS)
@settings(max_examples=15, deadline=None)
@given(freqs=st.lists(values, min_size=1, max_size=16),
       mags=st.lists(values, min_size=1, max_size=16))
def test_spectrum_csv_matches_per_line_format(n, freqs, mags):
    spec = Spectrum(freqs_hz=tiled(freqs, n), mags_a=tiled(mags, n), rbw_hz=1.0)
    assert_same_text(spec.to_csv(), ref_spectrum_csv(spec))


@pytest.mark.parametrize("cols", [0, 1, 3, 128])
@settings(max_examples=15, deadline=None)
@given(counts=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=16),
       extra_rows=st.sampled_from([-1, 0, 1]))
def test_eye_csv_matches_per_line_format(cols, counts, extra_rows):
    # row counts around one formatting chunk, and the empty histogram
    rows = max(0, drv._FORMAT_CHUNK // max(1, cols) + extra_rows) if cols else 3
    grid = np.resize(np.asarray(counts, dtype=np.int64), (rows, cols))
    eye = EyeHistogram(ui_ps=606.0, counts=grid, t_edges_ui=np.zeros(cols + 1),
                       v_edges=np.zeros(rows + 1))
    assert_same_text(eye.to_csv(), ref_eye_csv(eye))


def test_eye_csv_with_no_rows():
    eye = EyeHistogram(ui_ps=606.0, counts=np.zeros((0, 4), dtype=np.int64),
                       t_edges_ui=np.zeros(5), v_edges=np.zeros(1))
    assert eye.to_csv() == ref_eye_csv(eye) == "\n"


@settings(max_examples=120, deadline=None)
@given(hists=st.lists(histories(max_events=30), min_size=1, max_size=6),
       extra=st.integers(0, 1000), copies=st.sampled_from([0, 95]),
       scale=st.sampled_from([1, 10**8]))
@example(hists=[[], [(0, HIGH)]], extra=0, copies=0, scale=1)  # horizon 0
def test_vcd_matches_per_event_loop(hists, extra, copies, scale):
    # copies of the drawn nets: two-character identifiers and many nets
    # changing at one time; scale: change times of 1 to 13 digits
    hists = [[(t * scale, lvl) for t, lvl in h] for h in hists]
    hists = [hists[i % len(hists)] for i in range(len(hists) + copies)]
    events = {f"n{i}": h for i, h in enumerate(hists)}
    horizon = max([h[-1][0] for h in hists if h] + [0]) + extra
    traces = traces_from_histories(events, horizon)
    assert_same_text(traces_to_vcd(traces), ref_vcd(traces))
