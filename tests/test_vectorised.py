"""Vectorised analog back end and bulk writers against per-element references.

Each reference below is the per-spike, per-event or per-line loop that the
numpy code replaced.  The arithmetic is unchanged, so results must match
bit for bit (compared as raw bytes, which also tells -0.0 from 0.0).
"""

import math
import weakref

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
from reference_writers import ref_g6_tables

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


def assert_same_bytes(got, want):
    """A writer's bytes against the reference text, which is ASCII."""
    assert len(got) == memoryview(got).nbytes  # len() counts bytes
    assert_same_text(bytes(got).decode("ascii"), want)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --------------------------------------------------------------------------
# strategies

SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.5, -2.25, 123456.789]
values = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))
ROWS_PER_CHUNK = (1 << 14) // 2
LENGTHS = [0, 1, ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK, ROWS_PER_CHUNK + 1]
# the writers work in passes of _WRITE_CELLS cells, 24 to 42 a Tx CSV line
# here, so traces of _WRITE_CELLS / 2 lines cross 13 to 22 passes
LONG = drv._WRITE_CELLS // 2
TRACE_LENGTHS = LENGTHS + [LONG - 1, LONG, LONG + 1]
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
# several steps inside one sample interval give segments that share their
# first sample, so their runs are empty; the windows start mid-history, and at
# chunk 7 the last run crosses several pass boundaries
@example(hists=[[(0, HIGH), (12, LOW), (14, HIGH), (17, LOW), (19, HIGH), (55, LOW), (56, HIGH)],
                [(0, HIGH), (100, LOW), (101, HIGH), (102, LOW), (108, HIGH)],
                [(0, LOW), (13, HIGH), (18, LOW)],
                [(0, HIGH)]],
         edge="EXPONENTIAL", t_rf=104.0, dt=10.0, window=(5, 300), chunk=7)
@example(hists=[[(1, HIGH), (150, LOW), (151, HIGH), (152, LOW), (160, HIGH), (161, LOW)],
                [(1, LOW), (150, HIGH), (153, LOW)], [(1, HIGH), (151, LOW), (152, HIGH)],
                [(1, LOW), (2, HIGH), (159, LOW), (160, UNKNOWN), (161, HIGH)]],
         edge="RAISED_COSINE", t_rf=37.3, dt=3.0, window=(140, 100), chunk=7)
@example(hists=[[(0, LOW), (21, HIGH), (22, LOW), (23, HIGH), (24, LOW), (70, HIGH)],
                [(0, HIGH)], [(0, HIGH), (21, LOW), (22, HIGH), (23, LOW), (24, HIGH)],
                [(0, HIGH)]],
         edge="EXPONENTIAL", t_rf=0.0, dt=10.0, window=(15, 120), chunk=7)
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
        seg_t, sinking = drv._sink_timeline(traces, nets, t0, t1)
        assert list(zip(seg_t.tolist(), sinking.tolist())) == steps
        assert same_bits(got.samples, ref_shape_segments(steps, params, dt, t0, n))
    assert drv.line_transition_times(traces).tolist() == ref_line_transition_times(traces)


@settings(max_examples=60, deadline=None)
@given(hists=st.lists(histories(), min_size=4, max_size=4),
       edge=st.sampled_from(["EXPONENTIAL", "RAISED_COSINE"]),
       t_rf=st.sampled_from([0.0, 104.0, 37.3]),
       dt=st.sampled_from([0.5, 3.4, 18.9]),
       window=st.tuples(st.integers(0, 600), st.integers(1, 3000)),
       chunk=st.sampled_from([7, 256, drv._PASS_CELLS]))
def test_tx_synthesis_on_a_non_integral_grid_computes_every_sample(hists, edge, t_rf, dt,
                                                                  window, chunk):
    # grid - seg_t is not exact here, so no table of edge shapes is built
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
        assert got.table is None
        steps = ref_sink_timeline(traces, nets, t0, t1)
        assert same_bits(got.samples, ref_shape_segments(steps, params, dt, t0, n))


def test_tx_legs_share_a_table_of_edge_shapes(monkeypatch):
    # the lines repeat every 200 ps, so once the start levels repeat the legs'
    # shapes do: the pair shares a table shorter than a leg, and the samples
    # gathered from it are the per-segment loop's; both CSVs gather from the
    # table's cells, formatted once for the pair and freed with the legs; step
    # times off the integers compute every sample
    formatted, table_cells = [], drv._table_cells
    monkeypatch.setattr(drv, "_table_cells",
                        lambda values: formatted.append(values) or table_cells(values))
    hists = [[(0, HIGH)] + [(t + d, lvl) for t in range(5, 20005, 200)
                            for d, lvl in ((0, LOW), (1, HIGH), (2, LOW), (100, HIGH))],
             [(0, HIGH)],
             [(0, HIGH)] + [(t + d, lvl) for t in range(5, 20005, 200)
                            for d, lvl in ((100, LOW), (190, HIGH))],
             [(0, HIGH)]]
    traces = traces_from_histories(dict(zip(LINE_NETS, hists)), 20500)
    n = (20500 - 3) // 10
    for edge, t_rf in (("EXPONENTIAL", 37.3), ("RAISED_COSINE", 104.0), ("EXPONENTIAL", 0.0)):
        params = DriverParams(t_rf_ps=t_rf, edge_model=edge)
        plus, minus = drv.synthesize_tx(traces, params, 10.0, 3, 20500)
        assert minus.table is plus.table and len(minus.table) < n
        for nets, got in ((("Even", "Odd"), minus), (("nEven", "nOdd"), plus)):
            steps = ref_sink_timeline(traces, nets, 3, 20500)
            assert same_bits(got.samples, ref_shape_segments(steps, params, 10.0, 3, n))
            assert_same_bytes(drv.trace_to_csv(got), ref_trace_csv(got))
        assert len(formatted) == 1 and formatted.pop() is plus.table.values
        cells = weakref.ref(plus.table.cells)
        del plus, minus, got
        assert cells() is None
        seg_t, sinking = drv._sink_timeline(traces, ("Even", "Odd"), 3, 20500)
        moved = seg_t + 0.5
        moved[[0, -1]] = seg_t[[0, -1]]  # only inner times are off the integers
        (leg,) = drv._shape_segments([(moved, sinking)], params, 10.0, 3, n)
        assert leg.table is None
        steps = list(zip(moved.tolist(), sinking.tolist()))
        assert same_bits(leg.samples, ref_shape_segments(steps, params, 10.0, 3, n))


@st.composite
def periodic_lines(draw):
    """Line histories that each go low once a period, so that the Tx legs repeat
    their edge shapes, and their horizon; a line may glitch high for 1 ps, so
    that two steps fall between grid points."""
    period, cycles = draw(st.integers(20, 2000)), draw(st.integers(12, 24))
    hists = []
    for _ in LINE_NETS:
        phase, low = draw(st.integers(1, period - 3)), draw(st.integers(2, period - 1))
        glitch = draw(st.booleans())
        hist = [(0, HIGH)]
        for k in range(cycles):
            t = phase + k * period
            hist += [(t, LOW), (t + 1, HIGH), (t + 2, LOW)] if glitch else [(t, LOW)]
            hist.append((t + low, HIGH))
        hists.append(sorted(set(hist)))
    return hists, (cycles + 1) * period + 500


@settings(max_examples=40, deadline=None)
@given(lines=periodic_lines(),
       edge=st.sampled_from(["EXPONENTIAL", "RAISED_COSINE"]),
       t_rf=st.sampled_from([0.0, 104.0, 37.3]),
       dt=st.sampled_from([3.0, 10.0]),
       cut=st.tuples(st.floats(0.0, 0.25), st.floats(0.75, 1.0)),
       chunk=st.sampled_from([7, drv._PASS_CELLS]),
       write_cells=st.sampled_from([64, 1000, drv._WRITE_CELLS]),
       stamps=st.sampled_from(["window", "1e4", "2**53"]))
# a 1 ps glitch every period gives empty runs; the raised cosine settles
# within a period, so the legs repeat their shapes and the table is written
@example(lines=([[(0, HIGH)] + [(t + d, lvl) for t in range(5, 1205, 200)
                                for d, lvl in ((0, LOW), (1, HIGH), (2, LOW), (100, HIGH))],
                 [(0, HIGH)],
                 [(0, HIGH)] + [(t + d, lvl) for t in range(50, 1250, 200)
                                for d, lvl in ((0, LOW), (100, HIGH))],
                 [(0, HIGH)]], 1700),
         edge="RAISED_COSINE", t_rf=37.3, dt=10.0, cut=(0.1, 1.0), chunk=7, write_cells=64,
         stamps="1e4")
def test_tx_csv_of_a_windowed_leg_of_edge_shapes(lines, edge, t_rf, dt, cut, chunk, write_cells,
                                                  stamps):
    # the window starts mid-segment; the stamps are the window's, or moved to
    # straddle 10^4 (padded low digits) or 2^53 (formatted as floats)
    hists, horizon = lines
    traces = traces_from_histories(dict(zip(LINE_NETS, hists)), horizon)
    params = DriverParams(t_rf_ps=t_rf, edge_model=edge)
    default_chunk, drv._PASS_CELLS = drv._PASS_CELLS, chunk
    try:
        legs = drv.synthesize_tx(traces, params, dt, 3, horizon)
    finally:
        drv._PASS_CELLS = default_chunk
    for leg in legs:
        n = len(leg.samples)
        i0, i1 = int(cut[0] * n), int(cut[1] * n)
        win = leg.window(i0, i1)
        assert same_bits(win.samples, leg.samples[i0:i1])
        assert win.t0_ps == leg.t0_ps + i0 * dt
        t0 = {"window": win.t0_ps, "1e4": max(0.0, 1e4 - dt * (len(win.samples) // 2)),
              "2**53": 2.0**53 - dt * (len(win.samples) // 2)}[stamps]
        trace = drv.WaveformTrace(dt, win.samples, t0, win.table, win.first, win.offset)
        default_cells, drv._WRITE_CELLS = drv._WRITE_CELLS, write_cells
        try:
            got = drv.trace_to_csv(trace)
        finally:
            drv._WRITE_CELLS = default_cells
        assert_same_bytes(got, ref_trace_csv(trace))


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
# integer timestamps on grids that are not integral (one sample at a half
# step; half steps from 2**53), printed by Python's "%.3f"
@example(vals=[1.5], t0=0.0, dt=0.5)
@example(vals=[1.5, -2.0], t0=2.0**53, dt=0.5)
def test_trace_csv_matches_per_line_format(n, vals, t0, dt):
    trace = drv.WaveformTrace(dt, tiled(vals, n), t0)
    assert_same_bytes(drv.trace_to_csv(trace), ref_trace_csv(trace))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@settings(max_examples=15, deadline=None)
@given(vals=st.lists(values, min_size=1, max_size=16))
def test_trace_csv_at_line_pass_boundary(offset, vals):
    # ten-digit times make every line equally wide, so a pass holds a known
    # number of lines: the trace ends one line before, on or after a pass
    line = len("1000000000.000,") + drv._G6_WIDTH + 1
    trace = drv.WaveformTrace(1.0, tiled(vals, drv._WRITE_CELLS // line + offset), 1e9)
    assert_same_bytes(drv.trace_to_csv(trace), ref_trace_csv(trace))


def test_large_outputs_share_a_mapping_only_once_released(monkeypatch):
    # an output still held keeps its bytes while later ones are written; a
    # released one's mapping is reused, grown for a longer output
    monkeypatch.setattr(drv, "_MAPPED_BYTES", 64)
    monkeypatch.setattr(drv, "_mapping", None)
    traces = [drv.WaveformTrace(dt, np.linspace(0.1, 0.9, n), t0)
              for n, dt, t0 in ((300, 1.0, 5.0), (500, 3.0, 0.0), (2000, 10.0, 7.0))]
    held = drv.trace_to_csv(traces[0])
    first = weakref.ref(drv._mapping)  # a reference would count as a holder
    second = drv.trace_to_csv(traces[1])
    assert drv._mapping is not first()
    assert_same_bytes(held, ref_trace_csv(traces[0]))
    assert_same_bytes(second, ref_trace_csv(traces[1]))
    del held, second
    shared = weakref.ref(drv._mapping)
    assert_same_bytes(drv.trace_to_csv(traces[2]), ref_trace_csv(traces[2]))
    assert drv._mapping is shared()
    small = drv.WaveformTrace(1.0, np.ones(2), 0.0)
    assert_same_bytes(drv.trace_to_csv(small), ref_trace_csv(small))
    assert drv._mapping is shared()


@pytest.mark.parametrize("n", LENGTHS)
@settings(max_examples=15, deadline=None)
@given(freqs=st.lists(values, min_size=1, max_size=16),
       mags=st.lists(values, min_size=1, max_size=16))
def test_spectrum_csv_matches_per_line_format(n, freqs, mags):
    spec = Spectrum(freqs_hz=tiled(freqs, n), mags_a=tiled(mags, n), rbw_hz=1.0)
    assert_same_bytes(spec.to_csv(), ref_spectrum_csv(spec))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@settings(max_examples=15, deadline=None)
@given(freqs=st.lists(values, min_size=1, max_size=16),
       mags=st.lists(values, min_size=1, max_size=16))
def test_spectrum_csv_at_line_pass_boundary(offset, freqs, mags):
    # a line is two cells, a comma and a newline, so a pass holds a known
    # number of lines: the spectrum ends one line before, on or after a pass;
    # the ties mid-pass and on the last line are formatted by Python
    n = drv._WRITE_CELLS // (2 * drv._G6_WIDTH + 2) + offset
    f, m = tiled(freqs, n), tiled(mags, n)
    f[n // 2] = 123456.5
    m[n - 1] = -625000.5
    spec = Spectrum(freqs_hz=f, mags_a=m, rbw_hz=1.0)
    assert_same_bytes(spec.to_csv(), ref_spectrum_csv(spec))


def g6_lines(vals):
    """``_g6_cells`` of ``vals`` as text, one value a line."""
    cells = drv._g6_cells(np.asarray(vals, dtype=float))
    lines = np.column_stack((cells, np.full(len(cells), ord("\n"), dtype=np.uint8)))
    return lines[lines != 0].tobytes().decode()


@settings(max_examples=500, deadline=None)
@given(v=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(v=0.0)
@example(v=-0.0)
@example(v=123456.5)       # a tie: Python's % rounds it half to even
@example(v=999999.5)       # mantissa carry, at a tie ...
@example(v=9999995.0)
@example(v=999999.6)       # ... and past one
@example(v=-9999996.0)
@example(v=1e-4)           # fixed notation down to an exponent of -4 ...
@example(v=9.999995e-5)    # ... reached by the carry
@example(v=9.999996e-5)
@example(v=99999.95)       # fixed notation up to 5, left by the carry
@example(v=99999.96)
@example(v=1e100)          # three-digit exponent
@example(v=9.999995e99)
@example(v=9.999996e99)
@example(v=5e-324)
@example(v=1e-300)
@example(v=1e300)
@example(v=-1e-5)
def test_g6_cells_match_percent_format(v):
    assert g6_lines([v]) == "%.6g\n" % v


def test_g6_cells_match_percent_format_on_random_bits():
    # every exponent, both signs, nan and inf payloads, subnormals
    vals = np.random.default_rng(23).integers(0, 2**64, 200_000, dtype=np.uint64).view(float)
    assert_same_text(g6_lines(vals), "".join("%.6g\n" % v for v in vals.tolist()))


def test_g6_cells_fixed_notation_sweep():
    # every head and a few tails at the exponents of fixed notation and one
    # past each end, both signs, and the next float up and down: the head and
    # tail forms of each exponent, and the switches to exponent notation below
    # -4 and above 5
    mant = (np.arange(100, 1000)[:, None] * 1000
            + np.array([0, 1, 10, 100, 120, 500, 999])).ravel().astype(float)
    exact = np.concatenate([mant / 10.0**(5 - x) if x <= 5 else mant * 10.0**(x - 5)
                            for x in range(-6, 8)])
    exact = np.concatenate((exact, -exact))
    vals = np.concatenate((exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)))
    assert len(vals) == 529_200
    assert_same_text(g6_lines(vals), "".join("%.6g\n" % v for v in vals.tolist()))


def test_g6_cells_format_each_uncertified_value_once(monkeypatch):
    # a column of zeros or of ties reaches Python's % once, not once a value;
    # 0.5 is certified and never reaches it
    calls, percent = [], drv._percent_g6
    monkeypatch.setattr(drv, "_percent_g6", lambda vals: calls.append(len(vals)) or percent(vals))
    for v, sent in ((0.0, [1]), (-0.0, [1]), (123456.5, [1]), (0.5, [])):
        assert g6_lines(np.full(100_000, v)) == "%.6g\n" % v * 100_000
        assert calls == sent
        calls.clear()
    mixed = np.tile([0.0, -0.0, 0.5, 123456.5, math.nan, -math.inf, 2.5e-301], 1000)
    assert g6_lines(mixed) == "".join("%.6g\n" % v for v in mixed.tolist())
    assert calls == [6]


def test_g6_tables_match_the_string_built_tables():
    got, want = drv._g6_tables(), ref_g6_tables()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.dtype):
            assert g == w
        else:
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


def test_ascii4_refuses_a_form_longer_than_four_bytes():
    # a table form written one character too long is an error, not cut to four
    assert drv._ascii4(iter(["", "0.", "0.00"])).view("S4").tolist() == [b"", b"0.", b"0.00"]
    with pytest.raises(ValueError, match="'0.000' is longer than four bytes"):
        drv._ascii4(iter(["0.", "0.000", "e"]))


@pytest.mark.parametrize("cols", [0, 1, 3, 128])
@settings(max_examples=15, deadline=None)
@given(counts=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=16),
       extra_rows=st.sampled_from([-1, 0, 1]))
def test_eye_csv_matches_per_line_format(cols, counts, extra_rows):
    # row counts around 2**14 values, and the empty histogram
    rows = max(0, (1 << 14) // max(1, cols) + extra_rows) if cols else 3
    grid = np.resize(np.asarray(counts, dtype=np.int64), (rows, cols))
    eye = EyeHistogram(ui_ps=606.0, counts=grid, t_edges_ui=np.zeros(cols + 1),
                       v_edges=np.zeros(rows + 1))
    assert_same_bytes(eye.to_csv(), ref_eye_csv(eye))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("one_row", [False, True])
@settings(max_examples=10, deadline=None)
@given(counts=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=16))
def test_eye_csv_at_line_pass_boundary(offset, one_row, counts):
    # with -2**63 in the grid every count is a 21-byte cell (a sign, 19
    # digits, a terminator), so a pass holds a known number of counts: the
    # grid, one column or one row, ends one count before, on or after a pass
    n = drv._WRITE_CELLS // 21 + offset
    grid = np.resize(np.asarray(counts, dtype=np.int64), (1, n) if one_row else (n, 1))
    grid[0, 0] = -2**63
    eye = EyeHistogram(ui_ps=606.0, counts=grid, t_edges_ui=np.zeros(grid.shape[1] + 1),
                       v_edges=np.zeros(grid.shape[0] + 1))
    assert_same_bytes(eye.to_csv(), ref_eye_csv(eye))


def test_eye_csv_with_no_rows():
    eye = EyeHistogram(ui_ps=606.0, counts=np.zeros((0, 4), dtype=np.int64),
                       t_edges_ui=np.zeros(5), v_edges=np.zeros(1))
    assert bytes(eye.to_csv()) == ref_eye_csv(eye).encode() == b"\n"


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
    assert_same_bytes(traces_to_vcd(traces), ref_vcd(traces))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_vcd_at_line_pass_boundary(offset):
    # one net changing at every ten-digit time: each change is a 15-byte line
    # ("#t", "\n", level, identifier, "\n"), so a pass holds a known number of
    # changes and the dump ends one change before, on or after a pass
    n = drv._WRITE_CELLS // 15 + offset
    hist = [(10**9 + i, (LOW, HIGH, UNKNOWN)[i % 3]) for i in range(n)]
    traces = traces_from_histories({"A": hist}, 2 * 10**9)
    assert_same_bytes(traces_to_vcd(traces), ref_vcd(traces))
