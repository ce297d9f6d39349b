"""Pass-wise analysis stages against their whole-array oracles, and their memory.

The eye, level, edge and spectrum stages read their samples in passes of
``driver._PASS_CELLS``.  They must give the same bits as the whole-array
code in ``reference_analysis``, whatever the window length is relative to a
pass, and they must not allocate temporaries as long as the window.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_analysis
from datachan import driver as drv, eye as eyemod, measure
from datachan.config import ChannelConfig, DriverParams, SpikeModel
from datachan.errors import NoSettleError, NoTransitionError
from datachan.eye import EyeHistogram, EyeMask, build_eye, mask_check
from datachan.measure import measure_edge, measure_levels
from datachan.scenario import PRESETS, run_scenario
from datachan.spectrum import spectrum
from reference_analysis import (assert_same_array, ref_build_eye, ref_mask_check,
                                ref_measure_edge, ref_measure_levels, ref_spectrum,
                                ref_times)

UI = 606.0
P = drv._PASS_CELLS
WINDOWS = [P - 1, P, P + 1, 2 * P + 1]


def shaped_pair(n, dt, t0, seed, noise=0.0, ui=UI, t_rf=104.0):
    """Tx+ and Tx- of random bits, edge-shaped as the driver does, plus noise."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, int(n * dt / ui) + 1).tolist()
    params = DriverParams(t_rf_ps=t_rf)
    seg_t = np.array([t0 + i * ui for i in range(len(bits))])
    legs = []
    for sink in (0, 1):
        v = drv._shape_segments(seg_t, np.array(bits) == sink, params, dt, t0, n)
        legs.append(drv.WaveformTrace(dt, v + rng.normal(0.0, noise, n) if noise else v, t0))
    return legs


def signed_zero_pair(n, dt, t0, seed):
    """Levels 0 and 1, the low level a random mix of 0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    bit = (np.arange(n) * dt // UI).astype(np.int64) % 7 % 2 == 1
    zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    legs = [np.where(bit, 1.0, zeros), np.where(bit, zeros, 1.0)]
    legs[0][::97] = 0.5  # some samples between the levels
    return [drv.WaveformTrace(dt, v, t0) for v in legs]


def outcome(fn, *args):
    """The result of ``fn``, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (NoSettleError, NoTransitionError) as exc:
        return type(exc).__name__, str(exc)


def edge(trace, which):
    """``measure_edge`` at the levels ``measure_levels`` finds, as the pipeline calls it."""
    return measure_edge(trace, which, measure_levels(trace))


def assert_same_outcome(got, want, what):
    """Equal levels, edge time or error.

    Compared with ``==``: where a trace's minimum or maximum is a zero held
    both as 0.0 and as -0.0, the sign numpy's reduction returns depends on
    the order it visits the samples in, and the passes change that order.
    """
    assert got == want, f"{what}: got {got!r}, want {want!r}"


def assert_same_eye(got, want):
    assert isinstance(got, EyeHistogram)
    assert (got.ui_ps, got.fold_offset_ps) == (want.ui_ps, want.fold_offset_ps)
    assert_same_array(got.counts, want.counts, "counts")
    assert_same_array(got.t_edges_ui, want.t_edges_ui, "t_edges_ui")
    assert_same_array(got.v_edges, want.v_edges, "v_edges")


def assert_same_analysis(plus, minus, ui, fold):
    """Eye, levels, both edges and the spectrum equal their oracles."""
    assert_same_eye(build_eye(plus, minus, ui, fold_offset_ps=fold),
                    ref_build_eye(plus, minus, ui, fold_offset_ps=fold))
    for trace in (plus, minus):
        assert_same_outcome(outcome(measure_levels, trace),
                            outcome(ref_measure_levels, trace), "levels")
        for which in ("rise", "fall"):
            assert_same_outcome(outcome(edge, trace, which),
                                outcome(ref_measure_edge, trace, which), which)
    got, want = spectrum(plus), ref_spectrum(plus)
    assert_same_array(got.mags_a, want.mags_a, "magnitudes")
    assert_same_array(got.freqs_hz, want.freqs_hz, "frequencies")
    assert got.rbw_hz == want.rbw_hz


# --------------------------------------------------------------------------
# equality at the pass boundaries


@pytest.mark.parametrize("n", WINDOWS)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dt=st.sampled_from([10.0, 3.3]),
       t0=st.sampled_from([0.0, 10040.0, -55.5, 1234.5]),
       fold=st.sampled_from([0.0, 9737.0, -303.25]),
       noise=st.sampled_from([0.0, 2e-3]))
def test_analysis_matches_whole_array_oracles(n, seed, dt, t0, fold, noise):
    plus, minus = shaped_pair(n, dt, t0, seed, noise)
    assert_same_analysis(plus, minus, UI, fold)


@pytest.mark.parametrize("n", WINDOWS)
def test_analysis_with_signed_zeros(n):
    plus, minus = signed_zero_pair(n, 10.0, 10040.0, seed=n)
    assert_same_analysis(plus, minus, UI, 9737.0)


@pytest.mark.parametrize("n", WINDOWS)
def test_flat_signed_zero_levels(n):
    # a flat trace returns its minimum as both levels
    zeros = np.where(np.random.default_rng(n).random(n) < 0.5, -0.0, 0.0)
    for samples in (zeros, -zeros, np.full(n, -0.0)):
        trace = drv.WaveformTrace(10.0, samples, 5.0)
        assert_same_outcome(measure_levels(trace), ref_measure_levels(trace), "levels")
        with pytest.raises(NoTransitionError):
            edge(trace, "rise")


@pytest.mark.parametrize("which", ["rise", "fall"])
def test_edge_between_two_passes(which):
    # edge k starts at sample P + 1000k and ramps over 2 to 5 samples, except
    # edge 0: a step from sample P - 1, the last of a pass, to sample P
    k, local = np.divmod(np.arange(2 * P + 1) - P, 1000)
    ramp = np.where(k == 0, 1, 2 + k % 4)
    up = np.minimum(1.0, (local + 1) / ramp)
    v = np.where(k % 2 == 0, up, 1.0 - up)
    trace = drv.WaveformTrace(10.0, v if which == "rise" else 1.0 - v, 10040.0)
    assert_same_outcome(edge(trace, which), ref_measure_edge(trace, which), which)


@pytest.mark.parametrize("chunk", [7, 64])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2000, 2600),
       t0=st.sampled_from([0.0, -55.5, 1234.5]),
       noise=st.sampled_from([0.0, 2e-3]))
def test_analysis_in_many_small_passes(chunk, seed, n, t0, noise):
    # crossings and mode-bin samples fall on every side of many pass boundaries
    plus, minus = shaped_pair(n, 1.0, t0, seed, noise, ui=20.0, t_rf=5.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(drv, "_PASS_CELLS", chunk)
        assert_same_analysis(plus, minus, 20.0, t0 - 10.0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 3 * P), data=st.data(),
       t0=st.sampled_from([0.0, -0.0, 10040.0, -55.5, 2.0**62]),
       dt=st.sampled_from([10.0, 3.3, 1.0]))
def test_times_range_is_a_slice_of_the_grid(n, data, t0, dt):
    trace = drv.WaveformTrace(dt, np.zeros(n), t0)
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    grid = ref_times(trace)
    assert_same_array(trace.times(), grid, "times()")
    assert_same_array(trace.times(start), grid[start:], "times(start)")
    assert_same_array(trace.times(start, stop), grid[start:stop], "times(start, stop)")


# --------------------------------------------------------------------------
# binning: the bins of np.histogram2d and np.histogram

BIN_COUNTS = [1, 2, 3, 7, 100, 128, 2001]
# the eye's derived voltage range when the largest |Tx+ - Tx-| is 0.5
V_MAX = 0.5 * 1.05 + 1e-9


def result_or_error(fn, *args):
    """The result of ``fn``, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, NoSettleError) as exc:
        return type(exc).__name__, str(exc)


def on_and_beside(edges):
    """The edges, and the float just below and just above each of them."""
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


@settings(max_examples=80, deadline=None)
@given(bins=st.lists(st.sampled_from(BIN_COUNTS), min_size=2, max_size=2, unique=True),
       ui=st.one_of(st.sampled_from([1.0, 606.0606060606061]), st.floats(0.05, 1e3)),
       per_ui=st.one_of(st.sampled_from([2.7027027027027026]), st.floats(2.0, 60.0)),
       t0=st.one_of(st.sampled_from([0.0, -0.0, 10040.0, 2.0**50]), st.floats(-1e7, 1e7)),
       fold=st.one_of(st.sampled_from([0.0, 0.15, -1.3]), st.floats(-1e7, 1e7)),
       seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([997, P]))
# phases on the time edges: a step of 2 / bins_t at one UI
@example(bins=[128, 100], ui=1.0, per_ui=64.0, t0=0.0, fold=0.0, seed=1, chunk=P)
@example(bins=[7, 2001], ui=1.0, per_ui=3.5, t0=0.0, fold=0.0, seed=2, chunk=997)
# phases on the wrap, from below zero: -2^-1074 folds to 2 UI, the right edge
@example(bins=[128, 100], ui=1.0, per_ui=2.0, t0=0.0, fold=2.0**-1074, seed=3, chunk=P)
@example(bins=[3, 128], ui=1.0, per_ui=2.0, t0=-1e6, fold=0.0, seed=4, chunk=997)
# decimal steps, every fourth on the wrap but for rounding, out to some 250 UI
@example(bins=[1, 2], ui=0.05, per_ui=2.0, t0=0.0, fold=0.15, seed=0, chunk=997)
# a UI of dt * bins_t / 2: every sample on a time edge
@example(bins=[128, 100], ui=640.0, per_ui=64.0, t0=10040.0, fold=9720.0, seed=5, chunk=P)
@example(bins=[100, 128], ui=640.0, per_ui=64.0, t0=10040.0, fold=-9720.0, seed=6, chunk=997)
def test_eye_bins_match_histogram2d(bins, ui, per_ui, t0, fold, seed, chunk):
    bins_t, bins_v = bins
    rng = np.random.default_rng(seed)
    dt = ui / per_ui
    n = int(np.ceil(100.0 * per_ui)) + 1 + int(rng.integers(0, 300))
    v_edges = np.histogram_bin_edges(np.empty(0), bins_v, (-V_MAX, V_MAX))
    # on and beside every voltage edge within ±0.5, so the derived range stays ±V_MAX
    near = on_and_beside(v_edges)
    pool = [np.array([0.0, -0.0, 0.5, -0.5]), rng.uniform(-0.5, 0.5, 64), near[abs(near) <= 0.5]]
    plus = rng.choice(np.concatenate(pool), n)
    plus[rng.integers(n)] = rng.choice([0.5, -0.5])
    minus = np.where(rng.random(n) < 0.5, -0.0, 0.0)  # a difference keeps its sign of zero
    traces = [drv.WaveformTrace(dt, v, t0) for v in (plus, minus)]
    args = (*traces, ui, bins_t, bins_v)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(drv, "_PASS_CELLS", chunk)
        got = build_eye(*args, fold_offset_ps=fold)
    assert_same_array(got.v_edges, v_edges, "v_edges")
    assert_same_eye(got, ref_build_eye(*args, fold_offset_ps=fold))


@pytest.mark.parametrize("lo, width, bins, everything", [
    (3.0, 1e-12, 100, True),  # a margin of 0.7 bins: every value takes the exact path
    (-V_MAX, 2 * V_MAX, 128, False),  # only values on and beside the inner edges do
])
def test_bin_index_sends_what_it_cannot_certify_to_the_exact_path(lo, width, bins, everything):
    edges = np.histogram_bin_edges(np.empty(0), bins, (lo, lo + width))
    near = on_and_beside(edges)
    x = np.concatenate([near[(near >= edges[0]) & (near <= edges[-1])],
                        np.random.default_rng(7).uniform(edges[0], edges[-1], 1000)])
    sent, exact = [], drv._histogram_bins
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(drv, "_histogram_bins", lambda v, e: sent.append(v) or exact(v, e))
        got = drv._bin_index(x, edges)
    assert_same_array(got, exact(x, edges), "bins")
    assert_same_array(np.bincount(got, minlength=bins),
                      np.histogram(x, bins, (edges[0], edges[-1]))[0], "counts")
    want = x if everything else on_and_beside(edges[1:-1])
    assert_same_array(np.sort(np.concatenate(sent)), np.sort(want), "sent")


def test_few_values_take_the_exact_path_on_a_report_window(tmp_path):
    """On the default 1500-word ``stream-prbs10`` report window, under 1% of the
    values that the eye and the level measurement bin take the exact path, so
    a margin that sent them all there would fail here, not only in a bench."""
    seen = {"eye time": [0, 0], "voltage": [0, 0]}

    def counting(real, tally):
        def floor_bins(c, n, m, d, exact):
            tally[0] += len(c)

            def sent(w):
                tally[1] += len(w)
                return exact(w)
            return real(c, n, m, d, sent)
        return floor_bins

    sc = replace(PRESETS["stream-prbs10"], n_words=1500, outputs=("report",))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eyemod, "_floor_bins", counting(eyemod._floor_bins, seen["eye time"]))
        mp.setattr(drv, "_floor_bins", counting(drv._floor_bins, seen["voltage"]))
        assert run_scenario(ChannelConfig(), sc, tmp_path).passed
    (n, _), (binned, _) = seen["eye time"], seen["voltage"]
    assert n > 900_000 and binned == 2 * n  # the eye's two axes and the levels
    total, exact = np.sum(list(seen.values()), axis=0)
    assert exact < 0.01 * total, seen


@settings(max_examples=80, deadline=None)
@given(bins=st.sampled_from(BIN_COUNTS),
       lo=st.sampled_from([0.0, -0.0, -0.4, 1.2, 1.0e6]),
       width=st.sampled_from([1.0, 0.3, 2.5e-12, 1e-13, 2e-9]),
       n=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([7, P]))
def test_levels_bins_match_histogram(bins, lo, width, n, seed, chunk):
    # 1e6 with a 2e-9 range is too narrow for the bins to differ: numpy refuses it
    rng = np.random.default_rng(seed)
    hi = lo + width
    pool = [on_and_beside(np.linspace(lo, hi, bins + 1)), np.full(8, lo), np.full(8, hi)]
    if lo <= 0.0 <= hi:
        pool.append(np.array([0.0, -0.0] * 4))
    v = rng.choice(np.concatenate(pool), n)
    v[:2] = lo, hi
    trace = drv.WaveformTrace(10.0, v, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "_MODE_BINS", bins)
        mp.setattr(reference_analysis, "MODE_BINS", bins)
        mp.setattr(drv, "_PASS_CELLS", chunk)
        got = result_or_error(measure_levels, trace)
        want = result_or_error(ref_measure_levels, trace)
    assert_same_outcome(got, want, "levels")


# --------------------------------------------------------------------------
# edge pairing: each start with the first end after it, before the next start


def edge_trace(levels, t0=0.0, dt=10.0, which="rise"):
    """A trace of the given sample levels (0 low, 1 high), each held for three
    samples so that both levels settle; a fall is the rise mirrored."""
    v = np.repeat(np.asarray(levels, dtype=float), 3)
    return drv.WaveformTrace(dt, v if which == "rise" else 1.0 - v, t0)


def up_crossings(trace, th):
    t, v = ref_times(trace), trace.samples
    idx = np.nonzero((v[:-1] < th) & (v[1:] >= th))[0]
    return t[idx] + (th - v[idx]) / (v[idx + 1] - v[idx]) * (t[idx + 1] - t[idx])


EDGE_CASES = {
    # two starts before one end: only the later one pairs
    "two-starts-one-end": [0, 0.5, 0, 0.5, 1, 1],
    # the last start pairs with an end after it
    "end-after-last-start": [0, 0.3, 0.6, 0.9, 1, 0, 0.5, 1],
    # an end with no start before it, then a start with no end after it
    "unpaired-end-and-start": [0.5, 1, 0, 0.5],
    "ends-with-no-start": [0.5, 1, 0],
    "starts-with-no-end": [1, 0, 0.5],
}


@pytest.mark.parametrize("which", ["rise", "fall"])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_pairing_matches_reference(case, which):
    trace = edge_trace(EDGE_CASES[case], which=which)
    assert_same_outcome(outcome(edge, trace, which), outcome(ref_measure_edge, trace, which),
                        which)


@pytest.mark.parametrize("which", ["rise", "fall"])
def test_edge_end_at_a_start_time_does_not_pair(which):
    # at 2^53 ps, where floats are 2 ps apart, samples 0.25 ps apart share a
    # time: a one-sample jump from low to high crosses 20% and 80% at the same
    # time.  The next rise is a ramp whose crossings are 2 ps apart.
    levels = [0, 1, 0, 0.3, 0.6, 0.9, 1]
    trace = edge_trace(levels, t0=2.0**53, dt=0.25, which=which)
    rise = edge_trace(levels, t0=2.0**53, dt=0.25)
    starts, ends = up_crossings(rise, 0.2), up_crossings(rise, 0.8)
    assert starts[0] == ends[0] and len(starts) == len(ends) == 2
    got = outcome(edge, trace, which)
    assert_same_outcome(got, outcome(ref_measure_edge, trace, which), which)
    assert got == ends[1] - starts[1]


# --------------------------------------------------------------------------
# mask check: one extent per time column


def grid_eye(counts, half):
    """An eye of ``counts`` over two UI and ``[-half, half]``."""
    bins_v, bins_t = counts.shape
    return EyeHistogram(ui_ps=UI, counts=counts, t_edges_ui=np.linspace(0.0, 2.0, bins_t + 1),
                        v_edges=np.linspace(-half, half, bins_v + 1))


@st.composite
def eyes(draw):
    bins_t = draw(st.sampled_from([1, 2, 4, 5, 128]))
    bins_v = draw(st.sampled_from([1, 2, 3, 128]))
    half = draw(st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.5, 0.8]))
    density = draw(st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.where(rng.random((bins_v, bins_t)) < density,
                      rng.integers(1, 1000, (bins_v, bins_t)), 0)
    return grid_eye(counts, half)


@settings(max_examples=300, deadline=None)
@given(eye=eyes())
# the bin centered on the mask's lower edge at the eye center (margin -0.0)
@example(eye=grid_eye(np.array([[1], [0]]), 0.4))
# bins on the mask's boundary at its corners, ±0.25 UI, and beside its span
@example(eye=grid_eye(np.array([[1, 1, 1, 1]]), 0.4))
# bins occupied beside the mask's span only: the grid-edge fallback
@example(eye=grid_eye(np.ones((3, 2), dtype=np.int64), 0.5))
def test_mask_check_matches_per_bin_loop(eye):
    mask = EyeMask(ChannelConfig().mask_vertices)
    got, want = mask_check(eye, mask), ref_mask_check(eye, mask)
    assert got[0] == want[0]
    assert_same_array(got[1], want[1], "margin")


def test_mask_check_on_built_eyes():
    mask = EyeMask(ChannelConfig().mask_vertices)
    for seed, noise in ((1, 0.0), (2, 2e-3), (3, 0.05)):
        plus, minus = shaped_pair(20_000, 10.0, 0.0, seed, noise)
        eye = build_eye(plus, minus, UI, fold_offset_ps=-UI / 2)
        got, want = mask_check(eye, mask), ref_mask_check(eye, mask)
        assert got[0] == want[0]
        assert_same_array(got[1], want[1], "margin")


# --------------------------------------------------------------------------
# memory


N_BIG = 1_000_000
PASS_BOUND = 16 * P * 8  # bytes


@pytest.fixture(scope="module")
def big_pair():
    return shaped_pair(N_BIG, 10.0, 10040.0, seed=5)


def traced_peak(fn, *args, **kwargs):
    """Traced peak, in bytes, of ``fn`` above what was live when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", ["eye", "levels", "rise", "fall"])
def test_analysis_memory_is_bounded_by_passes(big_pair, stage):
    plus, minus = big_pair
    if stage == "eye":
        peak = traced_peak(build_eye, plus, minus, UI, fold_offset_ps=10040.0 - UI / 2)
    elif stage == "levels":
        peak = traced_peak(measure_levels, minus)
    else:
        peak = traced_peak(measure_edge, minus, stage, measure_levels(minus))
    assert peak < PASS_BOUND, f"{stage}: {peak / 1e6:.2f} MB above the inputs"


EYE_BINS = 2048  # 4M cells: a temporary the size of the grid would double the peak


@pytest.fixture(scope="module")
def fine_eye_pair():
    return shaped_pair(20_000, 10.0, 0.0, seed=7, noise=2e-3)


def test_eye_holds_its_counts_and_a_pass(fine_eye_pair):
    counts = 8 * EYE_BINS**2
    peak = traced_peak(build_eye, *fine_eye_pair, UI, EYE_BINS, EYE_BINS, fold_offset_ps=-UI / 2)
    assert peak <= counts + PASS_BOUND, f"{peak / 1e6:.2f} MB above the input"


def test_eye_csv_holds_its_output_and_a_pass(fine_eye_pair):
    eye = build_eye(*fine_eye_pair, UI, EYE_BINS, EYE_BINS, fold_offset_ps=-UI / 2)
    # a sign byte, the digits and a separator per count
    output = EYE_BINS**2 * (len(str(eye.counts.max())) + 2)
    peak = traced_peak(eye.to_csv)
    assert peak <= output + PASS_BOUND, f"{peak / 1e6:.2f} MB above the eye"


def test_spectrum_holds_one_padded_copy_and_one_transform(big_pair):
    plus, _ = big_pair
    n = 1 << (N_BIG - 1).bit_length()
    padded, transform = 8 * n, 16 * (n // 2 + 1)
    spectrum(plus)  # the first transform of a length also caches its plan
    peak = traced_peak(spectrum, plus)
    # the magnitudes are made after the padded copy is released
    assert peak <= padded + transform + 64 * 1024, f"{peak / 1e6:.2f} MB above the input"


def supply_trace(n, seed):
    """A supply current of ``n`` samples at 10 ps with a spike about every 60 ps."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(-100.0, 10.0 * n + 100.0, max(1, n // 6)))
    return drv.supply_current(times, SpikeModel(), 10.0, 0.0, 10.0 * n)


def test_spectrum_pads_a_supply_current_without_a_copy():
    current = supply_trace(N_BIG, seed=6)
    n = len(current.samples.base)
    assert n == 1 << (N_BIG - 1).bit_length()
    transform, magnitudes = 16 * (n // 2 + 1), 8 * (n // 2 + 1)
    spectrum(current)  # the first transform of a length also caches its plan
    peak = traced_peak(spectrum, current)
    # the transform and then rfftfreq's two arrays are live next to the
    # magnitudes; a padded copy would add 8 * n to the first
    assert peak <= transform + magnitudes + 128 * 1024, f"{peak / 1e6:.2f} MB above the input"


@pytest.mark.parametrize("n", [1, 2**12 - 1, 2**12, 2**12 + 1])
def test_spectrum_of_a_supply_current_equals_that_of_a_copy(n):
    current = supply_trace(n, seed=n)
    samples = current.samples.copy()
    want = spectrum(drv.WaveformTrace(current.dt_ps, samples.copy(), current.t0_ps))
    for _ in range(2):  # the second call pads the padded buffer again
        got = spectrum(current)
        assert_same_array(got.freqs_hz, want.freqs_hz, "frequencies")
        assert_same_array(got.mags_a, want.mags_a, "magnitudes")
        assert got.rbw_hz == want.rbw_hz
        assert_same_array(current.samples, samples, "samples")


def test_a_view_of_a_supply_current_is_padded_in_a_copy():
    current = supply_trace(1000, seed=8)
    samples = current.samples.copy()
    # the view's FFT length is its buffer's length too, but the buffer holds samples there
    view = drv.WaveformTrace(current.dt_ps, current.samples[:900], current.t0_ps)
    got, want = spectrum(view), ref_spectrum(view)
    assert_same_array(got.mags_a, want.mags_a, "magnitudes")
    assert_same_array(current.samples, samples, "samples")
