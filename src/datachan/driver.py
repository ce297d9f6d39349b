"""Behavioral output-stage and supply-network models.

The output driver is an open-drain current sink into remote pull-ups:
each leg sits at ``avcc - i_standby*r`` when released and at
``avcc - (i_standby + i_sink)*r`` while sinking, with configurable
20%-80% edge shaping.  Supply noise is modeled as one triangular charge
spike per pre-driver line transition on top of a quiescent DC draw.
"""

from __future__ import annotations

import functools
import math
import mmap
import sys
from dataclasses import dataclass

import numpy as np

from .config import DriverParams, SpikeModel
from .logic import LOW, SignalTraces

LN4 = math.log(4.0)
# 20%-80% span of the raised-cosine step, as a fraction of its full duration
_RC_SPAN = (math.acos(-0.6) - math.acos(0.6)) / math.pi


class EdgeTable:
    """The table of edge shapes that the legs of a Tx pair, and their windows,
    share, with its CSV cells (``_table_cells``): formatted by the first CSV
    written from it, and freed with the table once no leg holds it."""

    def __init__(self, values: np.ndarray):
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    @functools.cached_property
    def cells(self) -> np.ndarray:
        return _table_cells(self.values)


@dataclass
class WaveformTrace:
    """Uniformly sampled series: a voltage waveform or a supply current.

    A leg of edge shapes (``synthesize_tx``) also keeps the table its samples
    were gathered from: sample i of segment k, from ``first[k]`` and before
    ``first[k + 1]``, is ``table.values[i + shift[k]]``.
    """

    dt_ps: float
    samples: np.ndarray
    t0_ps: float = 0.0
    table: EdgeTable | None = None
    first: np.ndarray | None = None
    shift: np.ndarray | None = None

    def __post_init__(self):
        """Hold float64 samples; a float64 array is kept, so a window stays a view."""
        self.samples = np.asarray(self.samples, dtype=float)

    def times(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Sample times ``start`` to ``stop - 1`` (default: all of them)."""
        stop = len(self.samples) if stop is None else stop
        return self.t0_ps + self.dt_ps * np.arange(start, stop)

    def window(self, i0: int, i1: int) -> WaveformTrace:
        """Samples ``i0`` to ``i1 - 1`` (0 <= i0 <= i1) as a trace: a view, with
        the segments of the table that they cover, counted from ``i0``."""
        trace = WaveformTrace(self.dt_ps, self.samples[i0:i1], self.t0_ps + i0 * self.dt_ps)
        if self.table is not None:
            k0, k1 = self.first.searchsorted(i0, side="right") - 1, self.first.searchsorted(i1)
            trace.table, trace.first, trace.shift = (
                self.table, np.maximum(self.first[k0:k1] - i0, 0), self.shift[k0:k1] + i0)
        return trace


def _sink_timeline(traces: SignalTraces, nets: tuple[str, str],
                   t_start: int, t_end: int) -> tuple[np.ndarray, np.ndarray]:
    """The step times (int64) and sinking flags (bool) of a leg, from ``t_start``
    and at each change of its state: sinking while either net is pulled low."""
    inner = np.concatenate([ev_t[(ev_t > t_start) & (ev_t < t_end)]
                            for ev_t, _ in map(traces.arrays, nets)])
    # a time both nets change at stays in twice; the copy has the same state, so keep drops it
    times = np.concatenate((np.array([t_start], dtype=np.int64), np.sort(inner)))
    state = (traces.levels_at(nets[0], times) == LOW) | (traces.levels_at(nets[1], times) == LOW)
    keep = np.ones(len(times), dtype=bool)
    keep[1:] = state[1:] != state[:-1]
    return times[keep], state[keep]


# elements of the work arrays in one numpy pass of the analog back end and of
# the analysis stages
_PASS_CELLS = 1 << 16
# cells, rounded down to whole lines, in one pass of the artifact writers: a
# pass's bytes are copied out at once, but the cell temporaries grow with it
_WRITE_CELLS = 1 << 17


def _passes(n: int):
    """(start, stop) of each pass over ``n`` elements."""
    return ((s, min(n, s + _PASS_CELLS)) for s in range(0, n, _PASS_CELLS))


def _histogram_bins(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The ``np.histogram`` bin of each value of ``x`` for the ascending ``edges``,
    found by a search: bin k holds [edges[k], edges[k + 1]), and the last bin
    also holds the right edge.  Every value must lie within the edges.

    For uniform edges numpy estimates the bin and corrects it by one step
    against the edges, which gives this bin wherever the estimate is at most
    one off, as it is on every caller's range."""
    idx = edges.searchsorted(x, side="right") - 1
    return np.minimum(idx, len(edges) - 2, out=idx)


def _floor_bins(c: np.ndarray, n: int, m: float, d: float, exact) -> np.ndarray:
    """The bin of each coordinate of ``c`` as ``intp``: ``floor(c)`` where that is
    certain, and ``exact(w)`` at the indices ``w`` of the rest.  ``c`` is
    overwritten.  Its truncation is its floor wherever it is certain: a
    negative coordinate never is.

    ``c`` places each value on ``n`` bins of width ``d / n``, bin k being
    [k, k + 1).  The caller shows that the rounding of ``c`` and of the bin
    edges it stands for moves a value by at most 15 ulp of ``m`` (a bound on
    the magnitudes involved), plus (n + 1) 2^-1075 from roundings to a
    subnormal.  In bins that is below ``margin`` = 16 n (ulp(m) + n 2^-1074)
    / d, so a coordinate more than ``margin`` from every integer lies
    strictly inside bin floor(c).  A coordinate within ``margin`` of an
    integer, or nan, is not certain, nor is any when ``margin`` >= 1/2.
    """
    margin = 16 * n * (np.spacing(m) + n * 2.0**-1074) / d
    idx = c.astype(np.intp)
    c -= idx  # the fraction: in [0, 1) where c >= 0, or nan
    unsure = ~((c > margin) & (c < 1.0 - margin))
    if unsure.any():
        w = np.flatnonzero(unsure)
        idx[w] = exact(w)
    return idx


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The ``np.histogram`` bin of each value of ``x`` for the uniform ``edges`` of
    ``np.histogram_bin_edges``, by ``_floor_bins`` with ``_histogram_bins`` as
    the exact path.

    Every value must lie within the edges, as each caller's do: the level
    edges span the samples, and the eye's voltage edges ±(1.05 max|Tx+ - Tx-|
    + 1e-9).  The coordinate ``(x - lo) * (n / (hi - lo))`` is clipped to
    [1/2, n - 1/2]: a value below the first inner edge can only be in bin 0,
    and one above the last in bin n - 1, which holds the right edge; the
    clip leaves them no nearer an integer.  Its four roundings,
    with ``x - lo`` at most D = hi - lo, move a value by at most 4.1u D
    (u = 2^-53).  The edges ``lo + fl(i fl(D / n))`` of ``np.linspace`` are each
    within 3.1u D + ulp(m) / 2 of exact, m = max(|lo|, |hi|), and within
    (n + 1) 2^-1075 more for a subnormal step.  As D <= 2m and u m <= ulp(m),
    the sum is below 15 ulp(m).  Where the margin is not small (a range 1e-12
    wide at 3, say), every value takes the exact path, the edge search.  A
    value farther from an edge is in the bin that search gives.
    """
    lo, hi, n = edges[0], edges[-1], len(edges) - 1
    c = x - lo
    c *= n / (hi - lo)
    np.clip(c, 0.5, n - 0.5, out=c)
    return _floor_bins(c, n, max(abs(lo), abs(hi)), hi - lo,
                       lambda w: _histogram_bins(x[w], edges))


def _spans(first: np.ndarray, s: int, e: int) -> tuple[int, int, np.ndarray]:
    """``(k0, k1, runs)``: segments ``k0`` to ``k1 - 1`` of the ascending ``first``
    (``first[0] <= s``) hold samples ``s`` to ``e - 1``, ``runs`` of them each."""
    k0, k1 = first.searchsorted(s, side="right") - 1, first.searchsorted(e)
    starts = np.maximum(first[k0:k1], s)
    runs = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=runs[:-1])
    runs[-1] = e - starts[-1]
    return k0, k1, runs


def _ramps(first: np.ndarray, start: np.ndarray, step: int, s: int, e: int) -> np.ndarray:
    """``start[k] + step * i`` (int64) for each sample i from s to e - 1, where
    segment k of the strictly ascending ``first`` (``first[0] <= s``) holds i.

    A running sum of ``step`` that jumps where a segment starts: faster than
    repeating ``start`` over short runs.
    """
    k0, k1 = first.searchsorted(s, side="right") - 1, first.searchsorted(e)
    out = np.empty(e - s, dtype=np.int64)
    out.fill(step)
    out[first[k0 + 1:k1] - s] += start[k0 + 1:k1] - start[k0:k1 - 1]
    out[0] = start[k0] + step * s
    return np.cumsum(out, out=out)


def _ranks(x: np.ndarray) -> tuple[np.ndarray, int]:
    """The rank of each element of ``x`` among its distinct values, and how
    many there are.

    A sort and a search: ``np.unique`` would sort with kernels that no other
    stage runs, whose code adds 0.4 MB to a short run's resident peak.
    """
    values = np.sort(x)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    values = values[keep]
    return np.searchsorted(values, x), len(values)


def _exact_grid(t_start: float, dt_ps: float, n: int, seg_ts: list) -> bool:
    """Whether ``t_start``, ``dt_ps`` and every step time of ``seg_ts`` are
    integers and every time, up to ``t_start + n dt_ps``, lies in [0, 2^53):
    then every ``grid - seg_t`` is an exact integer."""
    times = [t_start, t_start + n * dt_ps, dt_ps]
    times += [t for seg_t in seg_ts if len(seg_t) for t in (seg_t.min(), seg_t.max())]
    return (all(float(t).is_integer() and 0 <= t < 2.0**53 for t in times)
            and all(seg_t.dtype.kind in "iu" or (np.floor(seg_t) == seg_t).all()
                    for seg_t in seg_ts))


def _shape_segments(timelines: list, params: DriverParams, dt_ps: float,
                    t_start: float, n: int) -> list[WaveformTrace]:
    """Edge-shaped legs on ``n`` samples, one per ``(seg_t, sinking)`` of
    ``timelines``: at each time of ``seg_t`` the leg starts toward the level
    that ``sinking`` flags there.

    The level reached at the end of each segment is a scalar recurrence over
    the steps, with one ``exp`` (or ``cos``) per distinct segment length.
    Sample ``first + j`` of a segment that starts at ``seg_t`` and holds
    samples from ``first`` is a function of its start level, its goal and
    ``grid - seg_t`` = ``off + j dt``, with ``off = t_start + first dt - seg_t``.

    Where ``t_start``, ``dt_ps`` and every ``seg_t`` are integers and every
    time lies in [0, 2^53), that difference is exact, so segments with the
    same (start level by its bits, goal, ``off``) have the same samples, each
    a prefix of the longest's.  The legs then share one table of edge shapes:
    each distinct triple's longest run, end to end, computed a pass at a time
    with the expressions of the other grids.  Each leg is gathered from it, a
    pass at a time, and keeps it, with the first sample and the shift (table
    entry less sample index) of each non-empty segment.  On other grids every
    sample is computed, a pass at a time: the segments that overlap the pass
    are repeated over their runs of samples.
    """
    v_hi, v_lo = params.v_standby, params.v_sink
    exponential = params.edge_model == "EXPONENTIAL"
    # tau of the exponential or the full duration of the raised cosine
    scale = params.t_rf_ps / (LN4 if exponential else _RC_SPAN) if params.t_rf_ps > 0 else 0.0
    factors: dict = {}  # the factor of each distinct segment length

    def shape(v0: np.ndarray, goal: np.ndarray, runs: np.ndarray, out: np.ndarray) -> None:
        """Overwrite ``out``, the time of each sample after its segment's step,
        with the samples of segments from ``v0`` toward ``goal``, ``runs``
        samples each; in place, as a temporary costs page faults."""
        if scale == 0.0:
            out[:] = np.repeat(goal, runs)
        elif exponential:
            # goal + (v_start - goal) exp((t_seg - grid) / tau): a difference
            # negated is exact, and so is a quotient's sign
            out /= -scale
            np.exp(out, out=out)
            out *= np.repeat(v0 - goal, runs)
            out += np.repeat(goal, runs)
        else:
            g, v = np.repeat(goal, runs), np.repeat(v0, runs)
            u = np.clip(out / scale, 0.0, 1.0)
            out[:] = v + (g - v) * 0.5 * (1.0 - np.cos(np.pi * u))

    legs = []  # (first, seg_t, sinking, v_start) of the non-empty segments
    for seg_t, sinking in timelines:
        starts, targets = seg_t.tolist(), np.where(sinking, v_lo, v_hi).tolist()
        v_start = targets[:1] + targets[:-1]
        if scale:
            v_start, v = [], targets[0]
            for t, seg_end, target in zip(starts, starts[1:] + [t_start + n * dt_ps], targets):
                v_start.append(v)
                f = factors.get(seg_end - t)
                if f is None:
                    f = factors[seg_end - t] = (
                        math.exp(-(seg_end - t) / scale) if exponential else
                        1.0 - math.cos(math.pi * min(max((seg_end - t) / scale, 0.0), 1.0)))
                v = target + (v - target) * f if exponential else v + (target - v) * 0.5 * f
        # segment k holds samples first[k] to first[k + 1] - 1: none if the next step is that close
        first = np.clip(np.ceil((seg_t - t_start) / dt_ps), 0, n).astype(np.int64)
        keep = np.diff(first, append=n) > 0
        legs.append((first[keep], seg_t[keep], sinking[keep], np.asarray(v_start)[keep]))

    if _exact_grid(t_start, dt_ps, n, [seg_t for _, seg_t, _, _ in legs]):
        dt = int(dt_ps)
        v0, sink, off, runs = (np.concatenate(c) for c in zip(*(
            (v, sinking, int(t_start) + dt * first - seg_t.astype(np.int64),
             np.diff(first, append=n)) for first, seg_t, sinking, v in legs)))
        # a key per (start level by its bits, goal, off), from the ranks of the parts
        which, shapes = _ranks((2 * _ranks(v0.view(np.int64))[0] + sink) * len(off)
                               + _ranks(off)[0])
        at = np.empty(shapes, dtype=np.int64)
        at[which] = np.arange(len(which))  # a segment of each shape: any has its key
        longest = np.zeros(shapes, dtype=np.int64)
        np.maximum.at(longest, which, runs)
        # the table pays for itself where it is shorter than a leg
        if longest.sum() < n:
            base = np.cumsum(longest) - longest  # each shape's first entry in the table
            table = np.empty(int(longest.sum()))
            # shape u runs from v0[u] toward goal[u]; its entry base + j is off + j dt
            # after its step
            v0, goal, start = v0[at], np.where(sink[at], v_lo, v_hi), off[at] - dt * base
            for s, e in _passes(len(table)):
                k0, k1, runs = _spans(base, s, e)
                table[s:e] = _ramps(base, start, dt, s, e)
                shape(v0[k0:k1], goal[k0:k1], runs, table[s:e])
            out, k, shared = [], 0, EdgeTable(table)
            for first, *_ in legs:
                shift = base[which[k:k + len(first)]] - first
                k += len(first)
                samples = np.empty(n)
                for s, e in _passes(n):
                    np.take(table, _ramps(first, shift, 1, s, e), out=samples[s:e], mode="clip")
                out.append(WaveformTrace(dt_ps, samples, t_start, shared, first, shift))
            return out

    out = []
    for first, seg_t, sinking, v0 in legs:
        samples, seg_ts, goals = np.empty(n), seg_t.astype(float), np.where(sinking, v_lo, v_hi)
        for s, e in _passes(n):
            k0, k1, runs = _spans(first, s, e)
            np.subtract(t_start + dt_ps * np.arange(s, e), np.repeat(seg_ts[k0:k1], runs),
                        out=samples[s:e])
            shape(v0[k0:k1], goals[k0:k1], runs, samples[s:e])
        out.append(WaveformTrace(dt_ps, samples, t_start))
    return out


def synthesize_tx(traces: SignalTraces, params: DriverParams, dt_ps: float,
                  t_start: int | None = None,
                  t_end: int | None = None) -> tuple[WaveformTrace, WaveformTrace]:
    """Differential output pair from the four pre-driver line traces.

    Tx- sinks while Even or Odd is active (serialized bit 1); Tx+ sinks
    while a complement line is active (bit 0).  In standby both legs sit
    at the pulled-up standby level.  On an integral grid the two legs share
    one table of edge shapes where it is shorter than a leg
    (``_shape_segments``), and ``trace_to_csv`` formats the table, once for
    the pair, instead of every sample.
    """
    params.validate()
    t0 = 0 if t_start is None else t_start
    t1 = traces.horizon_ps if t_end is None else t_end
    n = int((t1 - t0) / dt_ps)
    tx_minus, tx_plus = _shape_segments(
        [_sink_timeline(traces, nets, t0, t1) for nets in (("Even", "Odd"), ("nEven", "nOdd"))],
        params, dt_ps, t0, n)
    return tx_plus, tx_minus


# --------------------------------------------------------------------------
# supply current

def line_transition_times(traces: SignalTraces) -> np.ndarray:
    """Settled HIGH<->LOW transition times (int64, sorted) on the pre-driver lines
    Even, Odd, nEven and nOdd."""
    out = np.concatenate([traces.edges(net, kind) for net in ("Even", "Odd", "nEven", "nOdd")
                          for kind in ("rise", "fall")])
    out.sort()
    return out


def _deposit_spikes(samples: np.ndarray, t0: float, dt: float,
                    centers: list[float], q: float, w: float) -> None:
    """Add one triangular spike per center, conserving each charge bin-exactly.

    Every spike covers the bins its base overlaps, clipped to the window.
    Spikes are added in the order given, so overlapping spikes accumulate
    in the same floating-point order as adding them one at a time.
    """
    centers = np.asarray(centers, dtype=float)
    a, b = centers - w / 2.0, centers + w / 2.0
    n = len(samples)
    # clip before the integer cast so far-away spikes cannot overflow it
    i0 = np.clip(np.floor((a - t0) / dt + 0.5), 0, n).astype(np.int64)
    i1 = np.clip(np.ceil((b - t0) / dt + 0.5), -1, n - 1).astype(np.int64)
    hit = i1 >= i0
    a, b, centers, i0, i1 = a[hit], b[hit], centers[hit], i0[hit], i1[hit]
    if not len(centers):
        return
    cols = np.arange(int((i1 - i0).max()) + 2)  # bin edges of the widest spike
    rows = max(1, _PASS_CELLS // len(cols))
    for s in range(0, len(centers), rows):
        part = slice(s, s + rows)
        ca, cb, cc = a[part, None], b[part, None], centers[part, None]
        idx = i0[part, None] + cols
        t = np.clip(t0 + dt * (idx - 0.5), ca, cb)
        left = np.minimum(t, cc)
        right = np.maximum(t, cc)
        cum = 2.0 * q * (left - ca) ** 2 / w**2 + (q - 2.0 * q * (cb - right) ** 2 / w**2)
        cum -= q / 2.0  # remove double-counted apex value
        inside = idx[:, :-1] <= i1[part, None]
        np.add.at(samples, idx[:, :-1][inside],
                  (np.diff(cum, axis=1) / (dt * 1e-12))[inside])  # charge per bin -> amperes


def _fft_length(n: int) -> int:
    """The FFT length of ``n`` >= 1 samples: the next power of two."""
    return 1 << (n - 1).bit_length()


class _PaddedTrace(WaveformTrace):
    """A trace whose samples are the head of a buffer of their ``_fft_length``,
    which ``spectrum.spectrum`` may pad in place.

    Only ``supply_current`` makes one, so a view of its samples taken
    elsewhere is padded in a copy: its buffer's tail may hold samples.
    """


def supply_current(transition_times_ps: np.ndarray, model: SpikeModel,
                   dt_ps: float, t0_ps: float, horizon_ps: float) -> WaveformTrace:
    """Quiescent DC draw plus one charge spike per line transition.

    The samples are the head of a buffer of their FFT length, filled with the
    DC draw, so that the spectrum pads them without a copy.  The spikes are
    deposited into the samples only, so they are clipped to the window.
    """
    model.validate()
    n = int((horizon_ps - t0_ps) / dt_ps)
    samples = np.full(_fft_length(n) if n > 0 else n, model.i_dc_a)[:n]
    _deposit_spikes(samples, t0_ps, dt_ps, transition_times_ps, model.q_c, model.w_ps)
    return _PaddedTrace(dt_ps, samples, t0_ps)


# --------------------------------------------------------------------------
# CSV export

@functools.cache
def _digit_groups() -> np.ndarray:
    """"0000" to "9999", each as the bytes of one uint32."""
    i = np.arange(10000, dtype=np.uint16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    return digits.astype(np.uint8).view(np.uint32)[:, 0]


def _int_cells(values: np.ndarray, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """Right-aligned ASCII digits of non-negative integers (or integral floats) of
    at most ``width`` digits, NUL-padded on the left, into ``out`` if given; four
    digits a lookup."""
    groups, table = -(-width // 4), _digit_groups()
    # 32-bit division is about twice as fast, and 9 digits always fit
    v = values.astype(np.uint32 if width <= 9 else np.uint64)
    digits = np.empty((len(values), groups), dtype=np.uint32)
    for j in reversed(range(groups)):
        v, low = np.divmod(v, 10000)
        digits[:, j] = table[low]
    if out is None:
        out = np.empty((len(values), width), dtype=np.uint8)
    out[:] = digits.view(np.uint8)[:, 4 * groups - width:]
    # a zero left of the leading digit is padding: none within the digits of the least value
    least = len(str(int(values.min()))) if len(values) else width
    for k in range(least, width):
        out[:, width - 1 - k] *= values >= 10**k
    return out


def _stripped(forms: np.ndarray) -> np.ndarray:
    """Rows of ASCII bytes, NUL-padded, as ``rstrip("0").rstrip(".")`` leaves
    them: the zeros after the last other byte, then a point that is last,
    turned to NUL."""
    back = forms[:, ::-1]
    zeros = np.logical_and.accumulate((back == 0) | (back == ord("0")), axis=1)[:, ::-1]
    last = np.ones_like(zeros)  # every byte after it dropped
    last[:, :-1] = zeros[:, 1:]
    return np.where(zeros | ((forms == ord(".")) & last), np.uint8(0), forms)


# bytes of a ``_g6_cells`` cell: a sign byte, then four 4-byte fields
_G6_WIDTH = 17


@functools.cache
def _g6_tables() -> tuple:
    """The fields and lookup tables of ``_g6_cells``, built on its first call
    rather than at import, which every CLI call pays.

    A cell is a sign byte, then four 4-byte fields: prefix, head, tail and
    exponent.  With the six-digit mantissa ``1000*hi + lo`` and k = exponent
    + 300 they are ``prefix[k]``, ``head[head_row[k] + 1000*(lo == 0) + hi]``,
    ``tail[tail_row[k] + lo]`` and ``exp[k]``.  The head forms are "d.dd"
    (exponent 0 and exponent notation), "dd.d" (1), an integer "ddd" (2 to
    5), a fraction "ddd" (-3 to -1) and "0ddd" (-4), each followed by a copy
    for lo == 0, stripped where it holds a fraction.  The tail forms, stripped
    where they hold a fraction, are "ddd" then "e", "ddd" (-4 to 1), ".ddd",
    "d.dd", "dd.d" and "ddd" (2, 3, 4 and 5).  The prefix is "0.", "0.0" or
    "0.00" below exponent 0; the exponent is written outside -4 to 5.
    ``scale[k]`` is 10**(305 - k), correctly rounded: parsed, not a power.

    The head and tail forms are built as (1000, 4) byte arrays from the
    digits "000" to "999", not as 16,000 strings; the prefix and exponent
    forms as ``S4`` strings, which would cut a longer one (the oracle
    ``tests/reference_writers.py`` asserts that each fits).
    """
    cell = np.dtype({"names": ["sign", "prefix", "head", "tail", "exp"],
                     "formats": ["u1", "u4", "u4", "u4", "u4"],
                     "offsets": [0, 1, 5, 9, 13], "itemsize": _G6_WIDTH})
    i = np.arange(1000)
    d = (np.stack((i // 100, i // 10 % 10, i % 10), axis=1) + ord("0")).astype(np.uint8)
    point, zero, nul = (np.full((1000, 1), c, dtype=np.uint8) for c in b".0\0")
    # "d.dd", "dd.d", "ddd", ".ddd" and "0ddd" of the digits "000" to "999"
    dpdd, ddpd, ddd, pddd, zddd = (np.hstack(f) for f in (
        (d[:, :1], point, d[:, 1:]), (d[:, :2], point, d[:, 2:]), (d, nul), (point, d), (zero, d)))
    ddde = _stripped(ddd)
    ddde[i, np.count_nonzero(ddde, axis=1)] = ord("e")
    head = np.concatenate((dpdd, _stripped(dpdd), ddpd, _stripped(ddpd), ddd, ddd,
                           ddd, _stripped(ddd), zddd, _stripped(zddd))).view(np.uint32)[:, 0]
    tail = np.concatenate((ddde, _stripped(ddd), _stripped(pddd), _stripped(dpdd),
                           _stripped(ddpd), ddd)).view(np.uint32)[:, 0]
    # the forms of the exponents -4 to 5; every other one takes form 0 and no prefix
    head_form = dict(zip(range(-4, 6), (4, 3, 3, 3, 0, 1, 2, 2, 2, 2)))
    tail_form = dict(zip(range(-4, 6), (1, 1, 1, 1, 1, 1, 2, 3, 4, 5)))
    prefixes = dict(zip(range(-4, 0), ("0.00", "0.00", "0.0", "0.")))
    xs = range(-300, 302)
    head_row = np.array([2000 * head_form.get(x, 0) for x in xs])
    tail_row = np.array([1000 * tail_form.get(x, 0) for x in xs])
    prefix = np.array([prefixes.get(x, "") for x in xs], dtype="S4").view(np.uint32)
    exp = np.array(["" if -4 <= x <= 5 else "%+03d" % x for x in xs], dtype="S4").view(np.uint32)
    scale = np.fromiter((float("1e%d" % (305 - k)) for k in range(601)), dtype=float)
    return cell, prefix, head, head_row, tail, tail_row, exp, scale


def _g6_cells(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``"%.6g" % v`` of each float64 as ``_G6_WIDTH`` ``uint8`` cells, into ``out``
    if given, with NUL bytes where ``%g`` drops a character (the sign, the point,
    stripped zeros).

    ``y = |v| * 10**(5 - e)``, with ``e = floor(log10|v|)``, is within 3e-10
    of its exact value (one rounded scale, one rounded product), so rounding
    it half up gives the six digits unless its fraction is within 1e-8 of one
    half.  ``e`` can only be one off when |v| is within about 1e-12 of a power
    of ten; ``y`` is then as close to 1e5 or 1e6 and rounds to 100000 or to
    the carry 1000000, the digits and exponent the right ``e`` gives.
    Near-ties, ±0, nan, ±inf and |v| outside [1e-300, 1e300) are formatted by
    Python's ``%`` (``_percent_g6``), each distinct value once, so a column of
    zeros costs one call.  The text goes from the head field on where it
    fits, as most cells do: that adds no column to ``_table_cells``.
    """
    cell, prefix, head, head_row, tail, tail_row, exp, scale = _g6_tables()
    a = np.abs(values)
    sure = (a >= 1e-300) & (a < 1e300)
    a = np.where(sure, a, 1.0)
    k = (np.log10(a) + 300.0).astype(np.intp)  # e + 300, floored: it is positive
    y = a * scale[k]
    r = np.floor(y + 0.5)
    sure &= np.abs(y - r) < 0.5 - 1e-8
    carry = r == 1e6
    r -= 9e5 * carry
    k += carry
    hi, lo = np.divmod(r.astype(np.intp), 1000)
    cells = np.empty((len(values), _G6_WIDTH), dtype=np.uint8) if out is None else out
    fields = cells.view(cell)[:, 0]
    fields["sign"] = np.signbit(values) * np.uint8(45)
    fields["prefix"] = prefix[k]
    fields["head"] = head[head_row[k] + 1000 * (lo == 0) + hi]
    fields["tail"] = tail[tail_row[k] + lo]
    fields["exp"] = exp[k]
    if not sure.all():
        bad = np.flatnonzero(~sure)
        # each distinct value, told apart by its bits (-0.0 prints as "-0"), once
        which, count = _ranks(values[bad].view(np.int64))
        rep = np.empty(count, dtype=np.intp)  # an index of each
        rep[which] = bad
        text = _percent_g6(values[rep])
        fits = text[:, 12] == 0  # 12 bytes or fewer: from the head field on
        text[fits, 5:], text[fits, :5] = text[fits, :12], 0
        cells[bad] = text[which]
    return cells


def _percent_g6(values: np.ndarray) -> np.ndarray:
    """``"%.6g" % v`` of each value, by Python, as ``_G6_WIDTH``-byte rows."""
    text = np.array(["%.6g" % v for v in values.tolist()], dtype=f"S{_G6_WIDTH}")
    return text.view(np.uint8).reshape(len(text), _G6_WIDTH)


# the anonymous mapping that the writers' outputs of at least _MAPPED_BYTES
# share, one output at a time; private where it can be, as a shared one is a
# file of its first size, which a resize does not grow
_MAPPED_BYTES = 1 << 22
_mapping: mmap.mmap | None = None
_PRIVATE = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
            if hasattr(mmap, "MAP_ANONYMOUS") else {})


def _output(size: int) -> np.ndarray:
    """``size`` bytes for a writer's output: from the heap below
    ``_MAPPED_BYTES``, else from ``_mapping`` once no earlier output holds it,
    grown if it is shorter, or from a new mapping.

    A large output so reuses the pages that the last one faulted in, as the
    heap would, but it also fits where it is larger: from the heap, a written
    output's pages could stay resident while a larger one added its own (at
    1000 words the spectrum CSV raised the run's peak by 13 MB so).  The
    mapping keeps the pages of the largest output until the next one needs
    them; small outputs share the heap's pages with everything else.
    Writers run on one thread.
    """
    global _mapping
    if size < _MAPPED_BYTES:
        return np.empty(size, dtype=np.uint8)
    if _mapping is not None and sys.getrefcount(_mapping) == 2 and len(_mapping) < size:
        try:
            _mapping.resize(size)  # keeps the pages it has
        except (OSError, SystemError):  # no mremap here
            _mapping = None
    if _mapping is None or sys.getrefcount(_mapping) > 2 or len(_mapping) < size:
        _mapping = mmap.mmap(-1, size, **_PRIVATE)
    return np.frombuffer(_mapping, dtype=np.uint8, count=size)


def _join_cells(n: int, columns: list, head: bytes = b"", tail: bytes = b"") -> memoryview:
    """The bytes of ``head``, ``n`` lines built from fixed-width ``uint8`` cell
    columns, and ``tail``, as a memoryview.

    A column is ``bytes``, the same on every line, or ``(width, fill)``, where
    ``fill(cells, s, e)`` writes the cells of lines ``s`` to ``e - 1`` into
    ``cells``, an ``(e - s, width)`` view.  NUL bytes pad the cells and are
    dropped.  The lines of a pass, about ``_WRITE_CELLS`` cells, are built in
    one buffer that every pass reuses.  Each pass's bytes are copied into an
    array as long as all the cells (``_output``); only the pages written are
    ever touched, so the output is held once, at its own size.
    """
    widths = [len(c) if isinstance(c, bytes) else c[0] for c in columns]
    starts = np.cumsum([0] + widths).tolist()
    line = starts[-1]
    step = max(1, _WRITE_CELLS // line)
    buf = bytearray(min(n, step) * line)
    lines = np.frombuffer(buf, dtype=np.uint8).reshape(-1, line)
    for c, col in zip(columns, starts):
        if isinstance(c, bytes):  # written once, as no pass writes over it
            lines[:, col:col + len(c)] = np.frombuffer(c, dtype=np.uint8)
    out = _output(len(head) + n * line + len(tail))
    size = 0

    def put(data: bytes) -> None:
        nonlocal size
        out[size:size + len(data)] = np.frombuffer(data, dtype=np.uint8)
        size += len(data)

    put(head)
    for s in range(0, n, step):
        e = min(n, s + step)
        for c, col, w in zip(columns, starts, widths):
            if not isinstance(c, bytes):
                c[1](lines[:e - s, col:col + w], s, e)
        put((buf if e - s == len(lines) else buf[:(e - s) * line]).translate(None, b"\0"))
    put(tail)
    return memoryview(out[:size])


def _digits(values: np.ndarray) -> int:
    """Digit count of the largest of some non-negative int64s (1 when empty)."""
    return len(str(int(values.max()))) if len(values) else 1


def _table_cells(table: np.ndarray) -> np.ndarray:
    """``_g6_cells`` of ``table`` in only the columns that some cell writes,
    followed by NUL columns up to a power-of-two width, whose items
    ``np.take`` copies fastest.  ``_join_cells`` drops every NUL.

    The table is formatted a writer pass's values at a time.  The columns are
    those written so far; a pass that writes another one widens them, and the
    rows before it get NUL there, as they wrote none.  So no full-width copy
    of the table is held, and it is formatted once.
    """
    cell = _g6_tables()[0]
    chunk = _WRITE_CELLS // _G6_WIDTH
    buf = np.empty((min(chunk, len(table)), _G6_WIDTH), dtype=np.uint8)
    used = np.zeros(_G6_WIDTH, dtype=bool)
    out = np.zeros((len(table), 0), dtype=np.uint8)
    for s in range(0, len(table), chunk):
        part = table[s:s + chunk]
        cells = _g6_cells(part, buf[:len(part)])
        # the bytes some cell writes, from each field's OR: one pass over a field
        # is faster than numpy's reduction down the columns
        fields = cells.view(cell)[:, 0]
        words = np.array([np.bitwise_or.reduce(fields[name]) for name in cell.names[1:]],
                         dtype=np.uint32)
        wider = used | np.concatenate(([fields["sign"].any()], words.view(np.uint8) != 0))
        if (wider != used).any():
            width = int(wider.sum())
            grown = np.zeros((len(table), 1 << (width - 1).bit_length()), dtype=np.uint8)
            grown[:s, np.flatnonzero(used[wider])] = out[:s, :int(used.sum())]
            used, out = wider, grown
        out[s:s + len(part), :int(used.sum())] = cells[:, used]
    return out


def _integral_stamps(trace: WaveformTrace, width: int):
    """The ``fill`` of ``_join_cells`` for the timestamps ``t0_ps + i dt_ps`` of an
    integral grid: integers in [0, 2^63), right-aligned in cells of ``width``,
    a multiple of four.

    Below 2^53 a timestamp is its exact integer.  Its low four digits repeat
    every 10^4 / gcd(dt, 10^4) lines, so a pass copies them from one cycle.
    The digits above them form a group per 10^4, each formatted once and
    repeated over its lines.  Timestamps below 10^4 (whose low group is
    padded), a grid that reaches 2^53 or has more groups than lines, and a
    ``width`` of 4 are formatted by ``_int_cells``.
    """
    t0, dt, n = int(trace.t0_ps), int(trace.dt_ps), len(trace.samples)

    def plain(cells: np.ndarray, s: int, e: int) -> None:
        _int_cells(trace.times(s, e), width, cells)

    last = t0 + dt * (n - 1)
    if width == 4 or dt <= 0 or last >= 2**53 or last // 10**4 - t0 // 10**4 >= n:
        return plain
    groups = np.arange(t0 // 10**4, last // 10**4 + 1)
    high = f"V{width - 4}"
    heads = _int_cells(groups, width - 4).view(high)[:, 0]
    # the first line of each group: ceil((10^4 group - t0) / dt), from line 0
    starts = np.maximum((groups * 10**4 - t0 + dt - 1) // dt, 0)
    period = 10**4 // math.gcd(dt, 10**4)
    cycle = np.empty(0, dtype=np.uint32)

    def fill(cells: np.ndarray, s: int, e: int) -> None:
        nonlocal cycle
        if t0 + dt * s < 10**4:
            plain(cells, s, e)
            return
        if len(cycle) < period + e - s:
            cycle = _digit_groups()[(t0 + dt * np.arange(period + e - s)) % 10**4]
        k0, k1, runs = _spans(starts, s, e)
        cells[:, :width - 4].view(high)[:, 0] = np.repeat(heads[k0:k1], runs)
        cells[:, width - 4:].view(np.uint32)[:, 0] = cycle[s % period:s % period + e - s]

    return fill


def trace_to_csv(trace: WaveformTrace) -> memoryview:
    """``time_ps,value`` lines; the i-th timestamp is ``t0_ps + i*dt_ps``.

    Every value is a ``_g6_cells`` cell.  A leg of edge shapes with a table
    shorter than itself gathers line i's cell from the table's cells at
    ``i + shift[k]``, formatted once for every leg and window that holds the
    table (``EdgeTable.cells``); the stamps are built per CSV.  Other traces
    format every sample.  When ``t0_ps`` and ``dt_ps`` are integers and both
    end timestamps are >= 0 (not -0.0) and below 2**63, ``%.3f`` prints every
    timestamp as ``%d.000``, assembled as bytes (``_integral_stamps``): sums
    and products of integral floats round to integers (a float >= 2**52 is
    one), and ``t0 + dt*i`` is monotone in i, so the ends bound the rest.
    Other timestamps are formatted by Python's ``%``, a pass at a time.
    """
    values = trace.samples
    n = len(values)
    ends = np.array([trace.times(i, i + 1)[0] for i in (0, n - 1)]) if n else np.empty(0)
    exact = (float(trace.t0_ps).is_integer() and float(trace.dt_ps).is_integer()
             and not np.signbit(ends).any() and (ends < 2.0**63).all())
    if exact:
        # NUL-padded to whole four-digit groups
        width = -(-_digits(ends) // 4) * 4
        stamps = [(width, _integral_stamps(trace, width)), b".000,"]
    else:
        # "%.3f" is widest at the lowest or the highest time; a nan or ±inf
        # time comes with no finite one, and "-inf," is the widest of those
        width = max(len("%.3f," % t) for t in [*ends, -math.inf])

        def stamp_cells(cells: np.ndarray, s: int, e: int) -> None:
            text = ("%.3f,\n" * (e - s) % tuple(trace.times(s, e).tolist())).encode()
            cells[:] = np.array(text.split(b"\n")[:-1], dtype=f"S{width}").view(
                np.uint8).reshape(e - s, width)

        stamps = [(width, stamp_cells)]
    # the table is formatted whole, so it pays where it is shorter than the trace
    if trace.table is None or len(trace.table) >= n:
        cells = (_G6_WIDTH, lambda cells, s, e: _g6_cells(values[s:e], cells))
    else:
        kind = f"V{trace.table.cells.shape[1]}"
        table = trace.table.cells.view(kind)[:, 0]
        cells = (table.itemsize, lambda cells, s, e: np.take(
            table, _ramps(trace.first, trace.shift, 1, s, e), out=cells.view(kind)[:, 0],
            mode="clip"))
    return _join_cells(n, stamps + [cells, b"\n"], b"time_ps,value\n")
