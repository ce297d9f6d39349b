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
from dataclasses import dataclass

import numpy as np

from .config import DriverParams, SpikeModel
from .logic import LOW, SignalTraces

LN4 = math.log(4.0)
# 20%-80% span of the raised-cosine step, as a fraction of its full duration
_RC_SPAN = (math.acos(-0.6) - math.acos(0.6)) / math.pi


@dataclass
class WaveformTrace:
    """Uniformly sampled series: a voltage waveform or a supply current."""

    dt_ps: float
    samples: np.ndarray
    t0_ps: float = 0.0

    def __post_init__(self):
        """Hold float64 samples; a float64 array is kept, so a window stays a view."""
        self.samples = np.asarray(self.samples, dtype=float)

    def times(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Sample times ``start`` to ``stop - 1`` (default: all of them)."""
        stop = len(self.samples) if stop is None else stop
        return self.t0_ps + self.dt_ps * np.arange(start, stop)


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
# the analysis stages, and the cells, rounded down to whole lines, in one pass
# of the text writers
_PASS_CELLS = 1 << 16


def _passes(n: int):
    """(start, stop) of each pass over ``n`` elements."""
    return ((s, min(n, s + _PASS_CELLS)) for s in range(0, n, _PASS_CELLS))


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The ``np.histogram`` bin of each value of ``x`` for the uniform ``edges`` of
    ``np.histogram_bin_edges``, or ``len(edges) - 1`` outside them (NaN included):
    numpy's estimate, corrected by one step against the edges as its fast path does."""
    lo, hi, n = edges[0], edges[-1], len(edges) - 1
    outside = ~((x >= lo) & (x <= hi))
    if outside.any():
        return np.where(outside, n, _bin_index(np.where(outside, lo, x), edges))
    f = (x - lo) / (hi - lo) * n  # in numpy's order of operations
    idx = f.astype(np.intp)
    np.minimum(idx, n - 1, out=idx)  # the last bin holds the right edge
    idx -= x < np.take(edges, idx, out=f, mode="clip")
    idx += (x >= np.take(edges[1:], idx, out=f, mode="clip")) & (idx != n - 1)
    return idx


def _shape_segments(seg_t: np.ndarray, sinking: np.ndarray, params: DriverParams,
                    dt_ps: float, t_start: float, n: int) -> np.ndarray:
    """Edge-shaped leg voltage on ``n`` samples from its steps: at each time of
    ``seg_t`` the leg starts toward the level that ``sinking`` flags there.

    The level reached at the end of each segment is a scalar recurrence over
    the steps.  The samples are then filled a pass of the grid at a time: the
    segments that overlap the pass are repeated over their runs of samples.
    """
    v_hi, v_lo = params.v_standby, params.v_sink
    exponential = params.edge_model == "EXPONENTIAL"
    if exponential:
        tau = params.t_rf_ps / LN4 if params.t_rf_ps > 0 else 0.0
        instant = tau == 0.0
    else:
        t_full = params.t_rf_ps / _RC_SPAN if params.t_rf_ps > 0 else 0.0
        instant = t_full == 0.0

    goals = np.where(sinking, v_lo, v_hi)
    starts, targets = seg_t.tolist(), goals.tolist()
    v_start = []
    v = targets[0]
    for t, seg_end, target in zip(starts, starts[1:] + [t_start + n * dt_ps], targets):
        v_start.append(v)
        if instant:
            v = target
        elif exponential:
            v = target + (v - target) * math.exp(-(seg_end - t) / tau)
        else:
            ue = min(max((seg_end - t) / t_full, 0.0), 1.0)
            v = v + (target - v) * 0.5 * (1.0 - math.cos(math.pi * ue))

    # segment k holds samples first[k] to first[k + 1] - 1: none if the next step is that close
    first = np.clip(np.ceil((seg_t - t_start) / dt_ps), 0, n).astype(np.int64)
    bounds = np.append(first, n)
    v_starts, seg_ts = np.asarray(v_start), seg_t.astype(float)
    out = np.empty(n)
    for s, e in _passes(n):
        # the segments from the one holding sample s to the last starting before e
        k0, k1 = first.searchsorted(s, side="right") - 1, first.searchsorted(e)
        runs = np.minimum(bounds[k0 + 1:k1 + 1], e) - np.maximum(bounds[k0:k1], s)
        goal, v0, t_seg = (np.repeat(a[k0:k1], runs) for a in (goals, v_starts, seg_ts))
        if instant:
            out[s:e] = goal
            continue
        rel = t_start + dt_ps * np.arange(s, e) - t_seg
        if exponential:
            out[s:e] = goal + (v0 - goal) * np.exp(-rel / tau)
        else:
            u = np.clip(rel / t_full, 0.0, 1.0)
            out[s:e] = v0 + (goal - v0) * 0.5 * (1.0 - np.cos(np.pi * u))
    return out


def synthesize_tx(traces: SignalTraces, params: DriverParams, dt_ps: float,
                  t_start: int | None = None,
                  t_end: int | None = None) -> tuple[WaveformTrace, WaveformTrace]:
    """Differential output pair from the four pre-driver line traces.

    Tx- sinks while Even or Odd is active (serialized bit 1); Tx+ sinks
    while a complement line is active (bit 0).  In standby both legs sit
    at the pulled-up standby level.
    """
    params.validate()
    t0 = 0 if t_start is None else t_start
    t1 = traces.horizon_ps if t_end is None else t_end
    n = int((t1 - t0) / dt_ps)

    tx_minus = _shape_segments(*_sink_timeline(traces, ("Even", "Odd"), t0, t1),
                               params, dt_ps, t0, n)
    tx_plus = _shape_segments(*_sink_timeline(traces, ("nEven", "nOdd"), t0, t1),
                              params, dt_ps, t0, n)
    return (WaveformTrace(dt_ps, tx_plus, t0), WaveformTrace(dt_ps, tx_minus, t0))


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


def supply_current(transition_times_ps: np.ndarray, model: SpikeModel,
                   dt_ps: float, t0_ps: float, horizon_ps: float) -> WaveformTrace:
    """Quiescent DC draw plus one charge spike per line transition."""
    model.validate()
    n = int((horizon_ps - t0_ps) / dt_ps)
    samples = np.full(n, model.i_dc_a)
    _deposit_spikes(samples, t0_ps, dt_ps, transition_times_ps, model.q_c, model.w_ps)
    return WaveformTrace(dt_ps, samples, t0_ps)


# --------------------------------------------------------------------------
# CSV export

# values formatted per pass by the bulk writers
_FORMAT_CHUNK = 1 << 14


def format_rows(rows: np.ndarray, line_fmt: str) -> str:
    """One ``line_fmt % row`` line per row of a 2-D array.

    Rows are converted with ``tolist()`` (formatting numpy scalars is slow)
    and formatted a chunk at a time with a single ``%`` each.
    """
    step = max(1, _FORMAT_CHUNK // max(1, rows.shape[1]))
    return "".join(line_fmt * len(chunk) % tuple(chunk.ravel().tolist())
                   for chunk in (rows[s:s + step] for s in range(0, len(rows), step)))


def _int_cells(values: np.ndarray, width: int) -> np.ndarray:
    """Right-aligned ASCII digits of non-negative int64s, NUL-padded on the left."""
    cells = np.empty((len(values), width), dtype=np.uint8)
    # 32-bit division is about twice as fast, and 9 digits always fit
    v = values.astype(np.uint32 if width <= 9 else np.int64)
    for j in range(width):
        present = v > 0 if j else True  # a digit left of the leading one is padding
        v, digit = np.divmod(v, 10)
        cells[:, width - 1 - j] = np.where(present, digit + 48, 0)
    return cells


def _table_cells(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Cells of the fixed-width ``S`` strings ``table[index]``, NUL-padded on the right."""
    return table[index].view(np.uint8).reshape(len(index), table.itemsize)


def _ascii4(strings) -> np.ndarray:
    """Up to four ASCII characters each, as the bytes of one uint32 (NUL-padded).

    The strings are read one at a time: a list of thousands of small strings
    would leave its memory with the process.
    """
    return np.fromiter(strings, dtype="S4").view(np.uint32)


def _mantissa_head(h: int, strip: bool) -> str:
    """"d.dd" of the three digits ``h``, with trailing zeros (and the point) stripped."""
    text = "%d.%02d" % divmod(h, 100)
    return text.rstrip("0").rstrip(".") if strip else text


@functools.cache
def _g6_tables() -> tuple:
    """The fields and lookup tables of ``_g6_cells``, built on its first call
    rather than at import, which every CLI call pays.

    A cell is a sign byte, then three 4-byte fields.  In exponent notation,
    with the six-digit mantissa ``1000*hi + lo``, these are: "d.dd" from
    ``head[hi + 1001*(lo == 0)]`` (stripped when lo is zero; hi = 1000 is the
    carry to 1,000,000, printed as 100); lo stripped, then "e", from
    ``tail[lo]``; the signed exponent from ``exp[exponent + 300]``.  Fixed
    notation overwrites the three fields.  ``scale[k]`` is 10**(305 - k) for
    k = exponent + 300, correctly rounded: parsed, not a power.
    """
    cell = np.dtype({"names": ["sign", "head", "tail", "exp"],
                     "formats": ["u1", "u4", "u4", "u4"], "offsets": [0, 1, 5, 9],
                     "itemsize": 13})
    head = _ascii4(_mantissa_head(h if h < 1000 else 100, strip)
                   for strip in (False, True) for h in range(1001))
    tail = _ascii4(("%03d" % lo).rstrip("0") + "e" for lo in range(1000))
    exp = _ascii4("%+03d" % x for x in range(-300, 302))
    scale = np.fromiter((float("1e%d" % (305 - k)) for k in range(601)), dtype=float)
    return cell, head, tail, exp, scale


_POW10 = 10 ** np.arange(12)
_FROM_RIGHT = np.arange(11, -1, -1)


def _fixed_cells(mant: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Characters 1 to 12 of ``"%.6g"`` in fixed notation, NUL-padded: the
    six-digit ``mant`` times 10**(x - 5), for -4 <= x <= 5.

    Counted from the right, the ``5 - x`` fraction digits come first, then
    the point, then the integer part (a zero-padded ``mant``, so x < 0 gives
    ``0.000...``).  A fraction digit is dropped when it and every digit right
    of it are zero, the point when all of them are.
    """
    f = (5 - x)[:, None]
    m = mant[:, None]
    p = _FROM_RIGHT
    digit = m // _POW10[p - (p > f)] % 10 + 48
    keep = np.where(p <= f, m % _POW10[np.minimum(p + 1, f)] != 0, p <= np.maximum(f, 5) + 1)
    return np.where(p == f, 46, digit) * keep


def _g6_cells(values: np.ndarray) -> np.ndarray:
    """``"%.6g" % v`` of each float64 as 13 ``uint8`` cells, with NUL bytes
    where ``%g`` drops a character (the sign, the point, stripped zeros).

    ``y = |v| * 10**(5 - e)``, with ``e = floor(log10|v|)``, is within 3e-10
    of its exact value (one rounded scale, one rounded product), so rounding
    it half up gives the six digits unless its fraction is within 1e-8 of one
    half.  ``e`` can only be one off when |v| is within about 1e-12 of a power
    of ten; ``y`` is then as close to 1e5 or 1e6 and rounds to 100000 or to
    the carry 1000000, the digits and exponent the right ``e`` gives.
    Near-ties, ±0, nan, ±inf and |v| outside [1e-300, 1e300) are formatted by
    Python's ``%``.
    """
    cell, head, tail, exp, scale = _g6_tables()
    n = len(values)
    a = np.abs(values)
    sure = (a >= 1e-300) & (a < 1e300)
    a = np.where(sure, a, 1.0)
    k = (np.log10(a) + 300.0).astype(np.intp)  # e + 300, floored: it is positive
    y = a * scale[k]
    r = np.floor(y + 0.5)
    sure &= np.abs(y - r) < 0.5 - 1e-8
    hi, lo = np.divmod(r.astype(np.intp), 1000)
    k += hi == 1000
    cells = np.empty((n, 13), dtype=np.uint8)
    fields = cells.view(cell)[:, 0]
    fields["sign"] = np.signbit(values) * np.uint8(45)
    fields["head"] = head[hi + 1001 * (lo == 0)]
    fields["tail"] = tail[lo]
    fields["exp"] = exp[k]
    fixed = (k >= 296) & (k <= 305)  # exponent -4 to 5
    if fixed.any():
        mant = hi[fixed] * 1000 + lo[fixed]
        mant[mant == 1000000] = 100000  # the carry
        cells[fixed, 1:] = _fixed_cells(mant, k[fixed] - 300)
    if not sure.all():
        bad = ~sure
        text = np.array(["%.6g" % v for v in values[bad].tolist()], dtype="S13")
        cells[bad] = text.view(np.uint8).reshape(len(text), 13)
    return cells


def _join_cells(n: int, columns: list, head: str = "", tail: str = "") -> str:
    """``head``, ``n`` lines built from fixed-width ``uint8`` cell columns, ``tail``.

    A column is ``bytes``, the same on every line, or ``(width, cells)``, where
    ``cells(s, e)`` gives the ``(e - s, width)`` cells of lines ``s`` to
    ``e - 1``.  NUL bytes pad the cells and are dropped.  Lines are built in
    passes of about ``_PASS_CELLS`` cells into one buffer, which is decoded
    once.
    """
    widths = [len(c) if isinstance(c, bytes) else c[0] for c in columns]
    line = sum(widths)
    head_b, tail_b = head.encode(), tail.encode()
    buf = np.empty(len(head_b) + n * line + len(tail_b), dtype=np.uint8)
    buf[:len(head_b)] = np.frombuffer(head_b, dtype=np.uint8)
    pos = len(head_b)
    step = max(1, _PASS_CELLS // line)
    for s in range(0, n, step):
        e = min(n, s + step)
        cells = np.empty((e - s, line), dtype=np.uint8)
        col = 0
        for c, w in zip(columns, widths):
            cells[:, col:col + w] = (np.frombuffer(c, dtype=np.uint8) if isinstance(c, bytes)
                                     else c[1](s, e))
            col += w
        kept = cells[cells != 0]
        buf[pos:pos + len(kept)] = kept
        pos += len(kept)
    buf[pos:pos + len(tail_b)] = np.frombuffer(tail_b, dtype=np.uint8)
    return str(memoryview(buf[:pos + len(tail_b)]), "utf-8")


def _digits(values: np.ndarray) -> int:
    """Digit count of the largest of some non-negative int64s (1 when empty)."""
    return len(str(int(values.max()))) if len(values) else 1


def trace_to_csv(trace: WaveformTrace) -> str:
    """``time_ps,value`` lines; the i-th timestamp is ``t0_ps + i*dt_ps``.

    When every timestamp is an integer >= 0 (not -0.0), ``%.3f`` prints it as
    ``%d.000``, and ``%.6g`` runs once per distinct sample bit pattern: the
    text is assembled as bytes.  Other timestamps take ``format_rows``.
    """
    values = trace.samples
    times = trace.times()
    head = "time_ps,value\n"
    exact = not len(times) or (not np.signbit(times).any() and times.max() < 2.0**63
                               and (times == np.floor(times)).all())
    if not exact:
        return head + format_rows(np.column_stack((times, values)), "%.3f,%.6g\n")
    times = times.astype(np.int64)  # exact, and frees the float copy
    # unique bit patterns, not values: 0.0 and -0.0 print differently
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    table = np.array(["%.6g" % v for v in bits.view(float).tolist()], dtype="S")
    width = _digits(times)
    return _join_cells(len(values), [
        (width, lambda s, e: _int_cells(times[s:e], width)),
        b".000,",
        (table.itemsize, lambda s, e: _table_cells(table, inverse[s:e])),
        b"\n",
    ], head)
