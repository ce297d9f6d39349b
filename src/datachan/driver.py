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
# the analysis stages
_PASS_CELLS = 1 << 16
# cells, rounded down to whole lines, in one pass of the artifact writers: a
# pass's bytes are copied out at once, but the cell temporaries grow with it
_WRITE_CELLS = 1 << 17


def _passes(n: int):
    """(start, stop) of each pass over ``n`` elements."""
    return ((s, min(n, s + _PASS_CELLS)) for s in range(0, n, _PASS_CELLS))


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The ``np.histogram`` bin of each value of ``x`` for the uniform ``edges`` of
    ``np.histogram_bin_edges``: numpy's estimate, corrected by one step against
    the edges as its fast path does.  Every value must lie within the edges, as
    each caller's do: the level edges span the samples, the eye's voltage edges
    ±(1.05 max|Tx+ - Tx-| + 1e-9), and its time edges [0, 2], where a phase
    ``np.mod(t, 2ui) / ui`` lies.  So the estimate is in [0, n]."""
    lo, hi, n = edges[0], edges[-1], len(edges) - 1
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


def _ascii4(strings) -> np.ndarray:
    """Up to four ASCII characters each, as the bytes of one uint32 (NUL-padded);
    a longer string is a ``ValueError``, not cut.

    The strings are read one at a time: a list of thousands of small strings
    would leave its memory with the process.
    """
    table = np.fromiter(strings, dtype="S5")
    long = table.view(np.uint8)[4::5] != 0  # a fifth byte
    if long.any():
        raise ValueError(f"table form {table[long][0].decode()!r} is longer than four bytes")
    return table.astype("S4").view(np.uint32)


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
    """
    cell = np.dtype({"names": ["sign", "prefix", "head", "tail", "exp"],
                     "formats": ["u1", "u4", "u4", "u4", "u4"],
                     "offsets": [0, 1, 5, 9, 13], "itemsize": _G6_WIDTH})
    digits = [tuple("%03d" % i) for i in range(1000)]

    def texts(form: str, strip: bool, end: str = ""):
        for d in digits:
            text = form % d
            yield (text.rstrip("0").rstrip(".") if strip else text) + end

    head = _ascii4(text for form, fraction in (("%s.%s%s", True), ("%s%s.%s", True),
                                               ("%s%s%s", False), ("%s%s%s", True),
                                               ("0%s%s%s", True))
                   for strip in (False, fraction) for text in texts(form, strip))
    tail = _ascii4(text for args in (("%s%s%s", True, "e"), ("%s%s%s", True), (".%s%s%s", True),
                                     ("%s.%s%s", True), ("%s%s.%s", True), ("%s%s%s", False))
                   for text in texts(*args))
    # the forms of the exponents -4 to 5; every other one takes form 0 and no prefix
    head_form = dict(zip(range(-4, 6), (4, 3, 3, 3, 0, 1, 2, 2, 2, 2)))
    tail_form = dict(zip(range(-4, 6), (1, 1, 1, 1, 1, 1, 2, 3, 4, 5)))
    prefixes = dict(zip(range(-4, 0), ("0.00", "0.00", "0.0", "0.")))
    xs = range(-300, 302)
    head_row = np.array([2000 * head_form.get(x, 0) for x in xs])
    tail_row = np.array([1000 * tail_form.get(x, 0) for x in xs])
    prefix = _ascii4(prefixes.get(x, "") for x in xs)
    exp = _ascii4("" if -4 <= x <= 5 else "%+03d" % x for x in xs)
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
    Python's ``%``.
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
        bad = ~sure
        text = np.array(["%.6g" % v for v in values[bad].tolist()], dtype=f"S{_G6_WIDTH}")
        cells[bad] = text.view(np.uint8).reshape(len(text), _G6_WIDTH)
    return cells


def _join_cells(n: int, columns: list, head: bytes = b"", tail: bytes = b"") -> memoryview:
    """The bytes of ``head``, ``n`` lines built from fixed-width ``uint8`` cell
    columns, and ``tail``, as a memoryview.

    A column is ``bytes``, the same on every line, or ``(width, fill)``, where
    ``fill(cells, s, e)`` writes the cells of lines ``s`` to ``e - 1`` into
    ``cells``, an ``(e - s, width)`` view.  NUL bytes pad the cells and are
    dropped.  The lines of a pass, about ``_WRITE_CELLS`` cells, are built in
    one buffer that every pass reuses.  Each pass's bytes are copied into an
    array as long as all the cells; only the pages written are ever touched,
    so the output is held once, at its own size.
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
    out = np.empty(len(head) + n * line + len(tail), dtype=np.uint8)
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


def trace_to_csv(trace: WaveformTrace) -> memoryview:
    """``time_ps,value`` lines; the i-th timestamp is ``t0_ps + i*dt_ps``.

    Every value is a ``_g6_cells`` cell.  When ``t0_ps`` and ``dt_ps`` are
    integers and both end timestamps are >= 0 (not -0.0) and below 2**63,
    ``%.3f`` prints every timestamp as ``%d.000``, assembled as bytes: sums and
    products of integral floats round to integers (a float >= 2**52 is one),
    and ``t0 + dt*i`` is monotone in i, so the ends bound the rest.  Other
    timestamps are formatted by Python's ``%``, a pass at a time.
    """
    values = trace.samples
    n = len(values)
    ends = np.array([trace.times(i, i + 1)[0] for i in (0, n - 1)]) if n else np.empty(0)
    exact = (float(trace.t0_ps).is_integer() and float(trace.dt_ps).is_integer()
             and not np.signbit(ends).any() and (ends < 2.0**63).all())
    if exact:
        width = _digits(ends)
        stamps = [(width, lambda cells, s, e: _int_cells(trace.times(s, e), width, cells)),
                  b".000,"]
    else:
        # "%.3f" is widest at the lowest or the highest time; a nan or ±inf
        # time comes with no finite one, and "-inf," is the widest of those
        width = max(len("%.3f," % t) for t in [*ends, -math.inf])

        def stamp_cells(cells: np.ndarray, s: int, e: int) -> None:
            text = ("%.3f,\n" * (e - s) % tuple(trace.times(s, e).tolist())).encode()
            cells[:] = np.array(text.split(b"\n")[:-1], dtype=f"S{width}").view(
                np.uint8).reshape(e - s, width)

        stamps = [(width, stamp_cells)]
    return _join_cells(len(values), stamps + [
        (_G6_WIDTH, lambda cells, s, e: _g6_cells(values[s:e], cells)), b"\n"],
        b"time_ps,value\n")
