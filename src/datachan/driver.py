"""Behavioral output-stage and supply-network models.

The output driver is an open-drain current sink into remote pull-ups:
each leg sits at ``avcc - i_standby*r`` when released and at
``avcc - (i_standby + i_sink)*r`` while sinking, with configurable
20%-80% edge shaping.  Supply noise is modeled as one triangular charge
spike per pre-driver line transition on top of a quiescent DC draw.
"""

from __future__ import annotations

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
                   t_start: int, t_end: int) -> list[tuple[int, bool]]:
    """Merged (time, sinking) steps: sinking while either net is pulled low."""
    hists = [traces.arrays(net) for net in nets]
    inner = np.concatenate([ev_t[(ev_t > t_start) & (ev_t < t_end)] for ev_t, _ in hists])
    times = np.concatenate((np.array([t_start], dtype=np.int64), np.unique(inner)))
    state = np.zeros(len(times), dtype=bool)
    for ev_t, levels in hists:
        if len(ev_t):
            # the level at each time is the last change at or before it
            idx = np.searchsorted(ev_t, times, side="right") - 1
            state |= (idx >= 0) & (levels[np.maximum(idx, 0)] == LOW)
    keep = np.ones(len(times), dtype=bool)
    keep[1:] = state[1:] != state[:-1]
    return list(zip(times[keep].tolist(), state[keep].tolist()))


# elements of the work arrays in one numpy pass of the analog back end and of
# the analysis stages, and the cells, rounded down to whole lines, in one pass
# of the text writers
_PASS_CELLS = 1 << 16


def _passes(n: int):
    """(start, stop) of each pass over ``n`` elements."""
    return ((s, min(n, s + _PASS_CELLS)) for s in range(0, n, _PASS_CELLS))


def _shape_segments(steps: list[tuple[int, bool]], params: DriverParams,
                    dt_ps: float, t_start: float, n: int) -> np.ndarray:
    """Edge-shaped leg voltage on ``n`` samples from its (time, sinking) steps.

    The level reached at the end of each segment is a scalar recurrence over
    the steps; the samples are then filled a chunk of the grid at a time.
    """
    v_hi, v_lo = params.v_standby, params.v_sink
    exponential = params.edge_model == "EXPONENTIAL"
    if exponential:
        tau = params.t_rf_ps / LN4 if params.t_rf_ps > 0 else 0.0
        instant = tau == 0.0
    else:
        t_full = params.t_rf_ps / _RC_SPAN if params.t_rf_ps > 0 else 0.0
        instant = t_full == 0.0

    seg_t = [t for t, _ in steps]
    targets = [v_lo if sinking else v_hi for _, sinking in steps]
    v_start = []
    v = v_lo if steps[0][1] else v_hi
    for t, seg_end, target in zip(seg_t, seg_t[1:] + [t_start + n * dt_ps], targets):
        v_start.append(v)
        if instant:
            v = target
        elif exponential:
            v = target + (v - target) * math.exp(-(seg_end - t) / tau)
        else:
            ue = min(max((seg_end - t) / t_full, 0.0), 1.0)
            v = v + (target - v) * 0.5 * (1.0 - math.cos(math.pi * ue))

    # sample i belongs to the last segment whose first sample index is <= i
    first = np.clip(np.ceil((np.asarray(seg_t) - t_start) / dt_ps), 0, n).astype(np.int64)
    goals, v_starts = np.asarray(targets), np.asarray(v_start)
    seg_ts = np.asarray(seg_t, dtype=float)
    out = np.empty(n)
    for s, e in _passes(n):
        i = np.arange(s, e)
        seg = np.searchsorted(first, i, side="right") - 1
        goal = goals[seg]
        if instant:
            out[s:e] = goal
            continue
        v0 = v_starts[seg]
        rel = t_start + dt_ps * i - seg_ts[seg]
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

    minus_steps = _sink_timeline(traces, ("Even", "Odd"), t0, t1)
    plus_steps = _sink_timeline(traces, ("nEven", "nOdd"), t0, t1)
    tx_minus = _shape_segments(minus_steps, params, dt_ps, t0, n)
    tx_plus = _shape_segments(plus_steps, params, dt_ps, t0, n)
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
