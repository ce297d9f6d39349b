"""Level and 20%-80% edge-time extraction from sampled waveforms."""

from __future__ import annotations

from functools import reduce

import numpy as np

from .driver import WaveformTrace, _bin_index, _passes
from .errors import NoSettleError, NoTransitionError

_MODE_BINS = 2001


def _parts(trace: WaveformTrace):
    """The samples of each pass."""
    return (trace.samples[s:e] for s, e in _passes(len(trace.samples)))


def measure_levels(trace: WaveformTrace) -> tuple[float, float, float]:
    """(v_high, v_low, swing) from the settled-sample modes of each state.

    The mode of a fine histogram is used instead of a mean so edge samples
    cannot bias the settled levels.  The samples are read in passes: one
    for the range, one that counts each sample in its state's ``np.histogram``
    bin (``_bin_index``, certify-or-exact), and one per state that gathers
    its mode-bin samples in order, for a single mean over all of them.  Where
    the whole mode bin lies on its state's side of the midpoint, that pass
    tests the bin alone: it keeps the same samples.
    """
    if len(trace.samples) == 0:
        raise NoSettleError("empty trace")
    lows, highs = zip(*((v.min(), v.max()) for v in _parts(trace)))
    vmin, vmax = float(reduce(np.minimum, lows)), float(reduce(np.maximum, highs))
    if vmax - vmin < 1e-12:
        return vmin, vmin, 0.0

    mid = 0.5 * (vmin + vmax)
    # the edges span the samples; a row of bins above mid, then one at or below it
    edges = np.histogram_bin_edges(np.empty(0), _MODE_BINS, (vmin, vmax))
    counts = np.zeros(2 * _MODE_BINS, dtype=np.int64)
    for v in _parts(trace):
        np.add.at(counts, _bin_index(v, edges) + _MODE_BINS * (v <= mid), 1)
    modes = []
    for total in counts.reshape(2, -1):
        k = int(np.argmax(total))
        if total[k] < 3:
            raise NoSettleError("no settled interval found")
        modes.append((edges[k], edges[k + 1]))
    levels = []
    for side, (lo, hi) in zip((np.greater, np.less_equal), modes):
        whole = side(lo, mid) and side(hi, mid)
        sel = []
        for v in _parts(trace):
            keep = (v >= lo) & (v <= hi)
            if not whole:
                keep &= side(v, mid)
            sel.append(v[keep])
        levels.append(float(np.concatenate(sel).mean()))
    v_high, v_low = levels
    return v_high, v_low, v_high - v_low


def _rises(trace: WaveformTrace, s: int, v: np.ndarray, th: float) -> np.ndarray:
    """Interpolated times where ``v``, samples ``s`` on of ``trace``, rises through ``th``."""
    idx = np.nonzero((v[:-1] < th) & (v[1:] >= th))[0]
    frac = (th - v[idx]) / (v[idx + 1] - v[idx])
    t0, t1 = (trace.t0_ps + trace.dt_ps * (s + i) for i in (idx, idx + 1))  # as times() does
    return t0 + frac * (t1 - t0)


def measure_edge(trace: WaveformTrace, which: str, levels: tuple[float, float, float]) -> float:
    """Mean 20%-80% duration over all transitions of the given polarity.

    ``levels`` is the ``(v_high, v_low, swing)`` that ``measure_levels`` returned.
    """
    if which not in ("rise", "fall"):
        raise ValueError("which must be 'rise' or 'fall'")
    _, v_low, swing = levels
    if swing <= 0:
        raise NoTransitionError("waveform has no swing")
    th20 = v_low + 0.2 * swing
    th80 = v_low + 0.8 * swing

    # crossings of the sample pairs (i, i + 1) whose i is in the pass; a fall
    # is a rise of -v through -th, and negation leaves every difference exact
    rise = which == "rise"
    ths = (th20, th80) if rise else (-th80, -th20)
    found = ([], [])
    for s, e in _passes(len(trace.samples)):
        v = trace.samples[s:e + 1] if rise else -trace.samples[s:e + 1]
        for out, th in zip(found, ths):
            out.append(_rises(trace, s, v, th))
    starts, ends = (np.concatenate(f) for f in found)

    # a start pairs with the first end after it, if that end comes before the next start
    end = np.append(ends, np.inf)[ends.searchsorted(starts, side="right")]
    paired = end < np.append(starts[1:], np.inf)
    if not paired.any():
        raise NoTransitionError(f"no complete {which} transition found")
    return float(np.mean(end[paired] - starts[paired]))
