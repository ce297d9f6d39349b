"""Level and 20%-80% edge-time extraction from sampled waveforms."""

from __future__ import annotations

from functools import reduce

import numpy as np

from .driver import WaveformTrace, _passes
from .errors import NoSettleError, NoTransitionError

_MODE_BINS = 2001


def _parts(trace: WaveformTrace):
    """The samples of each pass."""
    return (trace.samples[s:e] for s, e in _passes(len(trace.samples)))


def measure_levels(trace: WaveformTrace) -> tuple[float, float, float]:
    """(v_high, v_low, swing) from the settled-sample modes of each state.

    The mode of a fine histogram is used instead of a mean so edge samples
    cannot bias the settled levels.  The samples are read in passes: one
    for the range, one for both states' histograms, and one per state that
    gathers its mode-bin samples in order, for a single mean over all of them.
    """
    if len(trace.samples) == 0:
        raise NoSettleError("empty trace")
    lows, highs = zip(*((v.min(), v.max()) for v in _parts(trace)))
    vmin, vmax = float(reduce(np.minimum, lows)), float(reduce(np.maximum, highs))
    if vmax - vmin < 1e-12:
        return vmin, vmin, 0.0

    mid = 0.5 * (vmin + vmax)
    states = (lambda v: v[v > mid], lambda v: v[v <= mid])
    counts = np.zeros((2, _MODE_BINS), dtype=np.int64)
    for v in _parts(trace):
        for total, state in zip(counts, states):
            part, edges = np.histogram(state(v), bins=_MODE_BINS, range=(vmin, vmax))
            total += part
    modes = []
    for total in counts:
        k = int(np.argmax(total))
        if total[k] < 3:
            raise NoSettleError("no settled interval found")
        modes.append((edges[k], edges[k + 1]))
    levels = []
    for state, (lo, hi) in zip(states, modes):
        sel = [x[(x >= lo) & (x <= hi)] for x in map(state, _parts(trace))]
        levels.append(float(np.concatenate(sel).mean()))
    v_high, v_low = levels
    return v_high, v_low, v_high - v_low


def _rises(t: np.ndarray, v: np.ndarray, th: float) -> np.ndarray:
    """Interpolated times where ``v`` rises through ``th``."""
    idx = np.nonzero((v[:-1] < th) & (v[1:] >= th))[0]
    frac = (th - v[idx]) / (v[idx + 1] - v[idx])
    return t[idx] + frac * (t[idx + 1] - t[idx])


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
        t = trace.times(s, s + len(v))
        for out, th in zip(found, ths):
            out.append(_rises(t, v, th))
    starts, ends = (np.concatenate(f) for f in found)

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
