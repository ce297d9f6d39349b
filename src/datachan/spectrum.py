"""Single-sided spectrum of supply-current traces and band measurements."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import _G6_WIDTH, WaveformTrace, _g6_cells, _join_cells
from .errors import ResolutionError


@dataclass
class Spectrum:
    """Single-sided magnitude spectrum; bin 0 is the trace mean exactly."""

    freqs_hz: np.ndarray
    mags_a: np.ndarray
    rbw_hz: float

    def to_csv(self) -> memoryview:
        """``%.6g,%.6g`` lines, assembled as bytes a pass at a time."""
        freqs = np.asarray(self.freqs_hz, dtype=float)
        mags = np.asarray(self.mags_a, dtype=float)
        return _join_cells(len(freqs), [
            (_G6_WIDTH, lambda cells, s, e: _g6_cells(freqs[s:e], cells)), b",",
            (_G6_WIDTH, lambda cells, s, e: _g6_cells(mags[s:e], cells)), b"\n"],
            b"freq_hz,magnitude_a\n")


def spectrum(trace: WaveformTrace) -> Spectrum:
    """Rectangular-window DFT magnitude, mean-padded to a power of two.

    Padding with the mean (rather than zero) keeps bin 0 equal to the
    input trace mean and adds no artificial step at the trace end.  The
    padded copy is released before the magnitudes, the transform after them.
    """
    x = trace.samples
    if len(x) == 0:
        raise ValueError("empty trace")
    n = 1 << (len(x) - 1).bit_length()
    if n != len(x):
        x = np.pad(x, (0, n - len(x)), constant_values=float(x.mean()))

    X = np.fft.rfft(x)
    del x
    X /= n
    mags = np.abs(X)
    del X
    mags[1:] *= 2.0
    if n % 2 == 0:
        mags[-1] /= 2.0  # Nyquist bin is not mirrored
    dt_s = trace.dt_ps * 1e-12
    freqs = np.fft.rfftfreq(n, d=dt_s)
    return Spectrum(freqs_hz=freqs, mags_a=mags, rbw_hz=1.0 / (n * dt_s))


def low_band_ratio(spec: Spectrum) -> float:
    """Largest magnitude in (0, 500 MHz] relative to the DC bin."""
    f_cut_hz = 5e8
    if spec.rbw_hz >= f_cut_hz / 10.0:
        raise ResolutionError(
            f"resolution {spec.rbw_hz:.3g} Hz too coarse for a {f_cut_hz:.3g} Hz band"
        )
    band = (spec.freqs_hz > 0) & (spec.freqs_hz <= f_cut_hz)
    peak = float(spec.mags_a[band].max()) if band.any() else 0.0
    dc = float(spec.mags_a[0])
    if dc == 0.0:
        return 0.0 if peak == 0.0 else float("inf")
    return peak / dc
