"""Single-sided spectrum of supply-current traces and band measurements."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import _G6_WIDTH, WaveformTrace, _fft_length, _g6_cells, _join_cells, _PaddedTrace
from .errors import ResolutionError


@dataclass
class Spectrum:
    """Single-sided magnitude spectrum; bin 0 is the trace mean exactly.

    Bin k is at ``k * rbw_hz``: ``np.fft.rfftfreq`` computes its frequencies
    as ``arange(n // 2 + 1) * (1.0 / (n * d))``, the same products.
    """

    mags_a: np.ndarray
    rbw_hz: float

    @property
    def freqs_hz(self) -> np.ndarray:
        """The frequency of each bin."""
        return np.arange(len(self.mags_a)) * self.rbw_hz

    def to_csv(self) -> memoryview:
        """``%.6g,%.6g`` lines, assembled as bytes a pass at a time; each pass
        computes its own frequencies."""
        mags = np.asarray(self.mags_a, dtype=float)
        return _join_cells(len(mags), [
            (_G6_WIDTH, lambda cells, s, e: _g6_cells(np.arange(s, e) * self.rbw_hz, cells)),
            b",", (_G6_WIDTH, lambda cells, s, e: _g6_cells(mags[s:e], cells)), b"\n"],
            b"freq_hz,magnitude_a\n")


def spectrum(trace: WaveformTrace) -> Spectrum:
    """Rectangular-window DFT magnitude, mean-padded to a power of two.

    Padding with the mean (rather than zero) keeps bin 0 equal to the
    input trace mean and adds no artificial step at the trace end.  A supply
    current (``driver._PaddedTrace``) is padded in place: the mean is written
    into its buffer's tail, past its samples.  Any other trace is padded in a
    copy, released before the magnitudes, the transform after them.  The
    spectrum keeps the resolution ``1 / (n dt)``, not the bin frequencies.

    The transform is scaled by pocketfft (``norm="forward"``), which
    multiplies each real and imaginary part of its result by ``1 / n``.  As
    ``n`` is a power of two, that product is the correctly rounded
    ``x 2^-k``, the same value as ``x / n``, subnormals included, so the
    magnitudes are those of ``rfft(x) / n`` without the pass that divides.
    """
    x = trace.samples
    if len(x) == 0:
        raise ValueError("empty trace")
    n = _fft_length(len(x))
    if n != len(x):
        mean = float(x.mean())
        buf = x.base
        if isinstance(trace, _PaddedTrace) and _is_head(x, buf, n):
            buf[len(x):] = mean
            x = buf
        else:
            x = np.pad(x, (0, n - len(x)), constant_values=mean)

    X = np.fft.rfft(x, norm="forward")
    del x
    mags = np.abs(X)
    del X
    mags[1:] *= 2.0
    if n % 2 == 0:
        mags[-1] /= 2.0  # Nyquist bin is not mirrored
    return Spectrum(mags_a=mags, rbw_hz=1.0 / (n * (trace.dt_ps * 1e-12)))


def _is_head(x: np.ndarray, buf, n: int) -> bool:
    """Whether ``x`` is ``buf[:len(x)]`` and ``buf`` an array of ``n`` elements."""
    return (isinstance(buf, np.ndarray) and buf.shape == (n,) and buf.dtype == x.dtype
            and x.flags.c_contiguous and x.ctypes.data == buf.ctypes.data)


def low_band_ratio(spec: Spectrum) -> float:
    """Largest magnitude in (0, 500 MHz] relative to the DC bin.

    The band is the bins k >= 1 with ``k * rbw_hz`` <= 500 MHz, a prefix, as
    the product is monotone in k.  ``int(5e8 / rbw_hz)`` is at least the
    floor of the exact quotient, so no bin from it + 2 on can be in the band:
    only the bins before are tested, not the whole spectrum.
    """
    f_cut_hz = 5e8
    if spec.rbw_hz >= f_cut_hz / 10.0:
        raise ResolutionError(
            f"resolution {spec.rbw_hz:.3g} Hz too coarse for a {f_cut_hz:.3g} Hz band"
        )
    k = np.arange(1, min(len(spec.mags_a), int(f_cut_hz / spec.rbw_hz) + 2))
    top = 1 + np.count_nonzero(k * spec.rbw_hz <= f_cut_hz)
    peak = float(spec.mags_a[1:top].max()) if top > 1 else 0.0
    dc = float(spec.mags_a[0])
    if dc == 0.0:
        return 0.0 if peak == 0.0 else float("inf")
    return peak / dc
