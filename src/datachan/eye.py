"""Eye-diagram folding and keep-out mask checking."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import check_mask
from .driver import (WaveformTrace, _bin_index, _digits, _floor_bins, _histogram_bins, _int_cells,
                     _join_cells, _passes)
from .errors import AlignmentError, ResolutionError


@dataclass
class EyeHistogram:
    """2D occupancy of the differential waveform folded over two unit intervals.

    Time axis is in unit intervals, [0, 2), with the eye center at 1.0.
    ``counts`` is indexed [voltage_bin, time_bin].
    """

    ui_ps: float
    counts: np.ndarray
    t_edges_ui: np.ndarray
    v_edges: np.ndarray
    fold_offset_ps: float = 0.0

    def to_csv(self) -> memoryview:
        """One line of comma-separated counts per voltage bin.

        Each count is a cell of a sign byte and the digits of its magnitude,
        followed by a ``,`` or, at the end of a row, a newline.  The widest
        magnitude is that of the least or the greatest count.
        """
        rows, cols = self.counts.shape
        if not rows or not cols:
            return memoryview(b"\n" * max(rows, 1))
        values = self.counts.ravel()

        def mags(s: int, e: int) -> np.ndarray:
            # np.abs(-2**63) wraps to -2**63, whose uint64 cast is its magnitude
            return np.abs(values[s:e]).astype(np.uint64)

        width = max(_digits(mags(i, i + 1)) for i in (values.argmin(), values.argmax()))

        def signs(cells: np.ndarray, s: int, e: int) -> None:
            cells[:, 0] = (values[s:e] < 0) * np.uint8(ord("-"))

        def ends(cells: np.ndarray, s: int, e: int) -> None:
            cells[:, 0] = np.where(np.arange(s, e) % cols == cols - 1, ord("\n"), ord(","))

        return _join_cells(len(values), [
            (1, signs), (width, lambda cells, s, e: _int_cells(mags(s, e), width, cells)),
            (1, ends)])


@dataclass
class EyeMask:
    """Convex keep-out polygon in (UI offset from eye center, volts)."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        check_mask(self.vertices)

    def vertical_extent(self, x: float) -> tuple[float, float] | None:
        """Mask [v_min, v_max] at UI offset ``x``, or None if outside its span."""
        pts = self.vertices
        ys = []
        for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
            if ax == bx:
                if ax == x:
                    ys.extend([ay, by])
                continue
            lo, hi = (ax, bx) if ax < bx else (bx, ax)
            if lo <= x <= hi:
                ys.append(ay + (by - ay) * (x - ax) / (bx - ax))
        if not ys:
            return None
        return min(ys), max(ys)


def build_eye(tx_plus: WaveformTrace, tx_minus: WaveformTrace, ui_ps: float,
              bins_t: int = 128, bins_v: int = 128,
              fold_offset_ps: float = 0.0) -> EyeHistogram:
    """Fold the differential signal modulo two unit intervals into a grid.

    ``fold_offset_ps`` picks the waveform time mapped to the left window
    edge; choose it half a UI before a bit center so the eye sits at the
    window center.  A UI that is not positive and finite, or a non-finite
    time grid or offset, is a ``ValueError``; a window shorter than 100 UI
    is a ``ResolutionError``.  The samples are read in passes of
    ``_PASS_CELLS``: one for the voltage range, ±(1.05 max|Tx+ - Tx-| +
    1e-9), and one that counts each sample in its ``np.histogram2d`` bin.
    The range spans every difference, so each sample lands on the grid; its
    voltage bin is ``_bin_index``'s.

    The time bin is certify-or-exact (``_floor_bins``).  With P = 2 UI and x
    the sample time less the offset, the fast phase x - P floor(x / P) is
    scaled by bins_t / P to a bin coordinate.  Where floor(x / P) is right,
    the fast phase is off from the exact one by the roundings of
    P floor(x / P) and of the difference, at most u (|x| + 2P) (u = 2^-53),
    and the scale adds 2.1u P.  The bin it must match is that of
    ``np.mod(x, P) / ui``, at most two roundings (2u P) from the exact phase,
    among the edges fl(i fl(2 / bins_t)) of [0, 2], each within 2.1u P of
    exact.  The sum is below 11 ulp of m = max(|x|, P).  Where floor(x / P)
    is one off, x is within u |x| of a multiple of P, so the coordinate is
    near 0 or bins_t, the wrap, which is never certain.  A sample that is not
    certain gets ``np.mod(x, P) / ui`` and ``_histogram_bins``.
    """
    if not (math.isfinite(ui_ps) and ui_ps > 0):
        raise ValueError(f"the eye needs a positive, finite ui_ps, got {ui_ps}")
    for name, value in (("t0_ps", tx_plus.t0_ps), ("dt_ps", tx_plus.dt_ps),
                        ("fold_offset_ps", fold_offset_ps)):
        if not math.isfinite(value):
            raise ValueError(f"the eye needs a finite {name}, got {value}")
    if tx_plus.dt_ps != tx_minus.dt_ps or tx_plus.t0_ps != tx_minus.t0_ps \
            or len(tx_plus.samples) != len(tx_minus.samples):
        raise AlignmentError("tx_plus and tx_minus are not on the same grid")
    n = len(tx_plus.samples)
    if n * tx_plus.dt_ps < 100 * ui_ps:
        raise ResolutionError(f"streaming window is {n * tx_plus.dt_ps / ui_ps:.1f} UI, "
                              "the eye needs at least 100")

    def diff(s: int, e: int) -> np.ndarray:
        return tx_plus.samples[s:e] - tx_minus.samples[s:e]

    vmax = float(reduce(np.maximum, (np.abs(diff(s, e)).max() for s, e in _passes(n))))
    vmax = vmax * 1.05 + 1e-9
    t_edges = np.histogram_bin_edges(np.empty(0), bins_t, (0.0, 2.0))
    v_edges = np.histogram_bin_edges(np.empty(0), bins_v, (-vmax, vmax))
    counts = np.zeros(bins_v * bins_t, dtype=np.int64)  # [voltage bin, time bin] cells
    period = 2.0 * ui_ps
    for s, e in _passes(n):
        x = tx_plus.times(s, e)
        x -= fold_offset_ps
        c = x / period
        np.floor(c, out=c)
        c *= period
        np.subtract(x, c, out=c)  # the fast phase, in ps
        c *= bins_t / period
        # dt > 0 (the window holds 100 UI), so x is monotone and largest at an end
        m = max(abs(x[0]), abs(x[-1]), period)
        t_bin = _floor_bins(c, bins_t, m, period,
                            lambda w: _histogram_bins(np.mod(x[w], period) / ui_ps, t_edges))
        cell = _bin_index(diff(s, e), v_edges)
        cell *= bins_t
        cell += t_bin
        np.add.at(counts, cell, 1)
    return EyeHistogram(ui_ps=ui_ps, counts=counts.reshape(bins_v, bins_t),
                        t_edges_ui=t_edges, v_edges=v_edges,
                        fold_offset_ps=fold_offset_ps)


def mask_check(eye: EyeHistogram, mask: EyeMask) -> tuple[bool, float]:
    """(pass, margin): no occupied bin center inside the keep-out polygon.

    Margin is the smallest vertical clearance between occupied bins and the
    mask boundary (negative when violated); with nothing near the mask it
    falls back to the clearance between mask and grid edge.
    """
    t_centers = 0.5 * (eye.t_edges_ui[:-1] + eye.t_edges_ui[1:]) - 1.0
    v_centers = 0.5 * (eye.v_edges[:-1] + eye.v_edges[1:])

    # the mask extent depends only on the bin's time column; where the mask has
    # none, the empty [inf, -inf] gives every bin an infinite clearance
    empty = (math.inf, -math.inf)
    extents = [mask.vertical_extent(x) or empty for x in t_centers.tolist()]
    v_lo, v_hi = np.array(extents, dtype=float).reshape(-1, 2).T
    vi, ti = np.nonzero(eye.counts)
    v = v_centers[vi]
    # the clearance below v_lo or above v_hi, and minus the nearer one inside (-0.0 on
    # the edge): v_lo <= v_hi, so the lesser difference is the one to negate
    d = -np.minimum(v - v_lo[ti], v_hi[ti] - v)
    margin = float(d.min(initial=math.inf))
    if margin == math.inf:
        mask_vs = [v for _, v in mask.vertices]
        return True, float(min(eye.v_edges[-1] - max(mask_vs), min(mask_vs) - eye.v_edges[0]))
    return margin > 0, margin  # a bin inside, or on the edge (-0.0), violates
