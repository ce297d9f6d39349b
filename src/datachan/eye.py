"""Eye-diagram folding and keep-out mask checking."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import check_mask
from .driver import WaveformTrace, _bin_index, _digits, _int_cells, _join_cells, _passes
from .errors import AlignmentError


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
        followed by a ``,`` or, at the end of a row, a newline.
        """
        rows, cols = self.counts.shape
        if not rows or not cols:
            return memoryview(b"\n" * max(rows, 1))
        values = self.counts.ravel()
        # np.abs(-2**63) wraps to -2**63, whose uint64 cast is its magnitude
        mags = np.abs(values).astype(np.uint64)
        width = _digits(mags)

        def signs(cells: np.ndarray, s: int, e: int) -> None:
            cells[:, 0] = (values[s:e] < 0) * np.uint8(ord("-"))

        def ends(cells: np.ndarray, s: int, e: int) -> None:
            cells[:, 0] = np.where(np.arange(s, e) % cols == cols - 1, ord("\n"), ord(","))

        return _join_cells(len(values), [
            (1, signs), (width, lambda cells, s, e: _int_cells(mags[s:e], width, cells)),
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
              fold_offset_ps: float = 0.0,
              v_range: tuple[float, float] | None = None) -> EyeHistogram:
    """Fold the differential signal modulo two unit intervals into a grid.

    ``fold_offset_ps`` picks the waveform time mapped to the left window
    edge; choose it half a UI before a bit center so the eye sits at the
    window center.  The samples are read in passes of ``_PASS_CELLS``: one
    for the voltage range when ``v_range`` is None, one that counts each sample
    in its ``np.histogram2d`` bin (``_bin_index``), unless it is outside ``v_range``.
    """
    if tx_plus.dt_ps != tx_minus.dt_ps or tx_plus.t0_ps != tx_minus.t0_ps \
            or len(tx_plus.samples) != len(tx_minus.samples):
        raise AlignmentError("tx_plus and tx_minus are not on the same grid")
    n = len(tx_plus.samples)
    if n * tx_plus.dt_ps < 100 * ui_ps:
        raise ValueError("need at least 100 unit intervals of waveform")

    def diff(s: int, e: int) -> np.ndarray:
        return tx_plus.samples[s:e] - tx_minus.samples[s:e]

    if v_range is None:
        vmax = float(reduce(np.maximum, (np.abs(diff(s, e)).max() for s, e in _passes(n))))
        vmax = vmax * 1.05 + 1e-9
        v_range = (-vmax, vmax)

    t_edges = np.histogram_bin_edges(np.empty(0), bins_t, (0.0, 2.0))
    v_edges = np.histogram_bin_edges(np.empty(0), bins_v, (v_range[0], v_range[1]))
    # [voltage bin, time bin] cells, with a last row and column for samples off the grid
    counts = np.zeros((bins_v + 1) * (bins_t + 1), dtype=np.int64)
    for s, e in _passes(n):
        phase = np.mod(tx_plus.times(s, e) - fold_offset_ps, 2.0 * ui_ps) / ui_ps
        cell = _bin_index(diff(s, e), v_edges) * (bins_t + 1) + _bin_index(phase, t_edges)
        counts += np.bincount(cell, minlength=len(counts))
    return EyeHistogram(ui_ps=ui_ps, counts=counts.reshape(bins_v + 1, -1)[:-1, :-1].copy(),
                        t_edges_ui=t_edges, v_edges=v_edges,
                        fold_offset_ps=fold_offset_ps)


def mask_check(eye: EyeHistogram, mask: EyeMask) -> tuple[bool, float]:
    """(pass, margin): no occupied bin center inside the keep-out polygon.

    Margin is the smallest vertical clearance between occupied bins and the
    mask boundary (negative when violated); with nothing near the mask it
    falls back to the clearance between mask and grid edge.
    """
    t_centers = 0.5 * (eye.t_edges_ui[:-1] + eye.t_edges_ui[1:]) - 1.0
    v_centers = (0.5 * (eye.v_edges[:-1] + eye.v_edges[1:])).tolist()

    # the mask extent depends only on the bin's time column
    extents = [mask.vertical_extent(x) for x in t_centers.tolist()]
    margin = None
    violated = False
    vi, ti = np.nonzero(eye.counts)
    for iv, it in zip(vi.tolist(), ti.tolist()):
        extent = extents[it]
        if extent is None:
            continue
        v = v_centers[iv]
        v_lo, v_hi = extent
        if v < v_lo:
            d = v_lo - v
        elif v > v_hi:
            d = v - v_hi
        else:
            violated = True
            d = -min(v - v_lo, v_hi - v)
        margin = d if margin is None else min(margin, d)

    if margin is None:
        mask_vs = [v for _, v in mask.vertices]
        margin = min(eye.v_edges[-1] - max(mask_vs), min(mask_vs) - eye.v_edges[0])
    return (not violated, float(margin))
