"""Value Change Dump export of simulation traces (1 ps timescale)."""

from __future__ import annotations

import numpy as np

from .driver import _digits, _int_cells, _join_cells
from .logic import UNKNOWN, SignalTraces

_ID_CHARS = [chr(c) for c in range(33, 127)]


def _identifiers(n: int) -> list[str]:
    ids = []
    for i in range(n):
        s = ""
        k = i
        while True:
            s = _ID_CHARS[k % len(_ID_CHARS)] + s
            k = k // len(_ID_CHARS) - 1
            if k < 0:
                break
        ids.append(s)
    return ids


def traces_to_vcd(traces: SignalTraces) -> memoryview:
    """Render traces as VCD text in module ``channel``; byte-stable for identical inputs."""
    nets = traces.nets()
    if not nets:
        raise ValueError("no nets to export")
    ids = _identifiers(len(nets))

    out = [
        "$timescale 1 ps $end",
        "$scope module channel $end",
    ]
    for net, ident in zip(nets, ids):
        out.append(f"$var wire 1 {ident} {net} $end")
    out.append("$upscope $end")
    out.append("$enddefinitions $end")

    out.append("#0")
    out.append("$dumpvars")
    times, levels = [], []
    for net, ident in zip(nets, ids):
        ev_t, codes = traces.arrays(net)
        skip = int(len(ev_t) and ev_t[0] == 0)  # a change at 0 is a dumpvars value
        out.append("01x"[codes[0] if skip else UNKNOWN] + ident)
        times.append(ev_t[skip:])
        levels.append(codes[skip:])
    out.append("$end")

    # one line per change, after a "#t" line where its time is new; nets in
    # declaration order within a time
    t = np.concatenate(times)
    order = np.argsort(t, kind="stable")
    t = t[order]
    if len(t) and t[0] < 0:
        raise ValueError(f"negative change time {t[0]} ps")
    # (net, level) string index: three per net, in level code order
    code = (3 * np.repeat(np.arange(len(nets)), [len(c) for c in levels])
            + np.concatenate(levels))[order]
    table = np.array([c + ident for ident in ids for c in "01x"], dtype="S")
    new_time = np.ones(len(t), dtype=bool)
    new_time[1:] = t[1:] != t[:-1]
    width = _digits(t)

    def time_heads(cells: np.ndarray, s: int, e: int) -> None:
        new = new_time[s:e]
        cells[:] = 0
        cells[new, 0] = ord("#")
        cells[new, 1:-1] = _int_cells(t[s:e][new], width)
        cells[new, -1] = ord("\n")

    def changes(cells: np.ndarray, s: int, e: int) -> None:
        cells[:] = table[code[s:e]].view(np.uint8).reshape(e - s, table.itemsize)

    return _join_cells(len(t), [
        (width + 2, time_heads),
        (table.itemsize, changes),
        b"\n",
    ], ("\n".join(out) + "\n").encode(), f"#{traces.horizon_ps}\n".encode())
