"""Value Change Dump export of simulation traces (1 ps timescale)."""

from __future__ import annotations

import numpy as np

from .logic import UNKNOWN, Level, SignalTraces

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


def traces_to_vcd(traces: SignalTraces, module: str = "channel") -> str:
    """Render traces as VCD text; byte-stable for identical inputs."""
    nets = traces.nets()
    if not nets:
        raise ValueError("no nets to export")
    ids = dict(zip(nets, _identifiers(len(nets))))

    out = [
        "$timescale 1 ps $end",
        f"$scope module {module} $end",
    ]
    for net in nets:
        out.append(f"$var wire 1 {ids[net]} {net} $end")
    out.append("$upscope $end")
    out.append("$enddefinitions $end")

    out.append("#0")
    out.append("$dumpvars")
    times: list[int] = []
    values: list[str] = []
    for net in nets:
        hist = traces.events[net]
        value_of = {lvl: lvl.vcd_char + ids[net] for lvl in Level}
        if hist and hist[0][0] == 0:
            out.append(value_of[hist[0][1]])
            hist = hist[1:]
        else:
            out.append(value_of[UNKNOWN])
        if hist:
            net_times, levels = zip(*hist)
            times += net_times
            values += map(value_of.__getitem__, levels)
    out.append("$end")

    if times:
        # a "#t" line before the changes at each time, nets in declaration order
        t = np.asarray(times, dtype=np.int64)
        order = np.argsort(t, kind="stable")
        t = t[order]
        new_time = np.ones(len(t), dtype=bool)
        new_time[1:] = t[1:] != t[:-1]
        heads = np.cumsum(new_time)  # "#t" lines up to and including each change
        body = np.empty(len(t) + heads[-1], dtype=object)
        body[np.arange(len(t)) + heads] = np.asarray(values, dtype=object)[order]
        body[np.flatnonzero(new_time) + heads[new_time] - 1] = list(
            map("#{}".format, t[new_time].tolist()))
        out += body.tolist()
    out.append(f"#{traces.horizon_ps}")
    return "\n".join(out) + "\n"

