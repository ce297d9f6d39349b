"""Three-valued logic levels, a run's stimulus and its recorded signal traces."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Level(enum.IntEnum):
    """A level and its integer code; traces and the kernel hold the codes."""

    LOW = 0
    HIGH = 1
    UNKNOWN = 2

    def __repr__(self):
        return self.name


LOW = Level.LOW
HIGH = Level.HIGH
UNKNOWN = Level.UNKNOWN
LEVELS = tuple(Level)  # code -> Level

# gates on level codes: NOT[a], AND[a][b], OR[a][b]
NOT = (1, 0, 2)
AND = ((0, 0, 0), (0, 1, 2), (0, 2, 2))
OR = ((0, 1, 2), (1, 1, 1), (2, 1, 2))


@dataclass(eq=False)
class Stimulus:
    """The primary-input changes of one run, as columns in the order applied.

    Change ``i`` sets net ``nets[net[i]]`` to the level code ``level[i]`` at
    ``times[i]`` ps: ``times`` is int64, ``net`` and ``level`` are int8.
    Changes at one time are applied in column order.
    """

    nets: tuple[str, ...]
    times: np.ndarray
    net: np.ndarray
    level: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


@dataclass(eq=False)
class SignalTraces:
    """Per-net change columns recorded by one simulation run.

    ``columns[net]`` is ``(times, codes)``: read-only int64 change times,
    strictly increasing, and the int8 level code 0/1/2 set at each, no two
    consecutive codes equal.  A net is UNKNOWN before its first change.  The
    methods below are the package's only readers of the columns.
    """

    columns: dict[str, tuple[np.ndarray, np.ndarray]]
    horizon_ps: int

    @classmethod
    def from_log(cls, nets: list[str], times, codes, horizon_ps: int) -> SignalTraces:
        """The columns of a run's change log, in one numpy pass.

        ``times[i]`` and ``codes[i]`` (``net << 2 | level``, net indexing
        ``nets``) are int64 buffers in the order the changes were applied.  Per
        net, the last change at each time is kept, and of those only the ones
        to a new level: a change made and undone at one time leaves nothing.
        """
        code = np.frombuffer(codes, dtype=np.int64)
        net = (code >> 2).astype(np.int16)  # a stable sort of int16 is a radix sort
        order = np.argsort(net, kind="stable")
        net, t, level = net[order], np.frombuffer(times, dtype=np.int64)[order], code[order]
        keep = np.ones(len(t), dtype=bool)
        keep[:-1] = (net[1:] != net[:-1]) | (t[1:] != t[:-1])
        net, t, level = net[keep], t[keep], (level[keep] & 3).astype(np.int8)
        # an entry dropped here holds the level of the last kept one before it,
        # so comparing with the previous entry compares with the last kept one
        keep = np.ones(len(t), dtype=bool)
        keep[1:] = (net[1:] != net[:-1]) | (level[1:] != level[:-1])
        net, t, level = net[keep], t[keep], level[keep]
        t.flags.writeable = level.flags.writeable = False
        bounds = np.searchsorted(net, np.arange(len(nets) + 1)).tolist()
        return cls({name: (t[a:b], level[a:b]) for name, a, b in zip(nets, bounds, bounds[1:])},
                   horizon_ps)

    @property
    def events(self) -> dict[str, list[tuple[int, int]]]:
        """The histories as ``{net: [(time_ps, code), ...]}``, built on each read."""
        return {net: list(zip(times.tolist(), codes.tolist()))
                for net, (times, codes) in self.columns.items()}

    def nets(self) -> list[str]:
        return list(self.columns)

    def level_at(self, net: str, time_ps: int) -> Level:
        """Level of ``net`` at ``time_ps`` (the last change at or before it)."""
        return LEVELS[self.levels_at(net, [time_ps])[0]]

    def levels_at(self, net: str, times_ps) -> np.ndarray:
        """Level codes (int8) of ``net`` at each of the times ``times_ps``."""
        times, codes = self.columns[net]
        return np.append(np.int8(UNKNOWN), codes)[times.searchsorted(times_ps, side="right")]

    def last_change(self, net: str, before_ps: int) -> tuple[int, int] | None:
        """The last ``(time_ps, level)`` change of ``net`` before ``before_ps``, or None."""
        times, codes = self.columns[net]
        i = int(times.searchsorted(before_ps, side="left"))
        return (int(times[i - 1]), int(codes[i - 1])) if i else None

    def known_from(self, net: str) -> int | None:
        """Time from which ``net`` never holds UNKNOWN again (0: never does; None: ends so)."""
        times, codes = self.columns[net]
        unknown = np.flatnonzero(codes == UNKNOWN)
        if not len(unknown):
            return 0
        i = unknown[-1] + 1  # the change after the last UNKNOWN one
        return int(times[i]) if i < len(times) else None

    def arrays(self, net: str) -> tuple[np.ndarray, np.ndarray]:
        """Change times and level codes of ``net``: the int64 and int8 columns, not copies."""
        return self.columns[net]

    def edges(self, net: str, kind: str = "rise") -> np.ndarray:
        """Times (int64) at which ``net`` transitions LOW->HIGH (rise) or HIGH->LOW (fall)."""
        if kind not in ("rise", "fall"):
            raise ValueError("kind must be 'rise' or 'fall'")
        old, new = (LOW, HIGH) if kind == "rise" else (HIGH, LOW)
        times, codes = self.columns[net]
        return times[1:][(codes[:-1] == old) & (codes[1:] == new)]
