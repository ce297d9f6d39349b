"""Three-valued logic levels, net events and recorded signal traces."""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple

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


class NetEvent(NamedTuple):
    """A logic transition on one net at an integer picosecond timestamp."""

    time_ps: int
    net: str
    level: Level


@dataclass
class SignalTraces:
    """Per-net event histories produced by one simulation run.

    ``events[net]`` is a strictly time-ordered list of ``(time_ps, level)``
    pairs in which consecutive entries always carry different levels.  A
    level is its code 0/1/2 (a ``Level`` member compares equal to its
    code).  Instances are treated as immutable once a run has completed.
    The methods below are the package's only readers of the histories.
    """

    events: dict[str, list[tuple[int, int]]]
    horizon_ps: int

    def nets(self) -> list[str]:
        return list(self.events)

    def level_at(self, net: str, time_ps: int) -> Level:
        """Level of ``net`` at ``time_ps`` (the last change at or before it)."""
        hist = self.events[net]
        i = bisect_right(hist, time_ps, key=itemgetter(0))
        return LEVELS[hist[i - 1][1]] if i else UNKNOWN

    def last_change(self, net: str, before_ps: int) -> tuple[int, int] | None:
        """The last ``(time_ps, level)`` change of ``net`` before ``before_ps``, or None."""
        hist = self.events[net]
        i = bisect_left(hist, before_ps, key=itemgetter(0))
        return hist[i - 1] if i else None

    def known_from(self, net: str) -> int | None:
        """Time from which ``net`` never holds UNKNOWN again (0: never does; None: ends so)."""
        hist = self.events[net]
        try:
            j = list(map(itemgetter(1), reversed(hist))).index(UNKNOWN)
        except ValueError:
            return 0
        i = len(hist) - j  # the change after the last UNKNOWN one
        return hist[i][0] if i < len(hist) else None

    def arrays(self, net: str) -> tuple[np.ndarray, np.ndarray]:
        """Change times and level codes of ``net`` as int64 and int8 arrays."""
        hist = self.events[net]
        return (np.fromiter(map(itemgetter(0), hist), np.int64, len(hist)),
                np.fromiter(map(itemgetter(1), hist), np.int8, len(hist)))

    def edges(self, net: str, kind: str = "rise") -> list[int]:
        """Times at which ``net`` transitions LOW->HIGH (rise) or HIGH->LOW (fall).

        The times are the history's own int objects.
        """
        if kind not in ("rise", "fall"):
            raise ValueError("kind must be 'rise' or 'fall'")
        want_from, want_to = (LOW, HIGH) if kind == "rise" else (HIGH, LOW)
        out = []
        prev = UNKNOWN
        for t, lvl in self.events[net]:
            if prev == want_from and lvl == want_to:
                out.append(t)
            prev = lvl
        return out


def merge_events(streams: Iterable[Iterable[NetEvent]]) -> list[NetEvent]:
    """Flatten several event streams into one stable time-ordered list."""
    merged = [ev for s in streams for ev in s]
    merged.sort(key=lambda ev: ev.time_ps)
    return merged
