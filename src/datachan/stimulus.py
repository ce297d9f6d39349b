"""Stimulus generation: serial clock, control schedules, parallel-bus updates.

All edge times are computed on the exact rational bit-period grid and
rounded per edge (in integer arithmetic, ties to even), so long runs
accumulate no drift.  The parallel bus is updated inside the safe window
of each selection round (the last slot, after the held bits were captured
and after the direct bits were used).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .config import ChannelConfig
from .errors import SeedError
from .logic import HIGH, LOW, NetEvent, merge_events

Word = tuple[int, ...]


class Action(enum.Enum):
    ENABLE_PULSE = "enable-pulse"
    DISABLE_ASSERT = "disable-assert"
    DISABLE_RELEASE = "disable-release"


@dataclass
class ProtocolSchedule:
    """Time-ordered control actions on the Disable/Enable lines."""

    actions: list[tuple[int, Action]]

    def __post_init__(self):
        times = [t for t, _ in self.actions]
        if times != sorted(times):
            raise ValueError("schedule actions must be time-ordered")

    def times_of(self, action: Action) -> list[int]:
        return [t for t, a in self.actions if a is action]

    def to_events(self, config: ChannelConfig) -> list[NetEvent]:
        period = round(config.bit_period)
        events = []
        first = True
        for t, action in self.actions:
            if action is Action.DISABLE_ASSERT:
                events.append(NetEvent(t, "Disable", HIGH))
                if first:
                    # pin Enable to a known level along with the first assert
                    events.append(NetEvent(t, "Enable", LOW))
                    first = False
            elif action is Action.DISABLE_RELEASE:
                events.append(NetEvent(t, "Disable", LOW))
            elif action is Action.ENABLE_PULSE:
                # about one period high, so that exactly one rising Dclk edge
                # sees it: edge k samples HIGH, edge k + 1 samples LOW
                k = timing_for_enable(config, t).first_sel_edge - 1
                fall = min(max(t + period, rising_dclk_time(config, k) + 1),
                           rising_dclk_time(config, k + 1))
                events.append(NetEvent(t, "Enable", HIGH))
                events.append(NetEvent(fall, "Enable", LOW))
        return merge_events([events])


# --------------------------------------------------------------------------
# clock grid

def _half_periods(config: ChannelConfig, n: int) -> int:
    """``round(n * bit_period / 2)`` in integer arithmetic.

    Matches rounding the exact ``Fraction``, ties to even included.
    """
    period = config.bit_period
    return _round_div(n * period.numerator, 2 * period.denominator)


def _round_div(num: int, den: int) -> int:
    """``num / den`` rounded to the nearest integer, ties to even (``den > 0``)."""
    quot, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and quot & 1):
        quot += 1
    return quot


def clock_rise_time(config: ChannelConfig, k: int) -> int:
    return _half_periods(config, 2 * k)

def clock_fall_time(config: ChannelConfig, k: int) -> int:
    return _half_periods(config, 2 * k + 1)

def rising_dclk_time(config: ChannelConfig, k: int) -> int:
    return clock_rise_time(config, k) + config.buffer_delay_ps

def falling_dclk_time(config: ChannelConfig, k: int) -> int:
    return clock_fall_time(config, k) + config.buffer_delay_ps


def clock_events(config: ChannelConfig, until_ps: int) -> list[NetEvent]:
    """Serial clock toggling from t=0 (low) past ``until_ps``."""
    period = config.bit_period
    num, den = period.numerator, 2 * period.denominator
    events = []
    n = 0  # half periods: even n rises, odd n falls
    while True:
        rise = _round_div(n * num, den)
        if rise > until_ps:
            return events
        events.append(NetEvent(rise, "Clock", HIGH))
        fall = _round_div((n + 1) * num, den)
        if fall <= until_ps:
            events.append(NetEvent(fall, "Clock", LOW))
        n += 2


@dataclass
class SlotTiming:
    """Maps (round, slot) to absolute time after an enable took effect.

    ``first_sel_edge`` is the index of the falling working-clock edge at
    which the first select rises.
    """

    config: ChannelConfig
    first_sel_edge: int

    def slot_start(self, round_idx: int, slot: int) -> int:
        cfg = self.config
        k = self.first_sel_edge + cfg.word_width * round_idx + (slot - 1)
        return falling_dclk_time(cfg, k) + cfg.ff_delay_ps

    def slot_mid(self, round_idx: int, slot: int) -> int:
        return self.slot_start(round_idx, slot) + _half_periods(self.config, 1)


def timing_for_enable(config: ChannelConfig, enable_time_ps: int) -> SlotTiming:
    """Slot timing implied by an enable pulse starting at ``enable_time_ps``."""
    # the first rising Dclk edge at or after the enable samples it: the kernel
    # applies a stimulus change before the events scheduled for the same time
    k = 0
    while rising_dclk_time(config, k) < enable_time_ps:
        k += 1
    # armed at falling edge k, Start high after it, Sel1 at falling edge k+1
    return SlotTiming(config, first_sel_edge=k + 1)


# --------------------------------------------------------------------------
# parallel data bus

def word_events(words: list[Word], timing: SlotTiming) -> list[NetEvent]:
    """Bus updates: word 0 before enable, word k inside round k-1's last slot."""
    width = timing.config.word_width
    events: list[NetEvent] = []
    prev: Word | None = None
    for idx, word in enumerate(words):
        if len(word) != width:
            raise ValueError(f"word {idx} has width {len(word)}, expected {width}")
        t = 0 if idx == 0 else timing.slot_mid(idx - 1, width)
        for bit in range(width):
            if prev is None or word[bit] != prev[bit]:
                events.append(NetEvent(t, f"D{bit}", HIGH if word[bit] else LOW))
        prev = word
    return events


# --------------------------------------------------------------------------
# canned schedules and full-run assembly

def reset_schedule(config: ChannelConfig, assert_at: int | None = None) -> ProtocolSchedule:
    """Assert Disable, release it, then pulse Enable two periods later.

    Disable is held long enough for the unknown power-on levels to drain
    through the whole ring: ``max(12, word_width + 2)`` periods.
    """
    period = config.bit_period
    t0 = assert_at if assert_at is not None else round(period / 4)
    t1 = round(t0 + max(12, config.word_width + 2) * period)
    t2 = round(t1 + 2 * period)
    return ProtocolSchedule([
        (t0, Action.DISABLE_ASSERT),
        (t1, Action.DISABLE_RELEASE),
        (t2, Action.ENABLE_PULSE),
    ])


@dataclass
class StreamStimulus:
    events: list[NetEvent]
    timing: SlotTiming | None
    schedule: ProtocolSchedule
    until_ps: int


def stream_stimulus(config: ChannelConfig, words: list[Word],
                    schedule: ProtocolSchedule | None = None,
                    tail_periods: int = 4) -> StreamStimulus:
    """Assemble clock + control + bus events to serialize ``words`` once.

    With no enable pulse nothing streams (``words`` must be empty, ``timing``
    is None) and the run ends ``tail_periods`` after power-on.
    """
    if schedule is None:
        schedule = reset_schedule(config)
    enable_times = schedule.times_of(Action.ENABLE_PULSE)
    if words and not enable_times:
        raise ValueError("schedule contains no enable pulse")
    timing = timing_for_enable(config, enable_times[0]) if enable_times else None
    start = timing.slot_start(len(words), 1) if timing else 0
    until = start + round(tail_periods * config.bit_period)
    events = merge_events([
        clock_events(config, until),
        schedule.to_events(config),
        word_events(words, timing) if timing else [],
    ])
    return StreamStimulus(events=events, timing=timing, schedule=schedule,
                          until_ps=until)


# --------------------------------------------------------------------------
# PRBS word generation

_LFSR_TAPS = {"PRBS7": (7, 6), "PRBS10": (10, 7)}


def prbs_bits(kind: str, n_bits: int, seed: int) -> list[int]:
    """Maximal-length LFSR bit stream (x^7+x^6+1 or x^10+x^7+1)."""
    if kind not in _LFSR_TAPS:
        raise ValueError(f"unknown PRBS kind {kind!r}")
    n, m = _LFSR_TAPS[kind]
    mask = (1 << n) - 1
    state = seed & mask
    if state == 0:
        raise SeedError(f"seed {seed:#x} leaves the {kind} register stuck at zero")
    bits = []
    for _ in range(n_bits):
        out = (state >> (n - 1)) & 1
        bits.append(out)
        new = ((state >> (n - 1)) ^ (state >> (m - 1))) & 1
        state = ((state << 1) | new) & mask
    return bits


def gen_prbs(kind: str, n_words: int, seed: int, width: int = 10) -> list[Word]:
    """Pack a PRBS stream into parallel words, first stream bit in D0."""
    bits = prbs_bits(kind, n_words * width, seed)
    return [tuple(bits[i * width:(i + 1) * width]) for i in range(n_words)]


def random_words(n_words: int, seed: int, width: int = 10) -> list[Word]:
    import random

    rng = random.Random(seed)
    return [tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(n_words)]
