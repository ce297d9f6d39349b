"""Stimulus generation: serial clock, control schedules, parallel-bus updates.

All edge times are computed on the exact rational bit-period grid and
rounded per edge (in integer arithmetic, ties to even), so long runs
accumulate no drift.  The parallel bus is updated inside the safe window
of each selection round (the last slot, after the held bits were captured
and after the direct bits were used).  A run's stimulus is built as int64 and
int8 columns (``logic.Stimulus``), with no object per change.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import ChannelConfig
from .errors import ConfigError, SeedError
from .logic import HIGH, LOW, Stimulus

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

    def changes(self, config: ChannelConfig) -> Stimulus:
        """The Disable/Enable changes that carry out the actions, in time order."""
        period = round(config.bit_period)
        times, nets, levels = [], [], []

        def change(t: int, net: int, level: int):  # net 0 is Disable, 1 Enable
            times.append(t)
            nets.append(net)
            levels.append(level)

        first = True
        for t, action in self.actions:
            if action is Action.DISABLE_ASSERT:
                change(t, 0, HIGH)
                if first:
                    # pin Enable to a known level along with the first assert
                    change(t, 1, LOW)
                    first = False
            elif action is Action.DISABLE_RELEASE:
                change(t, 0, LOW)
            elif action is Action.ENABLE_PULSE:
                # about one period high, so that exactly one rising Dclk edge
                # sees it: edge k samples HIGH, edge k + 1 samples LOW
                k = timing_for_enable(config, t).first_sel_edge - 1
                change(t, 1, HIGH)
                change(min(max(t + period, rising_dclk_time(config, k) + 1),
                           rising_dclk_time(config, k + 1)), 1, LOW)
        order = np.argsort(times, kind="stable")
        return Stimulus(("Disable", "Enable"), np.array(times, dtype=np.int64)[order],
                        np.array(nets, dtype=np.int8)[order],
                        np.array(levels, dtype=np.int8)[order])


# --------------------------------------------------------------------------
# clock grid

def _half_periods(config: ChannelConfig, n):
    """``round(n * bit_period / 2)`` in integer arithmetic, for an int or, within
    ``_check_int64``'s bound, each element of an int64 array.

    Matches rounding the exact ``Fraction``, ties to even included.
    """
    period = config.bit_period
    return _round_div(n * period.numerator, 2 * period.denominator)


def _round_div(num, den: int):
    """``num / den`` rounded to the nearest integer, ties to even (``den > 0``),
    for an int or each element of an int64 array."""
    quot, rem = divmod(num, den)
    return quot + ((2 * rem > den) | ((2 * rem == den) & (quot & 1 == 1)))


def _check_int64(config: ChannelConfig, n_end: int) -> None:
    """Raise ``ConfigError`` unless ``_half_periods`` is exact in int64 for every
    n < ``n_end``: ``n * numerator`` and twice the remainder, below
    ``4 * denominator``, must stay under 2^63.

    That holds for every run that ``validate()`` and ``scenario.WORK_BUDGET``
    admit.  Its horizon is at most ``2^25 * dt_ps`` and ``dt_ps`` at most a
    32nd of the bit period, so the horizon is at most 2^20 bit periods and
    n <= 2^21 + 2.  The period is ``10^12 / serial_rate_hz`` ps, so its
    numerator is at most 10^12, and above 6 ps (the recirculation check), so
    ``4 * denominator < 4 * serial_rate_hz < 10^12``: every product is below
    (2^21 + 2) * 10^12 < 2^62.
    """
    period = config.bit_period
    if n_end * max(period.numerator, 4 * period.denominator) >= 1 << 63:
        raise ConfigError(f"{n_end} clock half periods at {config.serial_rate_hz} Hz "
                          "overflow the int64 edge times")


def clock_rise_time(config: ChannelConfig, k: int) -> int:
    return _half_periods(config, 2 * k)

def clock_fall_time(config: ChannelConfig, k: int) -> int:
    return _half_periods(config, 2 * k + 1)

def rising_dclk_time(config: ChannelConfig, k: int) -> int:
    return clock_rise_time(config, k) + config.buffer_delay_ps

def falling_dclk_time(config: ChannelConfig, k: int) -> int:
    return clock_fall_time(config, k) + config.buffer_delay_ps


def _clock(config: ChannelConfig, until_ps: int) -> Stimulus:
    """The serial clock from t=0 to ``until_ps``: edge n at ``_half_periods(config,
    n)``, rising at even n."""
    period = config.bit_period
    # round(n * period / 2) <= until_ps needs n * period / 2 < until_ps + 1
    n_end = (until_ps + 1) * 2 * period.denominator // period.numerator + 1
    _check_int64(config, n_end)
    times = _half_periods(config, np.arange(n_end, dtype=np.int64))
    times = times[:times.searchsorted(until_ps, side="right")]
    levels = np.full(len(times), HIGH, dtype=np.int8)
    levels[1::2] = LOW
    return Stimulus(("Clock",), times, np.zeros(len(times), dtype=np.int8), levels)


@dataclass
class SlotTiming:
    """Maps (round, slot) to absolute time after an enable took effect.

    ``first_sel_edge`` is the index of the falling working-clock edge at
    which the first select rises.
    """

    config: ChannelConfig
    first_sel_edge: int

    def slot_start(self, round_idx: int, slot: int) -> int:
        """For an int ``round_idx``, or each element of an int64 array of them."""
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

def _bus(words: list[Word], timing: SlotTiming) -> Stimulus:
    """Bus updates: word 0 at t=0, before enable, and word k inside round k-1's
    last slot; every bit at word 0, then the bits that changed."""
    config = timing.config
    width = config.word_width
    wrong = np.flatnonzero(np.fromiter(map(len, words), dtype=np.int64,
                                       count=len(words)) != width)
    if len(wrong):
        idx = int(wrong[0])
        raise ValueError(f"word {idx} has width {len(words[idx])}, expected {width}")
    bits = np.array(words, dtype=np.int8).reshape(len(words), width)
    changed = np.ones(bits.shape, dtype=bool)
    changed[1:] = bits[1:] != bits[:-1]
    word, bit = np.nonzero(changed)  # word by word, bits in order
    # word k at ``timing.slot_mid(k - 1, width)``, after clock half period
    # 2 * (first_sel_edge + width * k) - 1
    _check_int64(config, 2 * (timing.first_sel_edge + width * (len(words) - 1)) if words else 0)
    at = timing.slot_mid(np.arange(-1, len(words) - 1, dtype=np.int64), width)
    at[:1] = 0
    return Stimulus(tuple(f"D{b}" for b in range(width)), at[word], bit.astype(np.int8),
                    (bits[word, bit] != 0).astype(np.int8))


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
    events: Stimulus
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
    until = stream_horizon(config, len(words), schedule, tail_periods)
    parts = [_clock(config, until), schedule.changes(config)]
    if timing:
        parts.append(_bus(words, timing))
    return StreamStimulus(events=_merge(parts), timing=timing, schedule=schedule,
                          until_ps=until)


def _merge(parts: list[Stimulus]) -> Stimulus:
    """One stimulus of ``parts``, stably sorted by time: changes at one time keep
    the order of the parts, and their order within a part."""
    nets = tuple(dict.fromkeys(net for part in parts for net in part.nets))
    times = np.concatenate([part.times for part in parts])
    net = np.concatenate([np.array([nets.index(n) for n in part.nets], dtype=np.int8)[part.net]
                          for part in parts])
    order = np.argsort(times, kind="stable")
    return Stimulus(nets, times[order], net[order],
                    np.concatenate([part.level for part in parts])[order])


def stream_horizon(config: ChannelConfig, n_words: int, schedule: ProtocolSchedule,
                   tail_periods: int) -> int:
    """The end of ``stream_stimulus``'s run of ``n_words`` under ``schedule``:
    ``tail_periods`` bit periods after the slot that would follow the last word,
    or after power-on if ``schedule`` holds no enable pulse."""
    enable_times = schedule.times_of(Action.ENABLE_PULSE)
    start = (timing_for_enable(config, enable_times[0]).slot_start(n_words, 1)
             if enable_times else 0)
    return start + round(tail_periods * config.bit_period)


# --------------------------------------------------------------------------
# PRBS word generation

_LFSR_TAPS = {"PRBS7": (7, 6), "PRBS10": (10, 7)}


def prbs_bits(kind: str, n_bits: int, seed: int) -> list[int]:
    """Maximal-length LFSR bit stream (x^7+x^6+1 or x^10+x^7+1).

    Both polynomials are primitive, so the register runs through every one of
    its 2^n - 1 non-zero states before it returns to the seed: the register is
    stepped for one period at most, and the period repeated.
    """
    if kind not in _LFSR_TAPS:
        raise ValueError(f"unknown PRBS kind {kind!r}")
    n, m = _LFSR_TAPS[kind]
    mask = (1 << n) - 1
    state = seed & mask
    if state == 0:
        raise SeedError(f"seed {seed:#x} leaves the {kind} register stuck at zero")
    bits = []
    for _ in range(min(n_bits, mask)):
        out = (state >> (n - 1)) & 1
        bits.append(out)
        new = ((state >> (n - 1)) ^ (state >> (m - 1))) & 1
        state = ((state << 1) | new) & mask
    return (bits * (n_bits // mask + 1))[:n_bits]


def gen_prbs(kind: str, n_words: int, seed: int, width: int = 10) -> list[Word]:
    """Pack a PRBS stream into parallel words, first stream bit in D0."""
    bits = prbs_bits(kind, n_words * width, seed)
    return [tuple(bits[i * width:(i + 1) * width]) for i in range(n_words)]


def random_words(n_words: int, seed: int, width: int = 10) -> list[Word]:
    import random

    rng = random.Random(seed)
    return [tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(n_words)]
