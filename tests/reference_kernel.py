"""The event kernel before it was compiled to integer-coded nets and levels.

A test oracle: ``ReferenceSimulator`` runs a ``ChannelNetlist`` with the
original loop over a ``(time, seq, net, level)`` heap, string-keyed
``Level`` values and one ``poke`` per component and input change.  The
component logic below is the original ``poke`` code, kept on subclasses
of the netlist description classes, with the original ``Level``-valued
gates and reset-block logic: independent of the kernel's lookup tables.

The reference keeps list histories, recorded change by change with
``record``, the rule the kernel's loop once applied; ``traces_from_histories``
turns such lists into ``SignalTraces`` columns, for the reference and for
traces the tests build by hand.  ``histories_from_log`` applies ``record`` to
a kernel change log: the oracle of ``SignalTraces.from_log``.

``mux_lines`` recomputes the four wired lines, delay-free, from the select
traces and the data histories on the ``logic`` gate tables: the reference
for the kernel's ``SharedLine`` components.  ``intervals`` lists the pulses
of a recorded net, for the ring's timing checks.

The reference takes its stimulus as a list of ``NetEvent`` objects, the form
the stimulus builders once produced edge by edge: ``clock_events``,
``control_events`` and ``word_events``, merged by ``merge_events``, are those
builders, the oracle of ``stimulus.stream_stimulus``'s columns.  ``net_events``
turns a ``logic.Stimulus`` into such a list, and ``stimulus_of`` a hand-built
list into the kernel's columns.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from datachan.config import ChannelConfig
from datachan.errors import ContentionError
from datachan.logic import AND, HIGH, LOW, NOT, OR, UNKNOWN, Level, SignalTraces, Stimulus
from datachan.netlist import Buffer, ChannelNetlist, DFlipFlop, ResetBlock, SharedLine
from datachan.stimulus import (Action, ProtocolSchedule, SlotTiming, Word, rising_dclk_time,
                               timing_for_enable)


# --------------------------------------------------------------------------
# stimulus as one object per change

class NetEvent(NamedTuple):
    """A logic transition on one net at an integer picosecond timestamp."""

    time_ps: int
    net: str
    level: Level


def merge_events(streams: Iterable[Iterable[NetEvent]]) -> list[NetEvent]:
    """Flatten several event streams into one stable time-ordered list."""
    merged = [ev for s in streams for ev in s]
    merged.sort(key=lambda ev: ev.time_ps)
    return merged


def clock_events(config: ChannelConfig, until_ps: int) -> list[NetEvent]:
    """Serial clock toggling from t=0 (low) past ``until_ps``, each edge the
    exact ``Fraction`` rounded (ties to even)."""
    half = config.bit_period / 2
    events = []
    n = 0  # half periods: even n rises, odd n falls
    while True:
        rise = round(n * half)
        if rise > until_ps:
            return events
        events.append(NetEvent(rise, "Clock", HIGH))
        fall = round((n + 1) * half)
        if fall <= until_ps:
            events.append(NetEvent(fall, "Clock", LOW))
        n += 2


def control_events(schedule: ProtocolSchedule, config: ChannelConfig) -> list[NetEvent]:
    """The Disable/Enable events of ``schedule``'s actions, in time order."""
    period = round(config.bit_period)
    events = []
    first = True
    for t, action in schedule.actions:
        if action is Action.DISABLE_ASSERT:
            events.append(NetEvent(t, "Disable", HIGH))
            if first:
                # pin Enable to a known level along with the first assert
                events.append(NetEvent(t, "Enable", LOW))
                first = False
        elif action is Action.DISABLE_RELEASE:
            events.append(NetEvent(t, "Disable", LOW))
        elif action is Action.ENABLE_PULSE:
            k = timing_for_enable(config, t).first_sel_edge - 1
            fall = min(max(t + period, rising_dclk_time(config, k) + 1),
                       rising_dclk_time(config, k + 1))
            events.append(NetEvent(t, "Enable", HIGH))
            events.append(NetEvent(fall, "Enable", LOW))
    return merge_events([events])


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


def net_events(stim: Stimulus) -> list[NetEvent]:
    """The changes of ``stim`` as events, in column order."""
    return [NetEvent(t, stim.nets[net], Level(level))
            for t, net, level in zip(stim.times.tolist(), stim.net.tolist(),
                                     stim.level.tolist())]


def stimulus_of(events: list[NetEvent]) -> Stimulus:
    """The kernel's stimulus columns of ``events``, in their order, unchecked."""
    nets = tuple(dict.fromkeys(ev.net for ev in events))
    return Stimulus(nets, np.array([ev.time_ps for ev in events], dtype=np.int64),
                    np.array([nets.index(ev.net) for ev in events], dtype=np.int8),
                    np.array([ev.level for ev in events], dtype=np.int8))


# --------------------------------------------------------------------------
# three-valued gates and the reset block's decision logic on ``Level`` values

def k_not(a: Level) -> Level:
    if a is UNKNOWN:
        return UNKNOWN
    return LOW if a is HIGH else HIGH


def k_and(*terms: Level) -> Level:
    if any(t is LOW for t in terms):
        return LOW
    if any(t is UNKNOWN for t in terms):
        return UNKNOWN
    return HIGH


def k_or(*terms: Level) -> Level:
    if any(t is HIGH for t in terms):
        return HIGH
    if any(t is UNKNOWN for t in terms):
        return UNKNOWN
    return LOW


@dataclass
class ResetState:
    """Sample-and-hold state of the reset block.

    ``armed`` is refreshed at every falling working-clock edge from the
    Disable/Enable pair captured at the preceding rising edge.
    """

    sampled_disable: Level = UNKNOWN
    sampled_enable: Level = UNKNOWN
    armed: Level = UNKNOWN

    def start_level(self, disable: Level, enable: Level, buffered_last: Level) -> Level:
        """Combinational Start value for the current input levels.

        Disable high forces low.  The token recirculates whenever both
        control inputs are low and the buffered last select is high; this
        path is level-sensitive so the recurring Start pulse overlaps the
        last select instead of trailing it by a full clock.
        """
        armed_term = k_and(k_not(disable), self.armed)
        recirc_term = k_and(k_not(disable), k_not(enable), buffered_last)
        return k_or(armed_term, recirc_term)


def eval_reset(state: ResetState, edge: str, disable: Level, enable: Level,
               buffered_last: Level) -> Level:
    """Step the reset block over one working-clock edge and return Start.

    ``edge`` is ``"rise"`` or ``"fall"``.  A rising edge samples the
    Disable/Enable pair and leaves Start unchanged; a falling edge commits
    the sampled pair into the armed flag and re-evaluates Start.
    """
    if edge == "rise":
        state.sampled_disable = disable
        state.sampled_enable = enable
    elif edge == "fall":
        state.armed = k_and(k_not(state.sampled_disable), state.sampled_enable)
    else:
        raise ValueError(f"edge must be 'rise' or 'fall', got {edge!r}")
    return state.start_level(disable, enable, buffered_last)


# --------------------------------------------------------------------------
# reference components and event loop


class _Reference:
    @classmethod
    def of(cls, comp):
        """A reference twin of the description component ``comp``."""
        twin = cls.__new__(cls)
        twin.__dict__.update(comp.__dict__)
        return twin


class RefBuffer(_Reference, Buffer):
    def reset(self):
        pass

    def poke(self, sim: "ReferenceSimulator", net: str, old: Level, new: Level, t: int):
        sim.schedule(t + self.delay_ps, self.dst, k_not(new) if self.invert else new)


class RefDFlipFlop(_Reference, DFlipFlop):
    @property
    def inputs(self):
        # poked on its clock only: a change of D alone queues nothing
        return (self.clk,)

    def reset(self):
        pass

    def poke(self, sim: "ReferenceSimulator", net: str, old: Level, new: Level, t: int):
        trigger = (HIGH, LOW) if self.edge == "fall" else (LOW, HIGH)
        if (old, new) == trigger:
            sim.schedule(t + self.delay_ps, self.q, sim.values[self.d])


class RefResetBlock(_Reference, ResetBlock):
    def reset(self):
        self.state = ResetState()
        self._target = None

    def poke(self, sim: "ReferenceSimulator", net: str, old: Level, new: Level, t: int):
        dis = sim.values[self.disable]
        en = sim.values[self.enable]
        blast = sim.values[self.buffered_last]
        if net == self.dclk:
            if (old, new) == (LOW, HIGH):
                start = eval_reset(self.state, "rise", dis, en, blast)
            elif (old, new) == (HIGH, LOW):
                start = eval_reset(self.state, "fall", dis, en, blast)
            else:
                start = self.state.start_level(dis, en, blast)
        else:
            start = self.state.start_level(dis, en, blast)
        if start is not self._target:
            self._target = start
            sim.schedule(t + self.delay_ps, self.start, start)


class RefSharedLine(_Reference, SharedLine):
    def reset(self):
        self._target = None

    def _pull_terms(self, values: dict[str, Level]) -> list[tuple[str, Level, Level]]:
        out = []
        for sel, src, active in self.pullers:
            bit = values[src] if active else k_not(values[src])
            out.append((sel, values[sel], k_and(values[sel], bit)))
        return out

    def poke(self, sim: "ReferenceSimulator", net: str, old: Level, new: Level, t: int):
        terms = self._pull_terms(sim.values)
        active = [(sel, pull) for sel, sel_lvl, pull in terms if sel_lvl is HIGH]
        if len(active) >= 2 and len({p for _, p in active}) > 1:
            raise ContentionError(
                f"conflicting drive on {self.line} at {t} ps from "
                + ", ".join(sel for sel, _ in active)
            )
        level = k_not(k_or(*(pull for _, _, pull in terms)))
        if level is not self._target:
            self._target = level
            sim.schedule(t + self.delay_ps, self.line, level)


# zero-delay events the reference runs at one timestamp before it gives up: the
# kernel rejects a zero-delay cycle when it is built, the reference would hang
ZERO_DELAY_LIMIT = 1000


class ZeroDelayLoopError(Exception):
    """More than ``ZERO_DELAY_LIMIT`` zero-delay events at one timestamp."""


_TWINS = {Buffer: RefBuffer, DFlipFlop: RefDFlipFlop, ResetBlock: RefResetBlock,
          SharedLine: RefSharedLine}


class ReferenceSimulator:
    """Single-threaded deterministic event loop over one netlist instance."""

    def __init__(self, netlist: ChannelNetlist):
        self.netlist = netlist
        self.values: dict[str, Level] = {net: UNKNOWN for net in netlist.nets}
        self.traces: dict[str, list[tuple[int, Level]]] = {
            net: [(0, UNKNOWN)] for net in netlist.nets
        }
        self.sensitivity: dict[str, list] = {}
        for desc in netlist.components:
            comp = _TWINS[type(desc)].of(desc)
            comp.reset()
            for net in comp.inputs:
                self.sensitivity.setdefault(net, []).append(comp)
        self._heap: list[tuple[int, int, str, Level]] = []
        self._seq = itertools.count()

    def schedule(self, time_ps: int, net: str, level: Level):
        heapq.heappush(self._heap, (time_ps, next(self._seq), net, level))

    def run(self, stimulus: list[NetEvent], until_ps: int) -> SignalTraces:
        last_t = 0
        for ev in stimulus:
            if ev.net not in self.netlist.primary_inputs:
                raise ValueError(f"stimulus on non-primary net {ev.net!r}")
            if ev.time_ps < last_t:
                raise ValueError("stimulus events must be time-ordered")
            last_t = ev.time_ps
            self.schedule(ev.time_ps, ev.net, ev.level)
        if until_ps < last_t:
            raise ValueError("simulation horizon ends before the last stimulus event")

        # only zero-delay events count: those whose sequence number was drawn
        # after their timestamp began
        cur_t, began, count = -1, 0, 0
        heap = self._heap
        while heap and heap[0][0] <= until_ps:
            t, seq, net, level = heapq.heappop(heap)
            if t != cur_t:
                cur_t, began, count = t, next(self._seq), 0
            if seq > began:
                count += 1
                if count > ZERO_DELAY_LIMIT:
                    raise ZeroDelayLoopError(f"more than {ZERO_DELAY_LIMIT} zero-delay "
                                             f"events at {t} ps (net {net})")
            old = self.values[net]
            if level is old:
                continue
            self.values[net] = level
            record(self.traces[net], t, level)
            for comp in self.sensitivity.get(net, ()):
                comp.poke(self, net, old, level, t)
        return traces_from_histories(self.traces, until_ps)


# --------------------------------------------------------------------------
# list histories: the traces' columns as the kernel once recorded them

def traces_from_histories(histories: dict[str, list[tuple[int, int]]],
                          horizon_ps: int) -> SignalTraces:
    """``SignalTraces`` of per-net ``[(time_ps, level), ...]`` histories, as given."""
    columns = {}
    for net, hist in histories.items():
        times = np.array([t for t, _ in hist], dtype=np.int64)
        codes = np.array([lvl for _, lvl in hist], dtype=np.int8)
        times.flags.writeable = codes.flags.writeable = False
        columns[net] = (times, codes)
    return SignalTraces(columns=columns, horizon_ps=horizon_ps)


def record(hist: list[tuple[int, int]], t: int, level: int) -> None:
    """Record a change applied at ``t`` in ``hist``: a change at the time of the
    last entry replaces it, and is dropped if it restores the level before it."""
    if hist and hist[-1][0] == t:
        hist[-1] = (t, level)
        if len(hist) > 1 and hist[-2][1] == level:
            hist.pop()
    else:
        hist.append((t, level))


def histories_from_log(nets: list[str], log: list[tuple[int, int]]) -> dict[str, list]:
    """Every net's history from a change log of ``(time_ps, net << 2 | level)`` that
    starts with each net's power-on ``(0, net << 2 | UNKNOWN)``, change by change."""
    out: dict[str, list] = {net: [] for net in nets}
    for t, code in log:
        record(out[nets[code >> 2]], t, code & 3)
    return out


# --------------------------------------------------------------------------
# functional line multiplexing (delay-free recomputation of the wired lines)

def mux_lines(traces: SignalTraces, word_source: dict[str, list[tuple[int, int]]],
              width: int = 10) -> dict[str, list[tuple[int, int]]]:
    """Recompute the four shared lines from select traces and data histories.

    ``word_source`` maps D0..D{width-1} to event histories holding the value
    each selector should serialize.  Pure and delay-free; serves as an
    independent reference for the in-netlist wired lines.
    """
    groups = {
        "Odd": [(k, 1) for k in range(1, width + 1) if k % 2 == 1],
        "nOdd": [(k, 0) for k in range(1, width + 1) if k % 2 == 1],
        "Even": [(k, 1) for k in range(1, width + 1) if k % 2 == 0],
        "nEven": [(k, 0) for k in range(1, width + 1) if k % 2 == 0],
    }

    histories: dict[str, list[tuple[int, int]]] = {}
    for k in range(1, width + 1):
        histories[f"Sel{k}"] = traces.events[f"Sel{k}"]
    for i in range(width):
        histories[f"D{i}"] = word_source.get(f"D{i}", [(0, UNKNOWN)])

    times = sorted({t for hist in histories.values() for t, _ in hist})
    cursors = {name: 0 for name in histories}
    current = {name: UNKNOWN for name in histories}

    out: dict[str, list[tuple[int, int]]] = {name: [] for name in groups}
    for t in times:
        for name, hist in histories.items():
            i = cursors[name]
            while i < len(hist) and hist[i][0] <= t:
                current[name] = hist[i][1]
                i += 1
            cursors[name] = i
        sel_lvls = {k: current[f"Sel{k}"] for k in range(1, width + 1)}
        bit_lvls = {i: current[f"D{i}"] for i in range(width)}
        for name, members in groups.items():
            pulled = 0  # the OR of the pulls, from its identity LOW
            active = []
            for k, active_bit in members:
                bit = bit_lvls[k - 1] if active_bit else NOT[bit_lvls[k - 1]]
                pull = AND[sel_lvls[k]][bit]
                pulled = OR[pulled][pull]
                if sel_lvls[k] == HIGH:
                    active.append((k, pull))
            if len(active) >= 2 and len({p for _, p in active}) > 1:
                raise ContentionError(
                    f"conflicting drive on {name} at {t} ps "
                    f"(selects {[k for k, _ in active]})"
                )
            level = NOT[pulled]
            hist = out[name]
            if not hist or hist[-1][1] != level:
                hist.append((t, level))
    return out


def intervals(traces: SignalTraces, net: str, level: Level) -> list[tuple[int, int]]:
    """Closed-open time intervals during which ``net`` holds ``level``."""
    out = []
    start = None
    for t, lvl in traces.events[net]:
        if start is not None:
            out.append((start, t))
            start = None
        if lvl == level:
            start = t
    if start is not None:
        out.append((start, traces.horizon_ps))
    return out
