"""Event-driven model of the serializer channel's digital netlist.

The netlist is a token-passing ring: a splitter derives the two working
clocks from the single serial clock, eleven falling-edge flip-flops
circulate the Start token as the one-hot selects Sel1..Sel10 (plus the
parallel iSel1), a reset block arms the token from the Disable/Enable
pair or recirculates it from the buffered last select, and ten selector
blocks wire-multiplex the parallel data bits onto the four active-low
pre-driver lines Even/Odd/nEven/nOdd.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field

import numpy as np

from .config import ChannelConfig
from .errors import ConfigError, ContentionError
from .logic import AND, NOT, OR, SignalTraces, Stimulus


# --------------------------------------------------------------------------
# netlist components
#
# Components describe the netlist.  ``bind`` compiles one into the kernel:
# it registers, for each input net and each level change that can make the
# component act, an action bound to integer net indices (see ``Simulator``).
# A sink, a component whose output net no component reads, is computed after
# the run instead: ``levels`` maps its inputs' levels at each row of the
# change log to the level it queues there.

# Inside the kernel a level is its code: 0 LOW, 1 HIGH, 2 UNKNOWN.
_SAME = (0, 1, 2)
_CHANGES = tuple((old, new) for old in _SAME for new in _SAME if old != new)
_NOT = np.array(NOT, dtype=np.int8)


class Buffer:
    def __init__(self, src: str, dst: str, delay_ps: int, invert: bool = False):
        self.src, self.dst = src, dst
        self.delay_ps = delay_ps
        self.invert = invert

    @property
    def inputs(self):
        return (self.src,)

    def bind(self, sim: "Simulator"):
        out = NOT if self.invert else _SAME
        dst = sim.index[self.dst] << 2
        for net in self.inputs:
            for old, new in _CHANGES:
                sim.on(net, old, new, (self.delay_ps, dst + out[new], sim.low))

    def levels(self, held: dict[str, np.ndarray]) -> tuple[np.ndarray, None]:
        src = held[self.src]
        return (_NOT[src] if self.invert else src), None


class DFlipFlop:
    def __init__(self, clk: str, d: str, q: str, delay_ps: int, edge: str = "fall"):
        self.clk, self.d, self.q = clk, d, q
        self.delay_ps = delay_ps
        self.edge = edge

    @property
    def inputs(self):
        return (self.clk,)

    def bind(self, sim: "Simulator"):
        old, new = (1, 0) if self.edge == "fall" else (0, 1)
        action = (self.delay_ps, sim.index[self.q] << 2, sim.index[self.d])
        for net in self.inputs:
            sim.on(net, old, new, action)


class ResetBlock:
    def __init__(self, dclk: str, disable: str, enable: str, buffered_last: str,
                 start: str, delay_ps: int):
        self.dclk, self.disable, self.enable = dclk, disable, enable
        self.buffered_last = buffered_last
        self.start = start
        self.delay_ps = delay_ps

    @property
    def inputs(self):
        return (self.dclk, self.disable, self.enable, self.buffered_last)

    def bind(self, sim: "Simulator"):
        """A rising working-clock edge samples Disable/Enable, the falling
        edge commits ``armed = NOT disable AND enable``, and Start =
        ``(NOT disable AND armed) OR (NOT disable AND NOT enable AND
        buffered_last)`` is re-evaluated at every change of Disable, Enable or
        Buffered_Sel, of the working clock to or from UNKNOWN, and of
        ``armed``.  The recirculation term is level-sensitive, so the
        recurring Start pulse overlaps the last select instead of trailing it
        by a full clock.

        ``update`` writes Start into a value slot of the block's own, and the
        action registered right after each handler that can change Start
        queues that slot as a flip-flop queues its D.  A falling edge that
        leaves ``armed`` as it was calls no ``update``, and the kernel drops
        what it queues: every change of Disable, Enable, Buffered_Sel or
        ``armed`` calls ``update``, so the slot holds the Start last queued.
        """
        values = sim.values
        dis, en, blast = (sim.index[n] for n in
                          (self.disable, self.enable, self.buffered_last))
        # never read before ``update`` writes it: each Dclk's first change is
        # from UNKNOWN, and that change calls ``update``
        slot = len(values)
        values.append(2)
        queue = (self.delay_ps, sim.index[self.start] << 2, slot)
        sampled_dis = sampled_en = armed = 2

        def update():
            ndis = NOT[values[dis]]
            values[slot] = OR[AND[ndis][armed]][AND[AND[ndis][NOT[values[en]]]][values[blast]]]

        def rise():
            nonlocal sampled_dis, sampled_en
            sampled_dis, sampled_en = values[dis], values[en]

        def fall():
            nonlocal armed
            new = AND[NOT[sampled_dis]][sampled_en]
            if new != armed:
                armed = new
                update()

        for net in self.inputs:
            for old, new in _CHANGES:
                if net != self.dclk or (old, new) not in ((0, 1), (1, 0)):
                    handler = update
                else:
                    handler = rise if new == 1 else fall
                sim.on(net, old, new, (None, handler, None))
                if handler is not rise:
                    sim.on(net, old, new, queue)


class SharedLine:
    """Active-low wired line with pull-up, driven by up to five selector blocks.

    ``pullers`` is a list of (select_net, source_net, active_bit): the block
    pulls the line low while its select is high and its source bit equals
    ``active_bit`` (1 for the true line, 0 for the complement line).
    """

    def __init__(self, line: str, pullers: list[tuple[str, str, int]], delay_ps: int):
        self.line = line
        self.pullers = pullers
        self.delay_ps = delay_ps

    @property
    def inputs(self):
        nets = []
        for sel, src, _ in self.pullers:
            nets.append(sel)
            nets.append(src)
        return tuple(dict.fromkeys(nets))

    def levels(self, held: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The line level queued at each row: LOW if a selected block pulls,
        else UNKNOWN if a block may pull, else HIGH; and whether the pulls of
        the selected blocks differ there.
        """
        # where a selected block pulls, leaves the line, or has an unknown bit,
        # and where a block whose select is unknown may pull
        pulls = leaves = unknown = maybe = False
        for sel, src, active in self.pullers:
            on, bit = held[sel] == 1, held[src]
            pulls = pulls | (on & (bit == active))
            leaves = leaves | (on & (bit == 1 - active))
            unknown = unknown | (on & (bit == 2))
            maybe = maybe | ((held[sel] == 2) & (bit != 1 - active))
        level = np.where(pulls, 0, np.where(unknown | maybe, 2, 1)).astype(np.int8)
        return level, (pulls & (leaves | unknown)) | (leaves & unknown)

    def contention(self, held: dict[str, np.ndarray], row: int, t: int) -> ContentionError:
        return ContentionError(f"conflicting drive on {self.line} at {t} ps from "
                               + ", ".join(sel for sel, _, _ in self.pullers
                                           if held[sel][row] == 1))


# --------------------------------------------------------------------------
# netlist container and builder

@dataclass
class ChannelNetlist:
    config: ChannelConfig
    nets: list[str]
    primary_inputs: list[str]
    components: list = field(default_factory=list)


def build_channel(config: ChannelConfig) -> ChannelNetlist:
    """Wire the full channel netlist for the configured word width."""
    config.validate()
    n = config.word_width
    last = f"Sel{n}"
    buffered_last = f"Buffered_Sel{n}"
    hold_src = (f"D{n - 2}", f"D{n - 1}")
    hold_out = (f"HoldD{n - 2}", f"HoldD{n - 1}")

    data_nets = [f"D{i}" for i in range(n)]
    nets = (
        ["Clock", "Disable", "Enable"] + data_nets
        + ["Dclk", "Nclk", "Start", "iSel1"]
        + [f"Sel{k}" for k in range(1, n + 1)]
        + [buffered_last, "Show", "Read", *hold_out,
           "Even", "Odd", "nEven", "nOdd"]
    )

    ffd = config.ff_delay_ps
    bufd = config.buffer_delay_ps
    comps: list = [
        Buffer("Clock", "Dclk", bufd),
        Buffer("Dclk", "Nclk", config.skew_ps, invert=True),
        DFlipFlop("Dclk", "Start", "Sel1", ffd),
        DFlipFlop("Dclk", "Start", "iSel1", ffd),
    ]
    comps += [DFlipFlop("Dclk", f"Sel{k - 1}", f"Sel{k}", ffd) for k in range(2, n + 1)]
    comps += [
        Buffer(last, buffered_last, config.fo4_delay_ps),
        ResetBlock("Dclk", "Disable", "Enable", buffered_last, "Start", bufd),
        # word-hold strobes derived from the third select
        Buffer("Sel3", "Show", 2 * bufd),
        Buffer("Show", "Read", bufd, invert=True),
        DFlipFlop("Show", hold_src[0], hold_out[0], ffd, edge="fall"),
        DFlipFlop("Read", hold_src[1], hold_out[1], ffd, edge="rise"),
    ]

    def source(k: int) -> str:
        # selects k = n-1, n pick up the held copies of the last two bits
        if k == n - 1:
            return hold_out[0]
        if k == n:
            return hold_out[1]
        return f"D{k - 1}"

    odd_sels = [k for k in range(1, n + 1) if k % 2 == 1]
    even_sels = [k for k in range(1, n + 1) if k % 2 == 0]
    comps += [
        SharedLine("Odd", [(f"Sel{k}", source(k), 1) for k in odd_sels], bufd),
        SharedLine("nOdd", [(f"Sel{k}", source(k), 0) for k in odd_sels], bufd),
        SharedLine("Even", [(f"Sel{k}", source(k), 1) for k in even_sels], bufd),
        SharedLine("nEven", [(f"Sel{k}", source(k), 0) for k in even_sels], bufd),
    ]

    return ChannelNetlist(
        config=config,
        nets=nets,
        primary_inputs=["Clock", "Disable", "Enable"] + data_nets,
        components=comps,
    )


# --------------------------------------------------------------------------
# simulation kernel

class Simulator:
    """Deterministic event loop, compiled once per netlist instance.

    Nets are interned as their index in ``netlist.nets`` and an event is
    the code ``net << 2 | level``.  Each component's ``bind`` registers
    actions per (net, old level, new level), in component and ``inputs``
    order, so a change runs only the actions it can trigger:

    - ``(delay, base, src)`` queues code ``base + values[src]`` at
      ``t + delay``: a flip-flop samples its D net, a buffer reads ``low``,
      a slot that always holds 0, and a reset block reads the slot its
      handler wrote Start into;
    - ``(None, handler, None)`` calls ``handler()``, which updates the
      component's own state and slots and queues nothing.

    Components only compute levels; the kernel drops an event equal to
    ``last[net]``, the code most recently queued for its net.  This is exact:
    a driven net has one driver with a fixed delay, so its pending events
    are FIFO.  Stimulus no-ops still reach the loop, which skips an event
    equal to the net's level.

    The loop appends each applied change's time and code to two flat logs,
    which start with every net's power-on ``(0, UNKNOWN)``.  Same-time
    glitches are collapsed after the run, when ``SignalTraces.from_log``
    turns the logs into per-net columns.

    Sinks are not bound: every ``SharedLine`` (the wired lines Even, Odd,
    nEven and nOdd) and every ``Buffer`` whose output no component reads
    (``Nclk``), whatever their delay.  No event of theirs can change what the
    loop does, so ``_drive_sinks`` computes their changes after it, from the
    log, and appends them.  This is exact: the log holds every change of a
    sink's inputs in the order applied, so it gives their levels at each
    change, from which the kernel computed the level queued at ``t + delay``
    under the ``last[net]`` rule.  A conflict on a wired line is raised for
    the first conflicting change in the log: the kernel raised it when
    applying that change.  A ``SharedLine`` that a component reads is a
    ``ConfigError``, and so is a negative delay, or a bound component without
    delay: no event is queued for the time that is running, so the loop ends.

    Pending events wait in one FIFO list per timestamp, and a heap holds
    the distinct timestamps.  The stimulus columns are checked whole before
    the loop and cut into one list of codes per distinct time, which the loop
    merges with the heap.  Stimulus events at a timestamp precede the
    events queued for it, so a list is processed in exactly the order of
    (time, order of queueing).
    """

    def __init__(self, netlist: ChannelNetlist):
        self.netlist = netlist
        self.index = {net: i for i, net in enumerate(netlist.nets)}
        self.low = len(netlist.nets)
        self.values = [2] * self.low + [0]
        self._inputs = {net: self.index[net] << 2 for net in netlist.primary_inputs}
        self._actions: list[list] = [[] for _ in range(12 * self.low)]
        read = {net for comp in netlist.components for net in comp.inputs}
        self._sinks: list[tuple] = []  # (component, output net index), in component order
        for comp in netlist.components:
            sink = isinstance(comp, SharedLine) or isinstance(comp, Buffer) and comp.dst not in read
            if comp.delay_ps < 0 or comp.delay_ps == 0 and not sink:
                raise ConfigError(f"{type(comp).__name__} on {', '.join(comp.inputs)} has a "
                                  f"delay of {comp.delay_ps} ps: only a sink may have none")
            if not sink:
                comp.bind(self)
            elif isinstance(comp, Buffer):
                self._sinks.append((comp, self.index[comp.dst]))
            elif comp.line in read:
                raise ConfigError(f"wired line {comp.line} is read by a component")
            else:
                self._sinks.append((comp, self.index[comp.line]))
        self._actions = [tuple(a) for a in self._actions]

    def on(self, net: str, old: int, new: int, action: tuple):
        """Register ``action`` for a change of ``net`` from ``old`` to ``new``."""
        self._actions[((self.index[net] << 2 | new) * 3) + old].append(action)

    def _stimulus_buckets(self, stimulus: Stimulus, until_ps: int):
        """An iterator of (time, event codes) per distinct time of the stimulus, in
        time order; each list is cut when it is reached, not before.

        The whole stimulus is checked first, with the error that reading its
        changes one by one raises first: a change on a non-primary net or
        earlier than the one before it (or than 0), then a change after
        ``until_ps``.
        """
        times = stimulus.times
        base = np.array([self._inputs.get(net, -1) for net in stimulus.nets], dtype=np.int64)
        codes = base[stimulus.net]
        foreign = np.flatnonzero(codes < 0)[:1].tolist()
        unordered = np.flatnonzero(np.diff(times, prepend=0) < 0)[:1].tolist()
        if foreign and (not unordered or foreign[0] <= unordered[0]):
            raise ValueError(f"stimulus on non-primary net "
                             f"{stimulus.nets[stimulus.net[foreign[0]]]!r}")
        if unordered:
            raise ValueError("stimulus events must be time-ordered")
        if until_ps < (times[-1] if len(times) else 0):
            raise ValueError("simulation horizon ends before the last stimulus event")
        codes = (codes | stimulus.level).tolist()
        starts = np.flatnonzero(np.diff(times, prepend=times[:1] - 1))  # of each time
        bounds = [*starts.tolist(), len(codes)]
        return zip(times[starts].tolist(), map(codes.__getitem__, map(slice, bounds, bounds[1:])))

    def run(self, stimulus: Stimulus, until_ps: int) -> SignalTraces:
        log_t = array("q", bytes(8 * self.low))
        log_code = array("q", range(2, 4 * self.low, 4))  # net << 2 | UNKNOWN
        self._loop(self._stimulus_buckets(stimulus, until_ps), until_ps, log_t, log_code)
        self._drive_sinks(log_t, log_code, until_ps)
        return SignalTraces.from_log(self.netlist.nets, log_t, log_code, until_ps)

    def _loop(self, stim, until_ps: int, log_t: array, log_code: array):
        values, actions = self.values, self._actions
        log_t_append, log_code_append = log_t.append, log_code.append
        last = [net << 2 | 2 for net in range(self.low)]
        times: list[int] = []
        pending: dict[int, list[int]] = {}
        heappush, heappop = heapq.heappush, heapq.heappop
        nxt = next(stim, None)
        while True:
            if nxt is not None and (not times or nxt[0] <= times[0]):
                t, bucket = nxt
                nxt = next(stim, None)
                if times and times[0] == t:
                    heappop(times)
                    bucket += pending[t]
                pending[t] = bucket
            elif times:
                t = heappop(times)
                bucket = pending[t]
            else:
                break
            if t > until_ps:
                break
            for code in bucket:
                net, new = code >> 2, code & 3
                old = values[net]
                if new == old:
                    continue
                values[net] = new
                log_t_append(t)
                log_code_append(code)
                for delay, base, src in actions[code * 3 + old]:
                    if delay is None:
                        base()
                        continue
                    queued = base + values[src]
                    if last[base >> 2] == queued:
                        continue
                    last[base >> 2] = queued
                    at = t + delay
                    sched = pending.get(at)
                    if sched is None:
                        pending[at] = [queued]
                        heappush(times, at)
                    else:
                        sched.append(queued)
            del pending[t]

    def _drive_sinks(self, log_t: array, log_code: array, until_ps: int):
        """Append the sinks' changes up to ``until_ps`` to the logs, or raise the
        contention of the earliest conflicting row (component order breaks ties).

        A sink's rows are the logged changes of its inputs after power-on; at
        each, the kernel would have queued ``levels`` at ``t + delay`` unless
        equal to the level queued before (UNKNOWN at first).
        """
        # numpy views: they must be gone before the logs grow
        t = np.frombuffer(log_t, dtype=np.int64)[self.low:]
        code = np.frombuffer(log_code, dtype=np.int64)[self.low:]
        net, level = (code >> 2).astype(np.int16), (code & 3).astype(np.int8)
        del code
        by_inputs, queued, first = {}, [], None
        for comp, dst in self._sinks:
            if comp.inputs not in by_inputs:
                wanted = np.zeros(self.low, dtype=bool)
                wanted[[self.index[n] for n in comp.inputs]] = True
                rows = np.flatnonzero(wanted[net])
                r_net, r_level = net[rows], level[rows]
                by_inputs[comp.inputs] = rows, {n: _held(r_net, r_level, self.index[n])
                                                for n in comp.inputs}
            rows, held = by_inputs[comp.inputs]
            if not len(rows):
                continue
            levels, conflict = comp.levels(held)
            if conflict is not None and conflict.any():
                i = int(conflict.argmax())
                if first is None or rows[i] < first[0]:
                    first = rows[i], comp.contention(held, i, int(t[rows[i]]))
            new = levels != np.append(np.int8(2), levels[:-1])
            at = t[rows[new]] + comp.delay_ps
            end = int(at.searchsorted(until_ps, side="right"))
            queued.append((at[:end], levels[new][:end].astype(np.int64) | dst << 2))
        if first is not None:
            raise first[1]
        del t
        for at, codes in queued:
            log_t.frombytes(at.view(np.uint8))
            log_code.frombytes(codes.view(np.uint8))


def _held(nets: np.ndarray, levels: np.ndarray, net: int) -> np.ndarray:
    """The level of ``net`` at each row of the changes ``nets``/``levels``: that of
    its last change at or before the row, UNKNOWN before its first."""
    hit = nets == net
    return np.append(np.int8(2), levels[hit])[np.cumsum(hit)]


def advance(netlist: ChannelNetlist, stimulus: Stimulus, until_ps: int) -> SignalTraces:
    """Run the netlist over ``stimulus`` and return the recorded traces.

    Fully deterministic: identical inputs yield identical traces.  Each
    call starts from power-on (all nets unknown).
    """
    return Simulator(netlist).run(stimulus, until_ps)

