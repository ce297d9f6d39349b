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
from dataclasses import dataclass, field

from .config import ChannelConfig
from .errors import ConfigError, ContentionError, OscillationError
from .logic import AND, NOT, OR, NetEvent, SignalTraces


# --------------------------------------------------------------------------
# netlist components
#
# Components describe the netlist.  ``bind`` compiles one into the kernel:
# it registers, for each input net and each level change that can make the
# component act, an action bound to integer net indices (see ``Simulator``).

# Inside the kernel a level is its code: 0 LOW, 1 HIGH, 2 UNKNOWN.
_SAME = (0, 1, 2)
_CHANGES = tuple((old, new) for old in _SAME for new in _SAME if old != new)


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


class DFlipFlop:
    def __init__(self, clk: str, d: str, q: str, delay_ps: int, edge: str = "fall"):
        if delay_ps <= 0:
            raise ConfigError("flip-flop delay must be positive")
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
        edge commits ``armed = NOT disable AND enable``, and every input
        change re-evaluates Start = ``(NOT disable AND armed) OR (NOT disable
        AND NOT enable AND buffered_last)``.  The recirculation term is
        level-sensitive, so the recurring Start pulse overlaps the last
        select instead of trailing it by a full clock.
        """
        values, schedule = sim.values, sim.schedule
        dis, en, blast = (sim.index[n] for n in
                          (self.disable, self.enable, self.buffered_last))
        start_code, delay = sim.index[self.start] << 2, self.delay_ps
        sampled_dis = sampled_en = armed = 2

        def update(t: int):
            ndis = NOT[values[dis]]
            start = OR[AND[ndis][armed]][AND[AND[ndis][NOT[values[en]]]][values[blast]]]
            schedule(t + delay, start_code + start)

        def rise(t: int):
            nonlocal sampled_dis, sampled_en
            sampled_dis, sampled_en = values[dis], values[en]
            update(t)

        def fall(t: int):
            nonlocal armed
            armed = AND[NOT[sampled_dis]][sampled_en]
            update(t)

        for net in self.inputs:
            for old, new in _CHANGES:
                if net != self.dclk or (old, new) not in ((0, 1), (1, 0)):
                    handler = update
                else:
                    handler = rise if new == 1 else fall
                sim.on(net, old, new, (None, handler, None))


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

    def bind(self, sim: "Simulator"):
        values, schedule = sim.values, sim.schedule
        pullers = [(sim.index[sel], sim.index[src], _SAME if active else NOT)
                   for sel, src, active in self.pullers]
        line_code, delay = sim.index[self.line] << 2, self.delay_ps

        def update(t: int):
            high = unknown = conflict = False
            first = -1  # the pull of the first selected block
            for sel, src, bit in pullers:
                s = values[sel]
                if s == 0:
                    continue
                pull = bit[values[src]]
                if s == 1:
                    if first < 0:
                        first = pull
                    elif pull != first:
                        conflict = True
                    if pull == 1:
                        high = True
                    elif pull == 2:
                        unknown = True
                elif pull:  # unknown select: pull is LOW only for a LOW bit
                    unknown = True
            if conflict:
                raise ContentionError(
                    f"conflicting drive on {self.line} at {t} ps from "
                    + ", ".join(name for (name, _, _), (sel, _, _)
                                in zip(self.pullers, pullers) if values[sel] == 1)
                )
            level = 0 if high else 2 if unknown else 1
            schedule(t + delay, line_code + level)

        for net in self.inputs:
            for old, new in _CHANGES:
                sim.on(net, old, new, (None, update, None))


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
      a slot that always holds 0;
    - ``(None, handler, None)`` calls ``handler(t)``, which may ``schedule``.

    Components only compute levels; the kernel drops an event equal to
    ``last[net]``, the code most recently queued for its net.  This is exact:
    a driven net has one driver with a fixed delay, so its pending events
    are FIFO.  Stimulus no-ops and same-time glitches still reach the loop,
    which skips an event equal to the net's level and collapses a change
    undone at the same timestamp.

    Pending events wait in one FIFO list per timestamp, and a heap holds
    the distinct timestamps.  Stimulus events at a timestamp precede the
    events queued for it, so a list is processed in exactly the order of
    (time, order of queueing).  ``config.loop_limit`` bounds the zero-delay
    events per timestamp: those appended to its list while it runs.
    """

    def __init__(self, netlist: ChannelNetlist):
        self.netlist = netlist
        self.index = {net: i for i, net in enumerate(netlist.nets)}
        self.low = len(netlist.nets)
        self.values = [2] * self.low + [0]
        self.histories: list[list[tuple[int, int]]] = [[(0, 2)] for _ in netlist.nets]
        self._inputs = {net: self.index[net] << 2 for net in netlist.primary_inputs}
        last = [net << 2 | 2 for net in range(self.low)]
        times: list[int] = []
        pending: dict[int, list[int]] = {}
        self._last, self._times, self._pending = last, times, pending

        def schedule(time_ps: int, code: int):
            if last[code >> 2] == code:
                return
            last[code >> 2] = code
            bucket = pending.get(time_ps)
            if bucket is None:
                pending[time_ps] = [code]
                heapq.heappush(times, time_ps)
            else:
                bucket.append(code)

        # a closure, not a method: the handlers that call it hold no
        # reference to the simulator, so a finished run is freed at once
        self.schedule = schedule
        self._actions: list[list] = [[] for _ in range(12 * self.low)]
        for comp in netlist.components:
            comp.bind(self)
        self._actions = [tuple(a) for a in self._actions]

    def on(self, net: str, old: int, new: int, action: tuple):
        """Register ``action`` for a change of ``net`` from ``old`` to ``new``."""
        self._actions[((self.index[net] << 2 | new) * 3) + old].append(action)

    def _stimulus_buckets(self, stimulus: list[NetEvent], until_ps: int):
        """The stimulus as (time, event codes) per distinct time, lazily; it checks
        primary inputs, time order and that ``until_ps`` covers every event."""
        inputs = self._inputs
        t_cur, bucket = 0, []
        for t, net, level in stimulus:
            base = inputs.get(net)
            if base is None:
                raise ValueError(f"stimulus on non-primary net {net!r}")
            if t != t_cur:
                if t < t_cur:
                    raise ValueError("stimulus events must be time-ordered")
                if bucket and t_cur <= until_ps:  # past the horizon: check only
                    yield t_cur, bucket
                t_cur, bucket = t, []
            bucket.append(base | level)
        if t_cur > until_ps:
            raise ValueError("simulation horizon ends before the last stimulus event")
        if bucket:
            yield t_cur, bucket

    def run(self, stimulus: list[NetEvent], until_ps: int) -> SignalTraces:
        limit = self.netlist.config.loop_limit
        values, histories, actions = self.values, self.histories, self._actions
        last, times, pending = self._last, self._times, self._pending
        heappush, heappop = heapq.heappush, heapq.heappop
        stim = self._stimulus_buckets(stimulus, until_ps)
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
            # counts reach 1 only at the events queued while the list runs
            for count, code in enumerate(bucket, 1 - len(bucket)):
                if count > limit:
                    raise OscillationError(
                        f"more than {limit} zero-delay events at {t} ps "
                        f"(net {self.netlist.nets[code >> 2]})"
                    )
                net, new = code >> 2, code & 3
                old = values[net]
                if new == old:
                    continue
                values[net] = new
                hist = histories[net]
                if hist[-1][0] != t:
                    hist.append((t, new))
                elif len(hist) > 1 and hist[-2][1] == new:
                    hist.pop()
                else:
                    hist[-1] = (t, new)
                for delay, base, src in actions[code * 3 + old]:
                    if delay is None:
                        base(t)
                        continue
                    queued = base + values[src]  # ``schedule``, inlined
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
        return SignalTraces(events=dict(zip(self.netlist.nets, histories)),
                            horizon_ps=until_ps)


def advance(netlist: ChannelNetlist, stimulus: list[NetEvent],
            until_ps: int) -> SignalTraces:
    """Run the netlist over ``stimulus`` and return the recorded traces.

    Fully deterministic: identical inputs yield identical traces.  Each
    call starts from power-on (all nets unknown).
    """
    return Simulator(netlist).run(stimulus, until_ps)

