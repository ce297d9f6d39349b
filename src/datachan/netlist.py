"""Column model of the serializer channel's digital netlist.

The netlist is a token-passing ring: a splitter derives the two working
clocks from the single serial clock, eleven falling-edge flip-flops
circulate the Start token as the one-hot selects Sel1..Sel10 (plus the
parallel iSel1), a reset block arms the token from the Disable/Enable
pair or recirculates it from the buffered last select, and ten selector
blocks wire-multiplex the parallel data bits onto the four active-low
pre-driver lines Even/Odd/nEven/nOdd.

``advance`` has no event queue, but the results of the event-by-event
kernel that ``tests/reference_kernel.py`` runs: a component queues its level
``delay`` after each change of a net it reads, unless equal to the level it
queued last; at one time the stimulus comes first, in column order, then
queue order (what an earlier change queued first, what one change queued in
component order).  Each change is a row of a log and knows the row that
queued it; a queued row's component is its net's one driver, so this order is
the row's key (``_Run._key``), read from the net's column.  Three passes:

1. ``Dclk``: ``Clock`` shifted by ``buffer_delay_ps`` (``Buffer.levels``).
2. The ring (``_Run._ring``), one scalar pass over the falling ``Dclk``
   edges: Start as ``Sel1`` samples it at fall *i* is ``(NOT Disable AND
   armed) OR (NOT Disable AND NOT Enable AND Buffered_Sel)``, with ``armed``
   committed at fall *i - 1* and ``Buffered_Sel`` the last select after
   it, Start at fall *i - n*.  A Disable/Enable change made
   ``buffer_delay_ps`` before the fall counts if listed before the change
   that queued the fall.  ``Sel_k`` is ``Sel_{k-1}`` one fall later, and
   ``Buffered_Sel{n}`` and Start follow from their ``levels`` rules.
3. Every other net, in dependency order, by its component's ``levels`` rule
   over the merged rows of its inputs: ``iSel1``, ``Show``, ``Read``, the
   held bits, ``Nclk`` and the wired lines.

The ring pass is exact when falling ``Dclk`` edges are more than
``ff_delay_ps + 5 * buffer_delay_ps`` apart: all that fall *i - 1* makes
(the selects, ``armed``, the buffered last select and the Start changes
they cause) lands before fall *i*, and what fall *i* makes lands after it.
``validate()`` requires it of the serial clock, whose rounded falls are at
least ``floor(period)`` apart, one ps less at an odd whole period; closer
falls in a stimulus raise ``ValueError``.  UNKNOWN needs no case of its own:
the last select is UNKNOWN until fall *n*, ``armed`` until the first fall.
Elsewhere rows of one time merge by their keys, as Show -> Read -> HoldD
and the wired lines meet the bus update.
"""

from __future__ import annotations

import bisect
import graphlib
from dataclasses import dataclass, field

import numpy as np

from .config import ChannelConfig
from .errors import ConfigError, ContentionError
from .logic import AND, NOT, OR, SignalTraces, Stimulus

# gates on arrays of level codes (0 LOW, 1 HIGH, 2 UNKNOWN)
_NOT = np.array(NOT, dtype=np.int8)
_AND = np.array(AND, dtype=np.int8)
_OR = np.array(OR, dtype=np.int8)


# --------------------------------------------------------------------------
# netlist components
#
# A component reads the nets ``inputs`` and drives ``output``.  ``levels`` maps
# its inputs' levels at each row of their merged changes (``held``) to the level
# it has queued by then, and to where a wired line's drivers conflict (or None).

def _edges(clk: np.ndarray, edge: str) -> np.ndarray:
    """Where the levels ``clk`` (held at each row) rise or fall from the row before."""
    prev = np.append(np.int8(2), clk[:-1])
    return (prev == 0) & (clk == 1) if edge == "rise" else (prev == 1) & (clk == 0)


def _hold(at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """At each row, ``values`` at the last row ``at`` at or before it (UNKNOWN before)."""
    return np.append(np.int8(2), values[at])[np.cumsum(at)]


@dataclass(eq=False)
class Buffer:
    src: str
    dst: str
    delay_ps: int
    invert: bool = False

    @property
    def inputs(self):
        return (self.src,)

    output = property(lambda self: self.dst)

    def levels(self, held: dict[str, np.ndarray]) -> tuple[np.ndarray, None]:
        src = held[self.src]
        return (_NOT[src] if self.invert else src), None


@dataclass(eq=False)
class DFlipFlop:
    clk: str
    d: str
    q: str
    delay_ps: int
    edge: str = "fall"

    @property
    def inputs(self):
        return (self.clk, self.d)

    output = property(lambda self: self.q)

    def levels(self, held: dict[str, np.ndarray]) -> tuple[np.ndarray, None]:
        """D's level at the rows of the clock's active edge, held until the next one."""
        return _hold(_edges(held[self.clk], self.edge), held[self.d]), None


@dataclass(eq=False)
class ResetBlock:
    dclk: str
    disable: str
    enable: str
    buffered_last: str
    start: str
    delay_ps: int

    @property
    def inputs(self):
        return (self.dclk, self.disable, self.enable, self.buffered_last)

    output = property(lambda self: self.start)

    def levels(self, held: dict[str, np.ndarray]) -> tuple[np.ndarray, None]:
        """A rising working-clock edge samples Disable/Enable, the falling edge commits
        ``armed = NOT disable AND enable``, and Start = ``(NOT disable AND armed) OR
        (NOT disable AND NOT enable AND buffered_last)``: level-sensitive, so the
        recurring Start pulse overlaps the last select instead of trailing it."""
        dclk = held[self.dclk]
        ndis, nen = _NOT[held[self.disable]], _NOT[held[self.enable]]
        sampled = _hold(_edges(dclk, "rise"), _AND[ndis, _NOT[nen]])
        armed = _hold(_edges(dclk, "fall"), sampled)
        return _OR[_AND[ndis, armed], _AND[_AND[ndis, nen], held[self.buffered_last]]], None


@dataclass(eq=False)
class SharedLine:
    """Active-low wired line with pull-up, driven by up to five selector blocks.

    ``pullers`` is a list of (select_net, source_net, active_bit): the block
    pulls the line low while its select is high and its source bit equals
    ``active_bit`` (1 for the true line, 0 for the complement line).
    """

    line: str
    pullers: list[tuple[str, str, int]]
    delay_ps: int

    @property
    def inputs(self):
        return tuple(dict.fromkeys(net for sel, src, _ in self.pullers for net in (sel, src)))

    output = property(lambda self: self.line)

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
        nets=nets,
        primary_inputs=["Clock", "Disable", "Enable"] + data_nets,
        components=comps,
    )


# --------------------------------------------------------------------------
# evaluation

class _Run:
    """One evaluation of a netlist: a log of its changes, a row each, numbered in
    the order added.  Rows ``0 .. n_stim - 1`` are the stimulus in column order;
    every later one was queued by the row ``trig`` through its net's driver, in a
    block of consecutive rows that ``_add`` logs for that net.  ``cols[net]`` holds
    a net's rows in the order applied: numbers, times (int64), levels (int8) and
    triggers."""

    def __init__(self, netlist: ChannelNetlist):
        self.nets, self.comps = netlist.nets, netlist.components
        self.comp_index = {comp: i for i, comp in enumerate(self.comps)}
        self.primary = set(netlist.primary_inputs)
        self.driver = {comp.output: comp for comp in self.comps}
        read = {net for comp in self.comps for net in comp.inputs}
        for comp in self.comps:
            sink = comp.output not in read
            if comp.delay_ps < 0 or comp.delay_ps == 0 and not sink:
                raise ConfigError(f"{type(comp).__name__} on {', '.join(comp.inputs)} has a "
                                  f"delay of {comp.delay_ps} ps: only a sink may have none")
            if isinstance(comp, SharedLine) and not sink:
                raise ConfigError(f"wired line {comp.line} is read by a component")
        for net in sorted({*self.primary, *read, *self.driver} - set(self.nets))[:1]:
            raise ConfigError(f"net {net} is not in the netlist's nets")
        for net in sorted(self.primary & set(self.driver))[:1]:
            raise ConfigError(f"primary input {net} is driven by a component")
        for comp in [comp for comp in self.comps if self.driver[comp.output] is not comp][:1]:
            raise ConfigError(f"net {comp.output} is driven by more than one component")
        self.ring = self._find_ring()
        ring = (self.ring[0], *self.ring[1], self.ring[2]) if self.ring else ()
        # the evaluation order: each step after the steps that drive what it reads;
        # the ring's components are one step, their reads of each other no dependency
        step = {comp: self.ring if comp in ring else comp for comp in self.comps}
        graph = graphlib.TopologicalSorter()
        for comp, node in step.items():
            needs = [step[self.driver[net]] for net in comp.inputs if net in self.driver]
            graph.add(node, *(need for need in needs if need is not node or node is not self.ring))
        try:
            self.order = list(graph.static_order())
        except graphlib.CycleError as err:
            net = next(node for node in err.args[1] if node is not self.ring).output
            raise ConfigError(f"feedback through {net} is not the channel ring") from None

    def _find_ring(self):
        """(reset block, its flip-flops from the one sampling Start, the buffer of the
        last select) of a reset block whose Start comes back to it, or None."""
        for reset in self.comps:
            blast = self.driver.get(getattr(reset, "buffered_last", None))
            if not isinstance(reset, ResetBlock) or not isinstance(blast, Buffer) or blast.invert:
                continue
            chain = [self.driver.get(blast.src)]
            while (isinstance(chain[-1], DFlipFlop) and chain[-1].clk == reset.dclk
                   and chain[-1].edge == "fall" and len(chain) <= len(self.comps)):
                if chain[-1].d == reset.start:
                    if not {reset.disable, reset.enable} <= self.primary:
                        raise ConfigError("the ring's Disable and Enable must be primary inputs")
                    return reset, tuple(chain[::-1]), blast
                chain.append(self.driver.get(chain[-1].d))
        return None

    def run(self, stimulus: Stimulus, until_ps: int) -> SignalTraces:
        net = self._check(stimulus, until_ps)
        self.until, self.n_stim, self.stim_t = until_ps, len(stimulus), stimulus.times
        self.size, self.conflicts = len(stimulus), []
        self.block_rows, self.block_nets = [], []  # the first row and net of each block
        self.cols, self._last = {}, ((),)
        order = np.argsort(net, kind="stable")
        bounds = np.searchsorted(net[order], np.arange(len(self.nets) + 1)).tolist()
        for name, a, b in zip(self.nets, bounds, bounds[1:]):
            rows = order[a:b]
            self.cols[name] = rows, stimulus.times[rows], stimulus.level[rows], np.full(b - a, -1)
        for step in self.order:
            if step is self.ring:
                self._ring()
            else:
                self._drive(step)
        if self.conflicts:
            raise min(self.conflicts, key=lambda c: c[:2])[2]
        columns = [self.cols[name][1:3] for name in self.nets]
        self.cols = self._last = None  # not kept while the traces are built
        return SignalTraces.from_columns(self.nets, columns, until_ps)

    def _check(self, stimulus: Stimulus, until_ps: int) -> np.ndarray:
        """The net index of each stimulus change.  The first change on a non-primary
        net or earlier than the one before it (or than 0) decides the error, then
        the horizon, as reading the changes one by one would."""
        times = stimulus.times
        base = np.array([self.nets.index(net) if net in self.primary else -1
                         for net in stimulus.nets], dtype=np.int64)
        net = base[stimulus.net]
        foreign = np.flatnonzero(net < 0)[:1].tolist()
        unordered = np.flatnonzero(np.diff(times, prepend=0) < 0)[:1].tolist()
        if foreign and (not unordered or foreign[0] <= unordered[0]):
            raise ValueError(f"stimulus on non-primary net "
                             f"{stimulus.nets[stimulus.net[foreign[0]]]!r}")
        if unordered:
            raise ValueError("stimulus events must be time-ordered")
        if until_ps < (times[-1] if len(times) else 0):
            raise ValueError("simulation horizon ends before the last stimulus event")
        return net

    def _key(self, row: int) -> tuple:
        """The order of ``row`` among the rows of its time: ``(t, 0, row)`` for a
        stimulus row, ``(t, 1, key of its trigger, component)`` for a queued one."""
        if row < self.n_stim:
            return int(self.stim_t[row]), 0, row
        net = self.block_nets[bisect.bisect_right(self.block_rows, row) - 1]
        rows, t, _, trig = self.cols[net]
        i = row - int(rows[0])
        return int(t[i]), 1, self._key(int(trig[i])), self.comp_index[self.driver[net]]

    def _merged(self, nets: tuple[str, ...]) -> tuple:
        """The rows of ``nets`` in the order applied, their times, and each net's
        level at each; kept for the next call, the other wired line of a pair."""
        if nets != self._last[0]:
            cols = [self.cols[net] for net in nets]
            rows, t, level = (np.concatenate([c[i] for c in cols]) for i in range(3))
            which = np.repeat(np.arange(len(cols)), [len(c[0]) for c in cols])
            if len(cols) > 1:
                # at one time the stimulus first, in column order, then queue order
                order = np.lexsort((np.minimum(rows, self.n_stim), t))
                queued, tt = rows[order] >= self.n_stim, t[order]
                tie = np.flatnonzero(queued[1:] & queued[:-1] & (tt[1:] == tt[:-1]))
                if len(tie):
                    at = np.union1d(tie, tie + 1)
                    order[at] = sorted(order[at].tolist(), key=lambda i: self._key(int(rows[i])))
                rows, t, level, which = rows[order], t[order], level[order], which[order]
            self._last = nets, (rows, t, [_hold(which == j, level) for j in range(len(cols))])
        return self._last[1]

    def _add(self, comp, at: np.ndarray, level: np.ndarray, trig: np.ndarray):
        """Log ``comp``'s changes at the times ``at`` up to the horizon."""
        end = int(at.searchsorted(self.until, side="right"))
        rows = np.arange(self.size, self.size + end)
        self.cols[comp.output] = rows, at[:end], level[:end], trig[:end]
        self.block_rows.append(self.size)
        self.block_nets.append(comp.output)
        self.size += end

    def _drive(self, comp):
        """Log ``comp``'s changes by its ``levels`` rule; note its first conflict."""
        inputs = tuple(dict.fromkeys(comp.inputs))
        rows, t, held = self._merged(inputs)
        held = dict(zip(inputs, held))
        levels, conflict = comp.levels(held)
        new = levels != np.append(np.int8(2), levels[:-1])
        self._add(comp, t[new] + comp.delay_ps, levels[new], rows[new])
        if conflict is not None and conflict.any():
            i = int(conflict.argmax())
            self.conflicts.append((self._key(int(rows[i])), self.comp_index[comp],
                                   comp.contention(held, i, int(t[i]))))

    def _ring(self):
        """Log the selects' changes by the recurrence over the falling edges, then
        those of the last select's buffer and of Start by their rules."""
        reset, chain, blast = self.ring
        rows, t, level, trig = self.cols[reset.dclk]
        dis, en = self.cols[reset.disable], self.cols[reset.enable]
        falls, rises = np.flatnonzero(_edges(level, "fall")), np.flatnonzero(_edges(level, "rise"))
        fall_t = t[falls]
        need = max(*(ff.delay_ps for ff in chain),
                   chain[-1].delay_ps + blast.delay_ps + reset.delay_ps)
        for i in np.flatnonzero(np.diff(fall_t) <= need)[:1].tolist():
            raise ValueError(f"falling {reset.dclk} edges at {fall_t[i]} and {fall_t[i + 1]} ps: "
                             f"the ring needs them more than {need} ps apart")

        def after(col, seen):  # a stimulus net's level after the first ``seen`` stimulus rows
            return np.append(np.int8(2), col[2])[np.searchsorted(col[0], seen)]

        # Disable/Enable as each rising edge samples them (a queued edge after the
        # stimulus of its time); the next fall commits ``armed``, the one after sees it
        seen = np.where(rows[rises] < self.n_stim, rows[rises],
                        np.searchsorted(self.stim_t, t[rises], side="right"))
        armed = np.append(np.int8(2), _AND[_NOT[after(dis, seen)], after(en, seen)])
        armed = np.append(np.int8(2), armed[np.searchsorted(rises, falls)][:-1])
        # Disable/Enable as Start shows them at each fall: a change at ``made``
        # counts if listed before the fall's trigger, the Dclk driver's delay before
        # the fall; a primary Dclk fall counts as an earlier trigger.  A stimulus
        # trigger at ``made`` follows the rows before it, and itself if the reset
        # block comes first; a queued one follows every row of its time
        made, driver = fall_t - reset.delay_ps, self.driver.get(reset.dclk)
        lag = driver.delay_ps - reset.delay_ps if driver else 1
        seen = np.searchsorted(self.stim_t, made, side="left" if lag > 0 else "right")
        if lag == 0:
            trig = trig[falls]
            seen = np.where(trig < self.n_stim,
                            trig + (self.comp_index[reset] < self.comp_index[driver]), seen)
        ndis = _NOT[after(dis, seen)]
        n = len(chain)
        start = [2] * n  # start[n + i]: Start at fall i; start[i]: the last select then
        for i, (a, b) in enumerate(zip(_AND[ndis, armed].tolist(),
                                       _AND[ndis, _NOT[after(en, seen)]].tolist())):
            start.append(OR[a][AND[b][start[i]]])
        start = np.array(start, dtype=np.int8)
        j = np.flatnonzero(start[1:] != start[:-1])  # Sel_k takes start[j + 1] at fall j - n + k
        for k, ff in enumerate(chain, 1):
            i = (j - n + k)[j - n + k < len(falls)]
            self._add(ff, fall_t[i] + ff.delay_ps, start[i + n - k + 1], rows[falls[i]])
        self._drive(blast)
        self._drive(reset)


def advance(netlist: ChannelNetlist, stimulus: Stimulus, until_ps: int) -> SignalTraces:
    """The traces of ``netlist`` over ``stimulus`` from power-on (all nets UNKNOWN).

    ``ConfigError``: a negative delay, a read component without delay, a wired
    line that a component reads, a net missing from ``nets`` or with two
    drivers, or feedback other than the channel ring; raised before the stimulus is read, so before the
    ``ValueError`` of a bad stimulus.  ``ValueError``: a bad stimulus, or
    falling ring-clock edges too close for the ring pass.  ``ContentionError``:
    the first conflict on a wired line.
    """
    return _Run(netlist).run(stimulus, until_ps)
