"""The compiled event kernel against the original kernel and the functional oracles."""

import gc
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from datachan import ChannelConfig, advance, build_channel, golden, protocol, stimulus
from datachan.errors import ConfigError, ContentionError
from datachan.logic import HIGH, LOW, UNKNOWN
from datachan.netlist import Buffer, ChannelNetlist, ResetBlock, SharedLine
from reference_kernel import (NetEvent, ReferenceSimulator, ZeroDelayLoopError, mux_lines,
                              net_events, stimulus_of, traces_from_histories)


def _shortest_period(rate):
    """The least whole ps between two clock falls at ``rate``, the bound of ``validate()``."""
    period = ChannelConfig(serial_rate_hz=rate).bit_period
    return math.floor(period) - (period.denominator == 1 and period.numerator % 2)


# where a control change may be moved: the first rising or falling Dclk edge at
# or after its time, or the Clock fall that makes such a falling Dclk edge
PLACES = ("as-scheduled", "rising-dclk", "falling-dclk", "clock-fall")


def _placed(config, t, place):
    """``t`` moved to ``place`` (one of ``PLACES``)."""
    if place == "as-scheduled":
        return t
    edge = stimulus.rising_dclk_time if place == "rising-dclk" else stimulus.falling_dclk_time
    shift = config.buffer_delay_ps if place == "clock-fall" else 0
    k = max(0, int(t / config.bit_period) - 1)
    while edge(config, k) - shift < t:
        k += 1
    return edge(config, k) - shift


def _placed_run(config, assert_at, places, words, disable_at):
    """A run whose Disable assert, release, Enable pulse and mid-word Disable (inside
    word ``disable_at``, if not None) are moved to the ``places`` of each."""
    actions = [(_placed(config, t, place), action) for (t, action), place
               in zip(stimulus.reset_schedule(config, assert_at=assert_at).actions, places)]
    if disable_at is not None:
        timing = stimulus.timing_for_enable(config, actions[2][0])
        actions.append((_placed(config, timing.slot_mid(disable_at, config.word_width // 2),
                                places[3]), stimulus.Action.DISABLE_ASSERT))
    return config, stimulus.ProtocolSchedule(actions), words, disable_at


@st.composite
def channel_runs(draw):
    """A configuration that ``validate()`` accepts, a reset schedule with its Disable anywhere
    in the first two periods, words and a disable point; each control change as scheduled,
    on a rising or falling Dclk edge, or on the Clock fall ``buffer_delay_ps`` before one."""
    width = draw(st.sampled_from((8, 10, 16)))
    rate = draw(st.integers(1_000_000_000, 3_000_000_000))
    shortest = _shortest_period(rate)
    buf = draw(st.integers(1, (shortest - 2) // 5))
    ff = draw(st.integers(1, shortest - 1 - 5 * buf))
    skew = draw(st.integers(0, math.ceil(shortest / 2) - 1))
    config = ChannelConfig(serial_rate_hz=rate, word_width=width, ff_delay_ps=ff,
                           buffer_delay_ps=buf, skew_ps=skew)
    config.validate()
    words = draw(st.lists(st.tuples(*[st.integers(0, 1)] * width),
                          min_size=3, max_size=8))
    disable_at = draw(st.none() | st.integers(0, len(words) - 1))
    places = draw(st.lists(st.sampled_from(PLACES), min_size=4, max_size=4))
    return _placed_run(config, draw(st.integers(1, 2 * shortest)), places, words, disable_at)


def _stimulus(config, schedule, words, disable_at):
    """Stream ``words`` under the drawn ``schedule``, which already holds the Disable
    asserted inside word ``disable_at`` (if not None), as ``run_scenario`` does."""
    asserts = len(schedule.times_of(stimulus.Action.DISABLE_ASSERT))
    assert asserts == (1 if disable_at is None else 2)
    return stimulus.stream_stimulus(config, words, schedule)


# an Enable rise 1 ps after a sampling edge: a pulse of round(period) used to
# end exactly on the next edge, so the channel never started
_MISSED_ENABLE = ChannelConfig(serial_rate_hz=2_215_365_140, word_width=8,
                               ff_delay_ps=1, buffer_delay_ps=1, skew_ps=0)
# 1 ps gates: a control change on a Clock fall reaches Start on the falling Dclk edge
_ONE_PS = ChannelConfig(word_width=10, ff_delay_ps=1, buffer_delay_ps=1, skew_ps=0)
# the recirculation one ps inside the shortest period, and Disable asserted on the
# first Dclk change, from its power-on UNKNOWN, while every select is still UNKNOWN
_TIGHT = ChannelConfig(serial_rate_hz=1_600_000_000, word_width=16, ff_delay_ps=3,
                       buffer_delay_ps=124, skew_ps=0)


@settings(max_examples=60, deadline=None)
@given(channel_runs())
@example((_MISSED_ENABLE, stimulus.reset_schedule(_MISSED_ENABLE, assert_at=1),
          [(0,) * 8] * 3, None))
@example(_placed_run(_ONE_PS, 1, ("clock-fall", "falling-dclk", "rising-dclk", "clock-fall"),
                     [(1, 0) * 5, (0, 1) * 5, (1,) * 10, (0,) * 10], 2))
@example(_placed_run(_ONE_PS, 1, ("rising-dclk", "clock-fall", "clock-fall", "falling-dclk"),
                     [(0, 1) * 5] * 3, 1))
@example(_placed_run(_TIGHT, 124, ("as-scheduled", "rising-dclk", "falling-dclk", "rising-dclk"),
                     [(1,) * 16, (0,) * 16, (1, 0) * 8], 1))
@example(_placed_run(_TIGHT, 1, ("as-scheduled",) * 4, [(1,) * 16] * 3, None))
def test_compiled_kernel_matches_reference_and_oracles(run):
    config, schedule, words, disable_at = run
    width = config.word_width
    stim = _stimulus(config, schedule, words, disable_at)
    netlist = build_channel(config)
    traces = advance(netlist, stim.events, stim.until_ps)

    reference = ReferenceSimulator(netlist).run(net_events(stim.events), stim.until_ps)
    assert traces.events == reference.events
    assert list(traces.events) == list(reference.events)

    got = golden.extract_serial(traces, config).bits
    want = golden.golden_serialize(words, width).bits
    if disable_at is None:
        assert got == want
        last_round = len(words)
    else:
        assert len(got) >= disable_at * width
        assert got == want[:len(got)]
        last_round = disable_at
    assert protocol.check_protocol(traces, stim.schedule, config).passed

    # the in-netlist wired lines against the delay-free functional mux
    source = {f"D{i}": traces.events[f"D{i}"] for i in range(width - 2)}
    source[f"D{width - 2}"] = traces.events[f"HoldD{width - 2}"]
    source[f"D{width - 1}"] = traces.events[f"HoldD{width - 1}"]
    lines = traces_from_histories(mux_lines(traces, source, width), traces.horizon_ps)
    for r in range(1, last_round - 1):
        for slot in range(1, width + 1):
            mid = stim.timing.slot_mid(r, slot)
            for line in ("Even", "Odd", "nEven", "nOdd"):
                assert lines.level_at(line, mid) is traces.level_at(line, mid)


def _run(kernel, netlist, events, until_ps):
    """A run of the ``NetEvent`` list ``events`` on ``netlist`` by ``advance`` or by a
    new ``ReferenceSimulator``.  A netlist without the channel ring is evaluated
    by ``advance``'s pass over the stimulus-only log alone."""
    if kernel is ReferenceSimulator:
        return ReferenceSimulator(netlist).run(events, until_ps)
    return advance(netlist, stimulus_of(events), until_ps)


def _error(kernel, netlist, events, until_ps):
    with pytest.raises((ContentionError, ValueError)) as info:
        _run(kernel, netlist, events, until_ps)
    return info.type, str(info.value)


def test_zero_delay_loop_error_matches_reference():
    # advance refuses a zero-delay cycle before it reads the stimulus; the
    # reference runs it until its own guard stops it (only the events queued
    # while 5 ps runs count, not the stimulus at 5 ps)
    nl = ChannelNetlist(
        config=ChannelConfig(), nets=["A", "B"], primary_inputs=["A"],
        components=[Buffer("A", "B", 0), Buffer("B", "A", 0, invert=True)],
    )
    for levels in [(HIGH,), (HIGH, LOW, HIGH, HIGH)]:
        events = [NetEvent(5, "A", level) for level in levels]
        with pytest.raises(ConfigError, match="Buffer on A has a delay of 0 ps"):
            _run(advance, nl, events, 10)
        with pytest.raises(ZeroDelayLoopError, match="more than 1000 zero-delay events at 5 ps"):
            ReferenceSimulator(nl).run(events, 10)


def test_forced_contention_error_matches_reference():
    nl = ChannelNetlist(
        config=ChannelConfig(), nets=["Sa", "Sb", "Da", "Db", "L"],
        primary_inputs=["Sa", "Sb", "Da", "Db"],
        components=[SharedLine("L", [("Sa", "Da", 1), ("Sb", "Db", 1)], 5)],
    )
    events = [NetEvent(0, "Da", LOW), NetEvent(0, "Db", LOW), NetEvent(0, "Sa", HIGH),
              NetEvent(0, "Sb", HIGH), NetEvent(7, "Da", HIGH)]
    got = _error(advance, nl, events, 10)
    assert got == _error(ReferenceSimulator, nl, events, 10)
    assert got == (ContentionError, "conflicting drive on L at 7 ps from Sa, Sb")


@pytest.mark.parametrize("loop_at, want", [
    (9, (ContentionError, "conflicting drive on L at 7 ps from Sa, Sb")),
])
def test_error_order_of_contention_and_zero_delay_loop_matches_reference(loop_at, want):
    # advance refuses the zero-delay A/B pair before it reads the stimulus.
    # The reference runs it, and a conflict before the loop starts is its
    # error; advance gives the same error without the pair.  L and nL
    # conflict at 7 ps on one change, the earlier component wins; L2, first in
    # component order, conflicts only at 8 ps.
    lines = [SharedLine("L2", [("Sa", "Dc", 1), ("Sb", "Db", 1)], 5),
             SharedLine("L", [("Sa", "Da", 1), ("Sb", "Db", 1)], 5),
             SharedLine("nL", [("Sa", "Da", 0), ("Sb", "Db", 0)], 5)]
    loop = [Buffer("A", "B", 0), Buffer("B", "A", 0, invert=True)]
    nets = ["Sa", "Sb", "Da", "Db", "Dc", "L2", "L", "nL", "A", "B"]
    inputs = ["Sa", "Sb", "Da", "Db", "Dc", "A"]
    with_loop = ChannelNetlist(config=ChannelConfig(), nets=nets, primary_inputs=inputs,
                               components=lines + loop)
    without = ChannelNetlist(config=ChannelConfig(), nets=nets, primary_inputs=inputs,
                             components=lines)
    events = [NetEvent(0, "Da", LOW), NetEvent(0, "Db", LOW), NetEvent(0, "Dc", LOW),
              NetEvent(0, "Sa", HIGH), NetEvent(0, "Sb", HIGH), NetEvent(7, "Da", HIGH),
              NetEvent(8, "Dc", HIGH)]
    events = sorted(events + [NetEvent(loop_at, "A", HIGH)], key=lambda ev: ev.time_ps)
    with pytest.raises(ConfigError, match="Buffer on A has a delay of 0 ps"):
        _run(advance, with_loop, events, 20)
    got = _error(advance, without, events, 20)
    assert got == _error(ReferenceSimulator, with_loop, events, 20)
    assert got == want


@pytest.mark.parametrize("events, want", [
    # out of order after a conflict at 7 ps: the whole stimulus is checked first
    ([(9, "Db", LOW), (10, "Db", HIGH), (8, "Da", LOW)],
     "stimulus events must be time-ordered"),
    # the first offending change decides, and the horizon is checked last
    ([(9, "Db", LOW), (10, "L", HIGH), (8, "Da", LOW)], "stimulus on non-primary net 'L'"),
    ([(9, "Db", LOW), (8, "Da", LOW), (10, "L", HIGH)], "stimulus events must be time-ordered"),
    ([(9, "Db", LOW), (30, "Da", LOW), (10, "L", HIGH)], "stimulus on non-primary net 'L'"),
    ([(9, "Db", LOW), (30, "L", HIGH)], "stimulus on non-primary net 'L'"),
    ([(30, "Db", LOW), (25, "Da", LOW)], "stimulus events must be time-ordered"),
    ([(9, "Db", LOW), (30, "Da", LOW)], "simulation horizon ends before the last stimulus event"),
])
def test_stimulus_errors_match_reference(events, want):
    nl = ChannelNetlist(
        config=ChannelConfig(), nets=["Sa", "Sb", "Da", "Db", "L"],
        primary_inputs=["Sa", "Sb", "Da", "Db"],
        components=[SharedLine("L", [("Sa", "Da", 1), ("Sb", "Db", 1)], 5)],
    )
    events = [NetEvent(0, "Da", LOW), NetEvent(0, "Db", LOW), NetEvent(0, "Sa", HIGH),
              NetEvent(0, "Sb", HIGH), NetEvent(7, "Da", HIGH)] + [
        NetEvent(t, net, level) for t, net, level in events]
    got = _error(advance, nl, events, 20)
    assert got == _error(ReferenceSimulator, nl, events, 20)
    assert got == (ValueError, want)


@pytest.mark.parametrize("edge_first", [True, False], ids=["edge-first", "controls-first"])
def test_reset_block_edges_match_reference(edge_first):
    # Disable and Enable change exactly at every rising and falling Dclk edge,
    # each of their nine level pairs at both kinds of edge, listed before or
    # after the edge: Start must not depend on which edges re-evaluate it
    nl = ChannelNetlist(
        config=ChannelConfig(), nets=["Dclk", "Disable", "Enable", "Blast", "Start"],
        primary_inputs=["Dclk", "Disable", "Enable", "Blast"],
        components=[ResetBlock("Dclk", "Disable", "Enable", "Blast", "Start", 3)],
    )
    pairs = [(dis, en) for dis in (LOW, HIGH, UNKNOWN) for en in (LOW, HIGH, UNKNOWN)]
    events = [NetEvent(0, "Dclk", LOW), NetEvent(0, "Blast", LOW)]
    for k in range(4 * len(pairs)):
        t = 10 * (k + 1)
        dis, en = pairs[5 * k % len(pairs)]  # every pair at even and at odd k
        edge = [NetEvent(t, "Dclk", LOW if k % 2 else HIGH)]
        controls = [NetEvent(t, "Disable", dis), NetEvent(t, "Enable", en)]
        if k % 3 == 0:
            controls.append(NetEvent(t, "Blast", HIGH if k % 2 else LOW))
        events += edge + controls if edge_first else controls + edge
    until = 10 * (4 * len(pairs) + 2)
    got = _run(advance, nl, events, until).events
    assert got == _run(ReferenceSimulator, nl, events, until).events
    assert {level for _, level in got["Start"]} == {LOW, HIGH, UNKNOWN}


def _outcome(kernel, netlist, events, until_ps):
    """The histories of a run, or the message of its ``ContentionError``."""
    try:
        return _run(kernel, netlist, events, until_ps).events
    except ContentionError as exc:
        return str(exc)


@pytest.mark.parametrize("first, delay", [("Sa", 5), ("Sb", 5), ("Sa", 0), ("Sb", 0)],
                         ids=["Sa", "Sb", "Sa-zero-delay", "Sb-zero-delay"])
def test_same_time_select_handover_matches_reference(first, delay):
    # Sa hands both lines over to Sb at 10 ps.  Sa released first: M is pulled
    # up for no time, a transient that collapses.  Sb selected first: L's two
    # blocks pull differently for no time, a conflict.  At 20 ps a bus update
    # and a select change share the time stamp.  A wired line is a sink, so
    # it may have no delay.
    nl = ChannelNetlist(
        config=ChannelConfig(), nets=["Sa", "Sb", "Da", "Db", "Dc", "L", "M", "X"],
        primary_inputs=["Sa", "Sb", "Da", "Db", "Dc"],
        components=[SharedLine("L", [("Sa", "Da", 1), ("Sb", "Db", 1)], delay),
                    SharedLine("M", [("Sa", "Dc", 1), ("Sb", "Dc", 1)], delay),
                    Buffer("Sa", "X", 3, invert=True)],
    )
    handover = [NetEvent(10, "Sa", LOW), NetEvent(10, "Sb", HIGH)]
    events = ([NetEvent(0, "Da", LOW), NetEvent(0, "Db", HIGH), NetEvent(0, "Dc", HIGH),
               NetEvent(0, "Sb", LOW), NetEvent(0, "Sa", HIGH)]
              + (handover if first == "Sa" else handover[::-1])
              + [NetEvent(20, "Db", LOW), NetEvent(20, "Sb", LOW)])
    got = _outcome(advance, nl, events, 40)
    assert got == _outcome(ReferenceSimulator, nl, events, 40)
    if first == "Sb":
        assert got == "conflicting drive on L at 10 ps from Sa, Sb"
    else:
        # without delay the power-on UNKNOWN collapses into the level at 0 ps
        start = [(0, UNKNOWN)] if delay else []
        assert got["L"] == start + [(delay, HIGH), (10 + delay, LOW), (20 + delay, HIGH)]
        assert got["M"] == start + [(delay, LOW), (20 + delay, HIGH)]
        assert got["X"] == [(0, UNKNOWN), (3, LOW), (13, HIGH)]


@pytest.mark.parametrize("components, message", [
    ([SharedLine("L", [("S", "D", 1)], 5), Buffer("L", "Q", 1)],
     "wired line L is read by a component"),
    ([SharedLine("L", [("S", "D", 1)], -1)], "SharedLine on S, D has a delay of -1 ps"),
], ids=["read", "negative-delay"])
def test_wired_line_must_be_an_unread_delayed_sink(components, message):
    nl = ChannelNetlist(config=ChannelConfig(), nets=["S", "D", "L", "Q"],
                        primary_inputs=["S", "D"], components=components)
    with pytest.raises(ConfigError, match=message):
        advance(nl, stimulus_of([NetEvent(0, "S", HIGH)]), 10)


def test_same_time_glitch_collapses_like_reference():
    nl = ChannelNetlist(
        config=ChannelConfig(), nets=["A", "B"], primary_inputs=["A"],
        components=[Buffer("A", "B", 1)],
    )
    events = [NetEvent(0, "A", LOW), NetEvent(5, "A", HIGH), NetEvent(5, "A", LOW)]
    traces = _run(advance, nl, events, 10)
    assert traces.events == _run(ReferenceSimulator, nl, events, 10).events
    assert traces.events == {"A": [(0, LOW)], "B": [(0, UNKNOWN), (1, LOW)]}


def test_histories_hold_plain_level_codes(stream40):
    # the kernel records codes; only level_at turns them into Level members
    _, _, traces = stream40
    levels = {type(lvl) for hist in traces.events.values() for _, lvl in hist}
    assert levels == {int}
    assert {lvl for hist in traces.events.values() for _, lvl in hist} == {0, 1, 2}


def test_perfbench_trace_entries_count_the_reference_histories(config, stream40):
    # the counter perfbench's traced mode applies to each ``advance`` result
    script = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", script)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    _, stim, traces = stream40
    reference = ReferenceSimulator(build_channel(config))
    reference.run(net_events(stim.events), stim.until_ps)
    want = sum(len(hist) for hist in reference.traces.values())
    assert tracing._trace_entries((), traces) == {"trace_entries": want}


def test_finished_run_leaves_no_reference_cycles(config, stream40):
    # a cycle would keep every history alive until the next full collection
    _, stim, _ = stream40
    netlist = build_channel(config)
    gc.collect()
    gc.disable()
    try:
        traces = advance(netlist, stim.events, stim.until_ps)
        del traces
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("rate, gap", [(9_433_962_264, 106), (9_500_000_000, 105)])
def test_ring_needs_falling_dclk_edges_past_its_recirculation(rate, gap):
    # the default channel's ring needs its falling Dclk edges more than
    # ff_delay_ps + 5 * buffer_delay_ps = 105 ps apart; this Clock column comes
    # from a faster serial clock, which no accepted config of the netlist gives
    netlist = build_channel(ChannelConfig())
    fast = ChannelConfig(serial_rate_hz=rate, ff_delay_ps=1, buffer_delay_ps=1, skew_ps=0,
                         dt_ps=1.0)
    stim = stimulus.stream_stimulus(fast, [(1, 0) * 5, (0,) * 10, (1,) * 10])
    clock = stim.events.net == stim.events.nets.index("Clock")
    assert np.diff(stim.events.times[clock & (stim.events.level == LOW)]).min() == gap
    if gap > 105:
        traces = advance(netlist, stim.events, stim.until_ps)
        reference = ReferenceSimulator(netlist).run(net_events(stim.events), stim.until_ps)
        assert traces.events == reference.events
    else:
        with pytest.raises(ValueError, match=r"^falling Dclk edges at \d+ and \d+ ps: "
                                             r"the ring needs them more than 105 ps apart$"):
            advance(netlist, stim.events, stim.until_ps)


@pytest.mark.parametrize("controls_first", [False, True], ids=["clock-first", "controls-first"])
def test_controls_on_a_clock_fall_match_reference_in_either_order(controls_first):
    # every control change on a Clock fall, listed after it (as stream_stimulus
    # lists them) or before it: the Start change it makes lands on the falling
    # Dclk edge, and Sel1 takes it only when listed before
    _, schedule, words, _ = _placed_run(_ONE_PS, 1, ("clock-fall",) * 4, [(1, 0) * 5] * 4, 1)
    stim = stimulus.stream_stimulus(_ONE_PS, words, schedule)
    events = net_events(stim.events)
    if controls_first:
        events.sort(key=lambda ev: (ev.time_ps, ev.net not in ("Disable", "Enable")))
    netlist = build_channel(_ONE_PS)
    traces = advance(netlist, stimulus_of(events), stim.until_ps)
    assert traces.events == ReferenceSimulator(netlist).run(events, stim.until_ps).events
    falls = traces.edges("Dclk", "fall")
    starts = traces.arrays("Start")[0]
    assert np.isin(starts, falls).any()


@st.composite
def primary_input_runs(draw):
    """A channel with a 100 ps clock period and a hand-built stimulus: random changes
    of every primary input (UNKNOWN, repeats and same-time glitches included), and
    either random Clock changes or a 100 ps Clock, its edges up to 7 ps late, listed
    before or after the other changes of their time."""
    width = draw(st.sampled_from((8, 10)))
    config = ChannelConfig(serial_rate_hz=10_000_000_000, word_width=width, dt_ps=1.0,
                           ff_delay_ps=draw(st.integers(1, 10)),
                           buffer_delay_ps=draw(st.integers(1, 6)),
                           skew_ps=draw(st.integers(0, 3)))
    config.validate()
    nets = ["Clock", "Disable", "Enable"] * 3 + [f"D{i}" for i in range(width)]
    events, t = [], 0
    for _ in range(draw(st.integers(1, 400))):
        t += draw(st.sampled_from((0, 0, 1, 2, 3, 5, 8, 13, 20, 40)))
        events.append(NetEvent(t, draw(st.sampled_from(nets)),
                               draw(st.sampled_from((LOW, HIGH, UNKNOWN)))))
    if draw(st.booleans()):
        clock = [NetEvent(50 * k + draw(st.sampled_from((0, 0, 0, 1, 7))), "Clock",
                          HIGH if k % 2 == 0 else LOW) for k in range(t // 50 + 1)]
        late = draw(st.booleans())
        events = sorted(clock + [ev for ev in events if ev.net != "Clock"],
                        key=lambda ev: (ev.time_ps, (ev.net == "Clock") == late))
    return config, events, t + draw(st.integers(0, 50))


def _outcome_or_error(kernel, netlist, events, until_ps):
    """The histories of a run, or the type and message of its error."""
    try:
        return _run(kernel, netlist, events, until_ps).events
    except (ContentionError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(primary_input_runs())
def test_hand_built_stimulus_matches_reference_or_is_refused(run):
    # advance never returns other traces than the reference: it refuses only
    # Clock columns whose falls come too close for its ring pass
    config, events, until = run
    netlist = build_channel(config)
    got = _outcome_or_error(advance, netlist, events, until)
    if isinstance(got, tuple) and got[0] is ValueError and "the ring needs them" in got[1]:
        return
    assert got == _outcome_or_error(ReferenceSimulator, netlist, events, until)
