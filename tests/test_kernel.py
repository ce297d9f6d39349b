"""The compiled event kernel against the original kernel and the functional oracles."""

import gc
import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from datachan import ChannelConfig, advance, build_channel, golden, protocol, stimulus
from datachan.errors import ConfigError, ContentionError, OscillationError
from datachan.logic import HIGH, LOW, UNKNOWN
from datachan.netlist import Buffer, ChannelNetlist, ResetBlock, SharedLine, Simulator
from reference_kernel import (NetEvent, ReferenceSimulator, mux_lines, net_events, stimulus_of,
                              traces_from_histories)


@st.composite
def channel_runs(draw):
    """A configuration that ``validate()`` accepts (``loop_limit`` 1 too), a
    reset schedule with its Disable anywhere in the first two periods, words
    and a disable point."""
    width = draw(st.sampled_from((8, 10, 16)))
    rate = draw(st.integers(1_000_000_000, 3_000_000_000))
    shortest = math.floor(ChannelConfig(serial_rate_hz=rate).bit_period)
    buf = draw(st.integers(1, (shortest - 2) // 5))
    ff = draw(st.integers(1, shortest - 1 - 5 * buf))
    skew = draw(st.integers(0, math.ceil(shortest / 2) - 1))
    config = ChannelConfig(serial_rate_hz=rate, word_width=width, ff_delay_ps=ff,
                           buffer_delay_ps=buf, skew_ps=skew,
                           loop_limit=draw(st.sampled_from((1, 1000))))
    config.validate()
    schedule = stimulus.reset_schedule(config, assert_at=draw(st.integers(1, 2 * shortest)))
    words = draw(st.lists(st.tuples(*[st.integers(0, 1)] * width),
                          min_size=3, max_size=8))
    disable_at = draw(st.none() | st.integers(0, len(words) - 1))
    return config, schedule, words, disable_at


def _stimulus(config, schedule, words, disable_at):
    """Stream ``words``, asserting Disable mid-word like ``run_scenario``."""
    stim = stimulus.stream_stimulus(config, words, schedule)
    if disable_at is None:
        return stim
    t_d = stim.timing.slot_mid(disable_at, config.word_width // 2)
    schedule = stimulus.ProtocolSchedule(
        stim.schedule.actions + [(t_d, stimulus.Action.DISABLE_ASSERT)])
    return stimulus.stream_stimulus(config, words, schedule)


# an Enable rise 1 ps after a sampling edge: a pulse of round(period) used to
# end exactly on the next edge, so the channel never started
_MISSED_ENABLE = ChannelConfig(serial_rate_hz=2_215_365_140, word_width=8,
                               ff_delay_ps=1, buffer_delay_ps=1, skew_ps=0)


@settings(max_examples=60, deadline=None)
@given(channel_runs())
@example((_MISSED_ENABLE, stimulus.reset_schedule(_MISSED_ENABLE, assert_at=1),
          [(0,) * 8] * 3, None))
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
    """A run of the ``NetEvent`` list ``events`` on a new ``kernel`` for ``netlist``."""
    stim = events if kernel is ReferenceSimulator else stimulus_of(events)
    return kernel(netlist).run(stim, until_ps)


def _error(kernel, netlist, events, until_ps):
    with pytest.raises((OscillationError, ContentionError, ValueError)) as info:
        _run(kernel, netlist, events, until_ps)
    return info.type, str(info.value)


def test_zero_delay_loop_error_matches_reference():
    # only the events queued while 5 ps runs count, not the stimulus at 5 ps
    nl = ChannelNetlist(
        config=ChannelConfig(loop_limit=50), nets=["A", "B"], primary_inputs=["A"],
        components=[Buffer("A", "B", 0), Buffer("B", "A", 0, invert=True)],
    )
    for levels in [(HIGH,), (HIGH, LOW, HIGH, HIGH)]:
        events = [NetEvent(5, "A", level) for level in levels]
        got = _error(Simulator, nl, events, 10)
        assert got == _error(ReferenceSimulator, nl, events, 10)
        assert got == (OscillationError, "more than 50 zero-delay events at 5 ps (net B)")


def test_forced_contention_error_matches_reference():
    nl = ChannelNetlist(
        config=ChannelConfig(), nets=["Sa", "Sb", "Da", "Db", "L"],
        primary_inputs=["Sa", "Sb", "Da", "Db"],
        components=[SharedLine("L", [("Sa", "Da", 1), ("Sb", "Db", 1)], 5)],
    )
    events = [NetEvent(0, "Da", LOW), NetEvent(0, "Db", LOW), NetEvent(0, "Sa", HIGH),
              NetEvent(0, "Sb", HIGH), NetEvent(7, "Da", HIGH)]
    got = _error(Simulator, nl, events, 10)
    assert got == _error(ReferenceSimulator, nl, events, 10)
    assert got == (ContentionError, "conflicting drive on L at 7 ps from Sa, Sb")


@pytest.mark.parametrize("loop_at, want", [
    (9, (ContentionError, "conflicting drive on L at 7 ps from Sa, Sb")),
    (5, (OscillationError, "more than 50 zero-delay events at 5 ps (net B)")),
])
def test_error_order_of_contention_and_zero_delay_loop_matches_reference(loop_at, want):
    # the wired lines are computed after the loop, which raises at the
    # zero-delay loop first: a conflict logged before it must still be the
    # error.  L and nL conflict at 7 ps on one change, the earlier component
    # wins; L2, first in component order, conflicts only at 8 ps.
    nl = ChannelNetlist(
        config=ChannelConfig(loop_limit=50),
        nets=["Sa", "Sb", "Da", "Db", "Dc", "L2", "L", "nL", "A", "B"],
        primary_inputs=["Sa", "Sb", "Da", "Db", "Dc", "A"],
        components=[SharedLine("L2", [("Sa", "Dc", 1), ("Sb", "Db", 1)], 5),
                    SharedLine("L", [("Sa", "Da", 1), ("Sb", "Db", 1)], 5),
                    SharedLine("nL", [("Sa", "Da", 0), ("Sb", "Db", 0)], 5),
                    Buffer("A", "B", 0), Buffer("B", "A", 0, invert=True)],
    )
    events = [NetEvent(0, "Da", LOW), NetEvent(0, "Db", LOW), NetEvent(0, "Dc", LOW),
              NetEvent(0, "Sa", HIGH), NetEvent(0, "Sb", HIGH), NetEvent(7, "Da", HIGH),
              NetEvent(8, "Dc", HIGH)]
    events = sorted(events + [NetEvent(loop_at, "A", HIGH)], key=lambda ev: ev.time_ps)
    got = _error(Simulator, nl, events, 20)
    assert got == _error(ReferenceSimulator, nl, events, 20)
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
    got = _error(Simulator, nl, events, 20)
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
    got = _run(Simulator, nl, events, until).events
    assert got == _run(ReferenceSimulator, nl, events, until).events
    assert {level for _, level in got["Start"]} == {LOW, HIGH, UNKNOWN}


def _outcome(kernel, netlist, events, until_ps):
    """The histories of a run, or the message of its ``ContentionError``."""
    try:
        return _run(kernel, netlist, events, until_ps).events
    except ContentionError as exc:
        return str(exc)


@pytest.mark.parametrize("first", ["Sa", "Sb"])
def test_same_time_select_handover_matches_reference(first):
    # Sa hands both lines over to Sb at 10 ps.  Sa released first: M is pulled
    # up for no time, a transient that collapses.  Sb selected first: L's two
    # blocks pull differently for no time, a conflict.  At 20 ps a bus update
    # and a select change share the time stamp.
    nl = ChannelNetlist(
        config=ChannelConfig(), nets=["Sa", "Sb", "Da", "Db", "Dc", "L", "M", "X"],
        primary_inputs=["Sa", "Sb", "Da", "Db", "Dc"],
        components=[SharedLine("L", [("Sa", "Da", 1), ("Sb", "Db", 1)], 5),
                    SharedLine("M", [("Sa", "Dc", 1), ("Sb", "Dc", 1)], 5),
                    Buffer("Sa", "X", 3, invert=True)],
    )
    handover = [NetEvent(10, "Sa", LOW), NetEvent(10, "Sb", HIGH)]
    events = ([NetEvent(0, "Da", LOW), NetEvent(0, "Db", HIGH), NetEvent(0, "Dc", HIGH),
               NetEvent(0, "Sb", LOW), NetEvent(0, "Sa", HIGH)]
              + (handover if first == "Sa" else handover[::-1])
              + [NetEvent(20, "Db", LOW), NetEvent(20, "Sb", LOW)])
    got = _outcome(Simulator, nl, events, 40)
    assert got == _outcome(ReferenceSimulator, nl, events, 40)
    if first == "Sb":
        assert got == "conflicting drive on L at 10 ps from Sa, Sb"
    else:
        assert got["L"] == [(0, UNKNOWN), (5, HIGH), (15, LOW), (25, HIGH)]
        assert got["M"] == [(0, UNKNOWN), (5, LOW), (25, HIGH)]
        assert got["X"] == [(0, UNKNOWN), (3, LOW), (13, HIGH)]


@pytest.mark.parametrize("components", [
    [SharedLine("L", [("S", "D", 1)], 5), Buffer("L", "Q", 1)],
    [SharedLine("L", [("S", "D", 1)], 0)],
], ids=["read", "zero-delay"])
def test_wired_line_must_be_an_unread_delayed_sink(components):
    nl = ChannelNetlist(config=ChannelConfig(), nets=["S", "D", "L", "Q"],
                        primary_inputs=["S", "D"], components=components)
    with pytest.raises(ConfigError, match="wired line L needs a positive delay"):
        Simulator(nl)


def test_same_time_glitch_collapses_like_reference():
    nl = ChannelNetlist(
        config=ChannelConfig(), nets=["A", "B"], primary_inputs=["A"],
        components=[Buffer("A", "B", 1)],
    )
    events = [NetEvent(0, "A", LOW), NetEvent(5, "A", HIGH), NetEvent(5, "A", LOW)]
    traces = _run(Simulator, nl, events, 10)
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
