"""Event kernel, ring netlist and wired-line multiplexing."""

from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from datachan import ChannelConfig, advance, build_channel
from datachan.errors import ConfigError, ContentionError
from datachan.logic import AND, HIGH, LOW, NOT, OR, UNKNOWN, Level, SignalTraces
from datachan.netlist import Buffer, ChannelNetlist, DFlipFlop, SharedLine
from datachan import stimulus
from reference_kernel import (NetEvent, ReferenceSimulator, ResetState, clock_events, eval_reset,
                              intervals, k_and, histories_from_log, k_not, k_or, merge_events,
                              mux_lines, stimulus_of, traces_from_histories)

LEVELS = (LOW, HIGH, UNKNOWN)


# --------------------------------------------------------------------------
# three-valued logic

def test_not_truth_table():
    assert k_not(LOW) is HIGH
    assert k_not(HIGH) is LOW
    assert k_not(UNKNOWN) is UNKNOWN


def test_and_or_dominant_values():
    # LOW dominates AND and HIGH dominates OR even against UNKNOWN
    assert k_and(LOW, UNKNOWN) is LOW
    assert k_or(HIGH, UNKNOWN) is HIGH
    assert k_and(HIGH, UNKNOWN) is UNKNOWN
    assert k_or(LOW, UNKNOWN) is UNKNOWN
    assert k_and(HIGH, HIGH) is HIGH
    assert k_or(LOW, LOW) is LOW


@given(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=5))
def test_de_morgan(terms):
    assert k_not(k_and(*terms)) is k_or(*(k_not(t) for t in terms))


def test_gate_tables_match_reference_gates():
    # every input of the kernel's lookup tables against the Level-valued gates
    for a in LEVELS:
        assert NOT[a] == k_not(a)
        for b in LEVELS:
            assert AND[a][b] == k_and(a, b)
            assert OR[a][b] == k_or(a, b)


# --------------------------------------------------------------------------
# traces

def _traces():
    return traces_from_histories(
        {"A": [(0, UNKNOWN), (5, LOW), (10, HIGH), (20, LOW), (30, HIGH)]}, 40)


def test_level_at_bisects_history():
    tr = _traces()
    assert tr.level_at("A", 0) is UNKNOWN
    assert tr.level_at("A", 9) is LOW
    assert tr.level_at("A", 10) is HIGH
    assert tr.level_at("A", 39) is HIGH


@pytest.mark.parametrize("as_codes", [False, True])
def test_level_at_returns_level_members(as_codes):
    # histories of plain codes, as the kernel records them, or of members
    hist = [(0, UNKNOWN), (5, LOW), (10, HIGH)]
    if as_codes:
        hist = [(t, int(lvl)) for t, lvl in hist]
        assert all(type(lvl) is int for _, lvl in hist)
    tr = traces_from_histories({"A": hist}, 20)
    got = [tr.level_at("A", t) for t in (-1, 0, 5, 19)]
    assert got == [UNKNOWN, UNKNOWN, LOW, HIGH]
    assert all(type(lvl) is Level for lvl in got)
    assert [lvl.name for lvl in got] == ["UNKNOWN", "UNKNOWN", "LOW", "HIGH"]


def test_edges_and_intervals():
    tr = _traces()
    assert tr.edges("A", "rise").tolist() == [10, 30]
    assert tr.edges("A", "fall").tolist() == [20]
    with pytest.raises(ValueError):
        tr.edges("A", "both")
    assert intervals(tr, "A", HIGH) == [(10, 20), (30, 40)]


def test_merge_events_is_stable():
    a = [NetEvent(5, "X", HIGH), NetEvent(7, "X", LOW)]
    b = [NetEvent(5, "Y", LOW)]
    merged = merge_events([a, b])
    assert [ev.time_ps for ev in merged] == [5, 5, 7]
    assert merged[0].net == "X"  # same-time order follows stream order


# --------------------------------------------------------------------------
# reset block decision logic

def test_reset_arms_from_enable_sample():
    state = ResetState()
    assert eval_reset(state, "rise", LOW, HIGH, LOW) in (LOW, UNKNOWN)
    assert eval_reset(state, "fall", LOW, HIGH, LOW) is HIGH  # armed commits
    # armed persists while disable stays low and enable returns low
    assert state.start_level(LOW, LOW, LOW) is HIGH


def test_reset_disable_forces_low():
    state = ResetState(armed=HIGH)
    assert state.start_level(HIGH, LOW, HIGH) is LOW


def test_reset_recirculates_from_buffered_last():
    state = ResetState(armed=LOW)
    assert state.start_level(LOW, LOW, HIGH) is HIGH
    assert state.start_level(LOW, HIGH, HIGH) is LOW  # enable blocks recirc
    assert state.start_level(LOW, LOW, LOW) is LOW


def test_reset_rejects_bad_edge():
    with pytest.raises(ValueError):
        eval_reset(ResetState(), "sideways", LOW, LOW, LOW)


# --------------------------------------------------------------------------
# netlist structure

def _component_counts(nl):
    """(ring flip-flops, hold flip-flops, selector pull-downs) of a netlist."""
    ffs = [c for c in nl.components if isinstance(c, DFlipFlop)]
    ring = sum(ff.clk == "Dclk" for ff in ffs)
    selectors = sum(len(c.pullers) for c in nl.components if isinstance(c, SharedLine))
    return ring, len(ffs) - ring, selectors


def test_channel_structure_default_width(config):
    nl = build_channel(config)
    ring, hold, selectors = _component_counts(nl)
    assert ring == 11        # Sel1..Sel10 plus iSel1
    assert hold == 2
    assert selectors == 20   # ten selects x true/complement
    splitter = {(b.src, b.dst, b.invert) for b in nl.components
                if isinstance(b, Buffer) and b.dst in ("Dclk", "Nclk")}
    assert splitter == {("Clock", "Dclk", False), ("Dclk", "Nclk", True)}
    sel_nets = [n for n in nl.nets if n.startswith("Sel")]
    assert sel_nets[0] == "Sel1" and sel_nets[-1] == "Sel10"
    lines = {c.line for c in nl.components if isinstance(c, SharedLine)}
    assert lines == {"Even", "Odd", "nEven", "nOdd"}
    assert "HoldD8" in nl.nets and "HoldD9" in nl.nets


def test_channel_structure_width_8():
    cfg = ChannelConfig(word_width=8)
    nl = build_channel(cfg)
    ring, _, selectors = _component_counts(nl)
    assert ring == 9
    assert selectors == 16
    assert "Buffered_Sel8" in nl.nets


def test_invalid_width_rejected():
    with pytest.raises(ConfigError):
        build_channel(ChannelConfig(word_width=12))


# --------------------------------------------------------------------------
# simulated ring behavior

def _high_sels_over_time(traces, width, t0, t1):
    """(time, set-of-high-selects) after each event time in [t0, t1)."""
    times = sorted({t for k in range(1, width + 1)
                    for t, _ in traces.events[f"Sel{k}"] if t0 <= t < t1})
    out = []
    for t in times:
        high = {k for k in range(1, width + 1)
                if traces.level_at(f"Sel{k}", t) is HIGH}
        out.append((t, high))
    return out


def test_selects_are_one_hot_while_streaming(config, stream40):
    _, stim, traces = stream40
    t0 = stim.timing.slot_start(0, 1)
    t1 = stim.timing.slot_start(39, 1)
    snapshots = _high_sels_over_time(traces, config.word_width, t0, t1)
    assert snapshots, "no select activity in the streaming window"
    assert all(len(high) == 1 for _, high in snapshots)


def test_select_dwell_is_one_serial_period(config, stream40):
    _, stim, traces = stream40
    t0, t1 = stim.timing.slot_start(0, 1), stim.timing.slot_start(39, 1)
    period = round(config.bit_period)
    for k in range(1, config.word_width + 1):
        dwells = [b - a for a, b in intervals(traces, f"Sel{k}", HIGH)
                  if t0 <= a < t1]
        assert dwells
        assert all(abs(d - period) <= 1 for d in dwells)


def test_sel1_recurs_every_word_on_the_exact_grid(config, stream40):
    _, stim, traces = stream40
    rises = traces.edges("Sel1", "rise")
    expected = [stim.timing.slot_start(r, 1) for r in range(40)]
    assert rises[:40].tolist() == expected


def test_start_pulse_overlaps_last_select(config, stream40):
    _, stim, traces = stream40
    t0 = stim.timing.slot_start(1, 1)
    last = f"Sel{config.word_width}"
    start_ints = [iv for iv in intervals(traces, "Start", HIGH) if iv[0] >= t0]
    sel_ints = [iv for iv in intervals(traces, last, HIGH) if iv[0] >= t0]
    assert start_ints and sel_ints
    for (s0, s1) in start_ints[:10]:
        assert any(a < s1 and s0 < b for a, b in sel_ints), \
            f"Start pulse ({s0}, {s1}) overlaps no {last} pulse"


def test_isel1_mirrors_sel1(stream40):
    _, _, traces = stream40
    assert traces.edges("iSel1", "rise").tolist() == traces.edges("Sel1", "rise").tolist()


def test_no_enable_keeps_ring_quiet(config):
    until = round(40 * config.bit_period)
    events = merge_events([
        clock_events(config, until),
        [NetEvent(0, "Disable", HIGH), NetEvent(0, "Enable", LOW),
         NetEvent(round(4 * config.bit_period), "Disable", LOW)],
    ])
    traces = advance(build_channel(config), stimulus_of(events), until)
    for k in range(1, config.word_width + 1):
        assert traces.edges(f"Sel{k}", "rise").tolist() == []


def test_disable_drains_the_ring(config):
    words = stimulus.random_words(8, seed=9)
    stim = stimulus.stream_stimulus(config, words)
    t_d = stim.timing.slot_mid(3, 5)
    sched = stimulus.ProtocolSchedule(
        stim.schedule.actions + [(t_d, stimulus.Action.DISABLE_ASSERT)])
    stim = stimulus.stream_stimulus(config, words, sched)
    traces = advance(build_channel(config), stim.events, stim.until_ps)
    for k in range(1, config.word_width + 1):
        assert traces.level_at(f"Sel{k}", stim.until_ps - 1) is LOW
    for line in ("Even", "Odd", "nEven", "nOdd"):
        assert traces.level_at(line, stim.until_ps - 1) is HIGH


def test_determinism_of_advance(config, stream40):
    words, stim, traces = stream40
    again = advance(build_channel(config), stim.events, stim.until_ps)
    assert again.events == traces.events


def test_zero_delay_loop_raises():
    cfg = ChannelConfig()
    nl = ChannelNetlist(
        config=cfg, nets=["A", "B"], primary_inputs=["A"],
        components=[Buffer("A", "B", 0), Buffer("B", "A", 0, invert=True)],
    )
    with pytest.raises(ConfigError, match="has a delay of 0 ps"):
        advance(nl, stimulus_of([NetEvent(0, "A", HIGH)]), 10)


def test_stimulus_must_hit_primary_inputs(config):
    nl = build_channel(config)
    with pytest.raises(ValueError):
        advance(nl, stimulus_of([NetEvent(0, "Sel1", HIGH)]), 10)


def test_horizon_must_cover_stimulus(config):
    nl = build_channel(config)
    with pytest.raises(ValueError):
        advance(nl, stimulus_of([NetEvent(100, "Enable", HIGH)]), 50)


@st.composite
def change_logs(draw):
    """A kernel's change log: each net's power-on ``(0, UNKNOWN)``, then changes in
    time order, each to a level its net does not hold, many at one time."""
    n_nets = draw(st.integers(1, 4))
    log = [(0, net << 2 | UNKNOWN) for net in range(n_nets)]
    levels = [UNKNOWN] * n_nets
    t = 0
    for _ in range(draw(st.integers(0, 40))):
        t += draw(st.sampled_from((0, 0, 0, 1, 3)))
        net = draw(st.integers(0, n_nets - 1))
        levels[net] = (levels[net] + draw(st.integers(1, 2))) % 3
        log.append((t, net << 2 | levels[net]))
    return [f"n{i}" for i in range(n_nets)], log


@settings(max_examples=300, deadline=None)
@given(change_logs())
@example((["A"], [(0, 2), (5, 0), (5, 1), (5, 0)]))           # same-time glitch
@example((["A"], [(0, 2), (3, 0), (5, 1), (5, 0)]))           # a change undone
@example((["A"], [(0, 2), (0, 0), (0, 1), (0, 2), (4, 1)]))   # back to UNKNOWN at 0
@example((["A", "B", "C"], [(0, 2), (0, 6), (0, 10), (4, 5)]))  # nets with no changes
def test_columns_from_log_match_change_by_change_recording(case):
    nets, log = case
    traces = SignalTraces.from_log(nets, array("q", [t for t, _ in log]),
                                   array("q", [code for _, code in log]), 50)
    assert traces.events == histories_from_log(nets, log)
    assert traces.nets() == nets and traces.horizon_ps == 50
    for times, codes in traces.columns.values():
        assert times.dtype == np.int64 and codes.dtype == np.int8
        assert not times.flags.writeable and not codes.flags.writeable


@pytest.mark.parametrize("kernel", [advance, ReferenceSimulator],
                         ids=["Simulator", "ReferenceSimulator"])
def test_stimulus_must_be_time_ordered(config, kernel):
    events = [NetEvent(20, "Enable", HIGH), NetEvent(10, "Disable", LOW)]
    with pytest.raises(ValueError, match="stimulus events must be time-ordered"):
        if kernel is ReferenceSimulator:
            ReferenceSimulator(build_channel(config)).run(events, 50)
        else:
            advance(build_channel(config), stimulus_of(events), 50)


# --------------------------------------------------------------------------
# functional line multiplexing

def test_mux_lines_matches_simulated_lines(config, stream40):
    _, stim, traces = stream40
    word_source = {f"D{i}": traces.events[f"D{i}"] for i in range(8)}
    word_source["D8"] = traces.events["HoldD8"]
    word_source["D9"] = traces.events["HoldD9"]
    lines = mux_lines(traces, word_source, config.word_width)

    ref = traces_from_histories(lines, traces.horizon_ps)
    for r in range(1, 39):
        for slot in range(1, config.word_width + 1):
            mid = stim.timing.slot_mid(r, slot)
            for line in ("Even", "Odd", "nEven", "nOdd"):
                assert ref.level_at(line, mid) is traces.level_at(line, mid), \
                    f"{line} differs at round {r} slot {slot}"


def test_mux_lines_flags_contention():
    width = 10
    events = {f"Sel{k}": [(0, LOW)] for k in range(1, width + 1)}
    events["Sel1"] = [(0, HIGH)]
    events["Sel3"] = [(0, HIGH)]  # two odd selects driving opposite bits
    traces = traces_from_histories(events, 10)
    source = {f"D{i}": [(0, LOW)] for i in range(width)}
    source["D0"] = [(0, HIGH)]
    with pytest.raises(ContentionError):
        mux_lines(traces, source, width)
