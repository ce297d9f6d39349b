"""Disable/enable latency checks, reset completion and misuse detection."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from datachan import ChannelConfig, advance, build_channel
from datachan.errors import IncompleteTraceError
from datachan.logic import HIGH, LOW, UNKNOWN, NetEvent, SignalTraces, merge_events
from datachan.protocol import _quiet_since, check_protocol, latency_bound_ps
from datachan import stimulus


def test_latency_bound_value(config):
    # two parallel-word periods at 1.65 Gbps, rounded on the exact grid
    assert latency_bound_ps(config) == 12121
    assert latency_bound_ps(ChannelConfig(word_width=8)) == 9697


def _streamed(config, n_words=12, disable_slot=None, seed=11):
    words = stimulus.random_words(n_words, seed=seed)
    stim = stimulus.stream_stimulus(config, words)
    sched = stim.schedule
    if disable_slot is not None:
        t_d = stim.timing.slot_mid(3, disable_slot)
        sched = stimulus.ProtocolSchedule(
            sched.actions + [(t_d, stimulus.Action.DISABLE_ASSERT)])
        stim = stimulus.stream_stimulus(config, words, sched)
    traces = advance(build_channel(config), stim.events, stim.until_ps)
    return traces, sched


def test_enable_latency_within_bound(config):
    traces, sched = _streamed(config)
    verdict = check_protocol(traces, sched, config)
    assert verdict.passed
    enable = [r for r in verdict.records
              if r.action is stimulus.Action.ENABLE_PULSE]
    assert len(enable) == 1
    assert 0 < enable[0].latency_ps <= verdict.bound_ps


def test_disable_latency_within_bound(config):
    traces, sched = _streamed(config, disable_slot=5)
    verdict = check_protocol(traces, sched, config)
    assert verdict.passed
    disables = [r for r in verdict.records
                if r.action is stimulus.Action.DISABLE_ASSERT]
    # the reset assert plus the mid-stream assert
    assert len(disables) == 2
    assert all(r.latency_ps <= verdict.bound_ps for r in disables)


def test_reset_complete_before_deadline(config):
    traces, sched = _streamed(config)
    verdict = check_protocol(traces, sched, config)
    enable_t = sched.times_of(stimulus.Action.ENABLE_PULSE)[0]
    assert verdict.reset_complete_ps is not None
    assert verdict.reset_complete_ps <= enable_t + verdict.bound_ps
    assert verdict.warnings == []


def test_truncated_trace_raises(config):
    words = stimulus.random_words(4, seed=2)
    stim = stimulus.stream_stimulus(config, words)
    t_d = stim.timing.slot_mid(2, 5)
    sched = stimulus.ProtocolSchedule(
        stim.schedule.actions + [(t_d, stimulus.Action.DISABLE_ASSERT)])
    # cut the horizon right after the assert, before the ring can drain
    until = t_d + 100
    events = [ev for ev in stimulus.stream_stimulus(config, words, sched).events
              if ev.time_ps <= until]
    traces = advance(build_channel(config), events, until)
    with pytest.raises(IncompleteTraceError):
        check_protocol(traces, sched, config)


def test_wide_enable_pulse_warns(config):
    period = config.bit_period
    t_e = round(16 * period)
    until = round(40 * period)
    events = merge_events([
        stimulus.clock_events(config, until),
        [NetEvent(0, "Disable", HIGH), NetEvent(0, "Enable", LOW),
         NetEvent(round(12 * period), "Disable", LOW),
         NetEvent(t_e, "Enable", HIGH),
         NetEvent(round(t_e + 2.5 * period), "Enable", LOW)],
    ])
    traces = advance(build_channel(config), events, until)
    sched = stimulus.ProtocolSchedule([
        (0, stimulus.Action.DISABLE_ASSERT),
        (round(12 * period), stimulus.Action.DISABLE_RELEASE),
        (t_e, stimulus.Action.ENABLE_PULSE),
    ])
    verdict = check_protocol(traces, sched, config)
    assert any("consecutive sampling edges" in w for w in verdict.warnings)


# --------------------------------------------------------------------------
# history lookups by bisection against the linear scans they replaced

def _scan_level_at(hist, time_ps):
    lo, hi = 0, len(hist)
    while lo < hi:
        mid = (lo + hi) // 2
        if hist[mid][0] <= time_ps:
            lo = mid + 1
        else:
            hi = mid
    return hist[lo - 1][1] if lo else UNKNOWN


def _scan_quiet_since(hist, t_from, t_to, quiet):
    window = [(t, lvl) for t, lvl in hist if t_from < t < t_to]
    level_before = _scan_level_at(hist, t_from)
    final = window[-1][1] if window else level_before
    if final is not quiet:
        return None
    t_q = t_from if level_before is quiet else None
    prev = level_before
    for t, lvl in window:
        if lvl is quiet and prev is not quiet:
            t_q = t
        elif lvl is not quiet:
            t_q = None
        prev = lvl
    return t_q


def _scan_known_from(hist):
    known = 0
    for i, (_, lvl) in enumerate(hist):
        if lvl is UNKNOWN:
            known = hist[i + 1][0] if i + 1 < len(hist) else None
    return known


LEVELS = (LOW, HIGH, UNKNOWN)


@st.composite
def net_windows(draw):
    """A net history (strictly increasing times, each change a new level) and
    a window [t_from, t_to); window ends often fall on a change."""
    times = sorted(draw(st.sets(st.integers(0, 40), max_size=8)))
    level = draw(st.sampled_from(LEVELS))
    hist = []
    for t in times:
        hist.append((t, level))
        level = LEVELS[(LEVELS.index(level) + draw(st.integers(1, 2))) % 3]
    ends = st.integers(-5, 45) | st.sampled_from(times) if times else st.integers(-5, 45)
    t_from, t_to = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return hist, t_from, t_to, draw(st.sampled_from((LOW, HIGH)))


HIST = [(5, UNKNOWN), (10, LOW), (20, HIGH), (30, LOW)]


@settings(max_examples=400, deadline=None)
@given(net_windows())
@example(([], 0, 10, LOW))                # empty history
@example((HIST, -5, 3, LOW))              # window before the first change
@example((HIST, 35, 40, LOW))             # window after the last change
@example((HIST, 20, 25, HIGH))            # a change exactly at t_from
@example((HIST, 12, 20, LOW))             # a change exactly at t_to
@example((HIST, 10, 30, HIGH))            # changes at both ends
@example(([(0, LOW), (10, HIGH), (20, UNKNOWN)], 5, 15, HIGH))  # ends UNKNOWN
@example(([(0, LOW), (10, UNKNOWN), (20, HIGH)], 5, 25, HIGH))  # UNKNOWN mid-history
def test_bisection_matches_linear_scans(case):
    hist, t_from, t_to, quiet = case
    traces = SignalTraces(events={"N": hist}, horizon_ps=50)
    for t in range(-6, 47):
        assert traces.level_at("N", t) is _scan_level_at(hist, t)
        assert traces.last_change("N", t) == next(
            (change for change in reversed(hist) if change[0] < t), None)
    assert (_quiet_since(traces, "N", t_from, t_to, quiet)
            == _scan_quiet_since(hist, t_from, t_to, quiet))
    times, codes = traces.arrays("N")
    assert times.dtype == np.int64 and codes.dtype == np.int8
    columns = [list(column) for column in zip(*hist)] if hist else [[], []]
    assert [times.tolist(), codes.tolist()] == columns
    assert traces.known_from("N") == _scan_known_from(hist)
