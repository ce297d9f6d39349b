"""Stimulus generation, PRBS sources and configuration round-trips."""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from datachan import ChannelConfig
from datachan.config import (DriverParams, SpikeModel, config_to_text,
                             parse_config)
from datachan.errors import ConfigError, SeedError
from datachan.logic import HIGH, LOW
from datachan import golden, scenario, stimulus
from reference_kernel import (clock_events, control_events, merge_events, net_events,
                              word_events)


# --------------------------------------------------------------------------
# clock grid

def test_bit_period_is_exact_rational(config):
    assert config.bit_period == Fraction(10**12, 1_650_000_000)
    assert float(config.bit_period) == pytest.approx(606.0606, abs=1e-4)


def test_clock_grid_has_no_cumulative_drift(config):
    # edge k must always round the exact product, never accumulate steps
    for k in (1, 1000, 10**6):
        assert stimulus.clock_rise_time(config, k) == round(k * config.bit_period)
    t1 = stimulus.clock_rise_time(config, 1_650_000)
    assert t1 == 10**9  # 1.65M periods at 1.65 GHz is exactly 1 ms


# rates whose exact edge times hit .5 ties: 1.6 GHz (625 ps) on every fall,
# 3.2 GHz (312.5 ps) on every odd rise; the others are not whole picoseconds
GRID_RATES = (1_650_000_000, 1_600_000_000, 3_200_000_000, 1_000_000_000,
              1_234_567_891, 2_999_999_999)


def _fraction_grid(config, k):
    period = Fraction(10**12, config.serial_rate_hz)
    return round(k * period), round(k * period + period / 2), round(period / 2)


@pytest.mark.parametrize("rate", GRID_RATES)
def test_integer_clock_grid_matches_fraction(rate):
    cfg = ChannelConfig(serial_rate_hz=rate)
    ks = [*range(2000), *range(10**6 - 2000, 10**6 + 1), *range(0, 10**6, 997)]
    # the int64 array path the stimulus builders take, and the scalar one
    rises = stimulus._half_periods(cfg, 2 * np.array(ks, dtype=np.int64)).tolist()
    falls = stimulus._half_periods(cfg, 2 * np.array(ks, dtype=np.int64) + 1).tolist()
    for k, rise_k, fall_k in zip(ks, rises, falls):
        rise, fall, half = _fraction_grid(cfg, k)
        assert stimulus.clock_rise_time(cfg, k) == rise == rise_k
        assert stimulus.clock_fall_time(cfg, k) == fall == fall_k
    timing = stimulus.SlotTiming(cfg, first_sel_edge=3)
    assert timing.slot_mid(2, 4) - timing.slot_start(2, 4) == half


@settings(max_examples=200, deadline=None)
@given(st.integers(10**8, 10**10), st.integers(0, 10**6))
def test_integer_clock_grid_matches_fraction_at_random(rate, k):
    cfg = ChannelConfig(serial_rate_hz=rate)
    rise, fall, _ = _fraction_grid(cfg, k)
    assert (stimulus.clock_rise_time(cfg, k), stimulus.clock_fall_time(cfg, k)) == (rise, fall)
    assert stimulus._half_periods(cfg, np.array([2 * k, 2 * k + 1])).tolist() == [rise, fall]


def test_integer_clock_grid_rounds_ties_to_even():
    fast = ChannelConfig(serial_rate_hz=3_200_000_000)  # 312.5 ps
    assert [stimulus.clock_rise_time(fast, k) for k in (1, 3, 5)] == [312, 938, 1562]
    assert stimulus._clock(fast, 2000).times[[2, 6, 10]].tolist() == [312, 938, 1562]
    slow = ChannelConfig(serial_rate_hz=1_600_000_000)  # falls at 312.5 + k * 625
    assert [stimulus.clock_fall_time(slow, k) for k in (0, 1, 2)] == [312, 938, 1562]
    assert stimulus._clock(slow, 2000).times[[1, 3, 5]].tolist() == [312, 938, 1562]
    assert stimulus.SlotTiming(slow, 1).slot_mid(0, 1) == (
        stimulus.falling_dclk_time(slow, 1) + slow.ff_delay_ps + 312)
    # word 1 half a period, 312 ps, after the flip-flop delay past falling edge 10
    bus = stimulus._bus([(0,) * 10, (1,) * 10], stimulus.SlotTiming(slow, 1))
    assert bus.times[-1] == stimulus.falling_dclk_time(slow, 10) + slow.ff_delay_ps + 312


@pytest.mark.parametrize("rate", GRID_RATES)
def test_clock_events_match_fraction_grid(rate):
    cfg = ChannelConfig(serial_rate_hz=rate)
    until = 200_000
    want = []
    for k in range(10**6):
        rise, fall, _ = _fraction_grid(cfg, k)
        if rise > until:
            break
        want.append((rise, "Clock", HIGH))
        if fall <= until:
            want.append((fall, "Clock", LOW))
    clock = stimulus._clock(cfg, until)
    assert net_events(clock) == want
    assert (clock.times.dtype, clock.net.dtype, clock.level.dtype) == (np.int64, np.int8, np.int8)


def test_clock_events_alternate_and_stop_at_horizon(config):
    until = round(10 * config.bit_period)
    events = net_events(stimulus._clock(config, until))
    assert all(ev.time_ps <= until for ev in events)
    assert [ev.level for ev in events[:4]] == [HIGH, LOW, HIGH, LOW]
    rises = [ev.time_ps for ev in events if ev.level is HIGH]
    assert rises[0] == 0
    assert rises[1] - rises[0] in (606, 607)


def test_enable_pulse_is_one_period_wide(config):
    sched = stimulus.ProtocolSchedule([(5000, stimulus.Action.ENABLE_PULSE)])
    en = [(ev.time_ps, ev.level) for ev in net_events(sched.changes(config))
          if ev.net == "Enable"]
    assert en == [(5000, HIGH), (5000 + round(config.bit_period), LOW)]


def test_schedule_rejects_unordered_actions():
    with pytest.raises(ValueError):
        stimulus.ProtocolSchedule([
            (100, stimulus.Action.ENABLE_PULSE),
            (50, stimulus.Action.DISABLE_ASSERT),
        ])


def test_word_events_update_in_the_last_slot(config):
    timing = stimulus.timing_for_enable(config, 9000)
    words = [(0,) * 10, (1,) * 10]
    events = net_events(stimulus._bus(words, timing))
    t_update = timing.slot_mid(0, config.word_width)
    assert {ev.time_ps for ev in events} == {0, t_update}
    # the second word only flips the bits that changed
    assert sum(1 for ev in events if ev.time_ps == t_update) == 10


def test_word_events_reject_wrong_width(config):
    timing = stimulus.timing_for_enable(config, 9000)
    with pytest.raises(ValueError, match="word 0 has width 2, expected 10"):
        stimulus._bus([(1, 0)], timing)


def _scenario_stimulus(rate, width, source, n_words, seed, disable):
    """The config, words, schedule and tail periods of a ``run_scenario`` run of
    ``source`` (a ``file`` source reads seeded random text) at ``rate``."""
    config = ChannelConfig(serial_rate_hz=rate, word_width=width)
    sc = scenario.Scenario(source=source, n_words=n_words, seed=seed,
                           disable_at_word=None if disable is None else disable % n_words)
    if source == "none":
        words = []
    elif source == "file":
        words = golden.parse_word_text("\n".join(
            "".join(map(str, word)) for word in stimulus.random_words(n_words, seed, width)),
            width)
    else:
        words = scenario._words_for(config, sc)
    return (config, words, *scenario._control(config, sc))


@settings(max_examples=150, deadline=None)
@given(rate=st.integers(10**8, 10**10), width=st.sampled_from((8, 10, 16)),
       source=st.sampled_from(scenario.SOURCES), n_words=st.integers(1, 12),
       seed=st.integers(1, 127), disable=st.none() | st.integers(0, 11))
# every fall (1.6 GHz) or every odd rise (3.2 GHz) is a tie rounded to even
@example(rate=1_600_000_000, width=10, source="prbs10", n_words=6, seed=5, disable=None)
@example(rate=3_200_000_000, width=16, source="random", n_words=6, seed=5, disable=3)
@example(rate=1_600_000_000, width=8, source="none", n_words=1, seed=1, disable=None)
def test_stream_stimulus_matches_event_oracle(rate, width, source, n_words, seed, disable):
    config, words, schedule, tail = _scenario_stimulus(rate, width, source, n_words, seed,
                                                       disable)
    stim = stimulus.stream_stimulus(config, words, schedule, tail)
    want = merge_events([clock_events(config, stim.until_ps), control_events(schedule, config),
                         word_events(words, stim.timing) if stim.timing else []])
    assert net_events(stim.events) == want
    assert len(stim.events) == len(want)
    events = stim.events
    assert (events.times.dtype, events.net.dtype, events.level.dtype) == (
        np.int64, np.int8, np.int8)
    if words:
        # a word of the wrong width: the oracle's error, from the same word
        bad = words[:seed % len(words)] + [(1,) * (width - 1)] + words[seed % len(words):]
        with pytest.raises(ValueError) as info:
            word_events(bad, stim.timing)
        with pytest.raises(ValueError, match=f"^{re.escape(str(info.value))}$"):
            stimulus.stream_stimulus(config, bad, schedule, tail)


class _Sized(Exception):
    """Stops ``stimulus._clock`` once its edge count has passed the int64 check."""


# the lowest rate, rates whose period has the largest numerator (10^12), the
# default, a tie rate, and the highest rate validate() admits (a period > 6 ps)
@pytest.mark.parametrize("rate", [1, 1_000_000_007, 1_650_000_000, 3_200_000_000,
                                  142_857_142_857])
def test_int64_edge_times_hold_at_the_work_budget(rate, monkeypatch):
    # the coarsest dt_ps validate() admits, and the longest horizon the work
    # budget admits with it: 2^20 bit periods
    cfg = ChannelConfig(serial_rate_hz=rate, ff_delay_ps=1, buffer_delay_ps=1, skew_ps=0)
    cfg = replace(cfg, dt_ps=cfg.ui_ps / 32)
    cfg.validate()
    until = int(scenario.WORK_BUDGET * cfg.dt_ps)
    assert until <= 2**20 * cfg.bit_period
    counts = []
    check = stimulus._check_int64

    def sized(config, n_end):
        check(config, n_end)
        counts.append(n_end)
        raise _Sized

    monkeypatch.setattr(stimulus, "_check_int64", sized)
    with pytest.raises(_Sized):  # before any edge time is computed
        stimulus._clock(cfg, until)
    period = cfg.bit_period
    assert counts[0] <= 2**21 + 2
    assert counts[0] * max(period.numerator, 4 * period.denominator) < 2**62


@pytest.mark.parametrize("rate, tail", [(1_650_000_000, 2**50), (1_000_000_007, 2**23)])
def test_stimulus_past_the_int64_bound_is_a_config_error(rate, tail):
    # rejected before any edge time is computed: the clock would need 2^51 or
    # 2^24 edges, whose times n * 10^12 / rate / 2 overflow int64 in the making
    cfg = ChannelConfig(serial_rate_hz=rate)
    first = stimulus.ProtocolSchedule(stimulus.reset_schedule(cfg).actions[:1])
    with pytest.raises(ConfigError, match="overflow the int64 edge times"):
        stimulus.stream_stimulus(cfg, [], first, tail_periods=tail)


# --------------------------------------------------------------------------
# PRBS sources

def test_prbs7_has_period_127():
    bits = stimulus.prbs_bits("PRBS7", 3 * 127, seed=1)
    assert bits[:127] == bits[127:254] == bits[254:]
    assert sorted(set(bits)) == [0, 1]
    assert sum(bits[:127]) == 64  # maximal-length balance: 64 ones, 63 zeros


def test_prbs10_has_period_1023():
    bits = stimulus.prbs_bits("PRBS10", 2 * 1023, seed=0x3FF)
    assert bits[:1023] == bits[1023:]
    assert sum(bits[:1023]) == 512


def lfsr_steps(kind, n_bits, seed):
    """The register stepped ``n_bits`` times: (output bits, final state)."""
    n, m = stimulus._LFSR_TAPS[kind]
    mask = (1 << n) - 1
    state, bits = seed & mask, []
    for _ in range(n_bits):
        bits.append((state >> (n - 1)) & 1)
        state = ((state << 1) | (((state >> (n - 1)) ^ (state >> (m - 1))) & 1)) & mask
    return bits, state


@pytest.mark.parametrize("kind, period", [("PRBS7", 127), ("PRBS10", 1023)])
def test_prbs_by_period_matches_stepwise_register(kind, period):
    for seed in (1, 5, 0x2A, period, period + 3, 0xBEEF):
        for n_bits in (0, 1, period - 1, period, period + 1, 3 * period + 5):
            assert stimulus.prbs_bits(kind, n_bits, seed) == lfsr_steps(kind, n_bits, seed)[0]


@pytest.mark.parametrize("kind, period", [("PRBS7", 127), ("PRBS10", 1023)])
def test_prbs_register_returns_to_its_seed_after_one_period(kind, period):
    # maximal length: back to the seed after the period, and not before
    for seed in (1, 0x55, period):
        state, states = seed, []
        for _ in range(period):
            state = lfsr_steps(kind, 1, state)[1]
            states.append(state)
        assert states[-1] == seed
        assert seed not in states[:-1]


def test_stream_stimulus_without_enable_idles():
    config = ChannelConfig()
    first = stimulus.reset_schedule(config).actions[:1]
    stim = stimulus.stream_stimulus(config, [], stimulus.ProtocolSchedule(first),
                                    tail_periods=200)
    assert stim.timing is None
    assert stim.until_ps == round(200 * config.bit_period)
    assert {ev.net for ev in net_events(stim.events)} == {"Clock", "Disable", "Enable"}
    with pytest.raises(ValueError, match="no enable pulse"):
        stimulus.stream_stimulus(config, [(0,) * 10], stimulus.ProtocolSchedule(first))


def test_prbs_rejects_zero_seed():
    with pytest.raises(SeedError):
        stimulus.prbs_bits("PRBS7", 10, seed=0)
    with pytest.raises(SeedError):
        stimulus.prbs_bits("PRBS10", 10, seed=1 << 10)  # masks down to zero


def test_prbs_rejects_unknown_kind():
    with pytest.raises(ValueError):
        stimulus.prbs_bits("PRBS31", 10, seed=1)


def test_gen_prbs_packs_stream_bits_in_order():
    bits = stimulus.prbs_bits("PRBS7", 30, seed=5)
    words = stimulus.gen_prbs("PRBS7", 3, seed=5)
    assert [b for w in words for b in w] == bits


def test_random_words_deterministic_per_seed():
    a = stimulus.random_words(20, seed=42)
    b = stimulus.random_words(20, seed=42)
    c = stimulus.random_words(20, seed=43)
    assert a == b
    assert a != c
    assert all(len(w) == 10 for w in a)


# --------------------------------------------------------------------------
# configuration

def test_config_round_trip_default(config):
    assert parse_config(config_to_text(config)) == config


def test_config_round_trip_modified():
    cfg = ChannelConfig(
        dt_ps=5.0, seed=77, horizon_words=12,
        driver=DriverParams(t_rf_ps=80.0, edge_model="RAISED_COSINE"),
        spike=SpikeModel(q_c=25e-15),
        mask_vertices=((-0.2, 0.0), (0.0, 0.15), (0.2, 0.0), (0.0, -0.15)),
    )
    assert parse_config(config_to_text(cfg)) == cfg


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config("no_such_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config("dt_ps = fast\n")
    with pytest.raises(ConfigError):
        parse_config("dt_ps\n")


def test_config_errors_name_their_line():
    with pytest.raises(ConfigError, match="line 3: bad numeric value 'abc'"):
        parse_config("# channel\nseed = 2\nspike.q_c = abc\n")
    with pytest.raises(ConfigError, match="line 1: unknown key 'driver.nope'"):
        parse_config("driver.nope = 1\n")


def test_config_validation_limits():
    with pytest.raises(ConfigError):
        ChannelConfig(word_width=9).validate()
    with pytest.raises(ConfigError):
        ChannelConfig(skew_ps=400).validate()  # more than half a bit period
    with pytest.raises(ConfigError):
        ChannelConfig(driver=DriverParams(i_standby_a=1e-3)).validate()
    with pytest.raises(ConfigError):
        ChannelConfig(driver=DriverParams(edge_model="LINEAR")).validate()


def test_config_requires_32_samples_per_unit_interval():
    ChannelConfig(dt_ps=18.9).validate()  # 606 ps / 18.9 ps > 32
    with pytest.raises(ConfigError, match="32 samples"):
        ChannelConfig(dt_ps=19).validate()


def test_config_requires_token_recirculation_within_one_period():
    # the shortest period at 1.65 GHz is 606 ps: Start must rise before it ends
    ChannelConfig(ff_delay_ps=530, buffer_delay_ps=15).validate()   # 605 ps
    with pytest.raises(ConfigError, match="serial period"):
        ChannelConfig(ff_delay_ps=531, buffer_delay_ps=15).validate()  # 606 ps
    with pytest.raises(ConfigError, match="serial period"):
        ChannelConfig(serial_rate_hz=2_500_000_000, buffer_delay_ps=80).validate()


def test_config_recirculation_bound_is_the_shortest_gap_between_clock_falls():
    # at 1.6 GHz the period is 625 ps, an odd whole number: every clock edge is
    # a tie rounded to even, so the falls alternate 624 and 626 ps apart
    cfg = ChannelConfig(serial_rate_hz=1_600_000_000)
    falls = [stimulus.clock_fall_time(cfg, k) for k in range(6)]
    assert sorted({b - a for a, b in zip(falls, falls[1:])}) == [624, 626]
    replace(cfg, ff_delay_ps=618, buffer_delay_ps=1).validate()  # 623 ps
    with pytest.raises(ConfigError, match=r"serial period \(624 ps\)"):
        replace(cfg, ff_delay_ps=619, buffer_delay_ps=1).validate()  # 624 ps


@pytest.mark.parametrize("rate, buf", [(1_650_000_000, 15), (2_215_365_140, 1),
                                       (1_000_000_007, 3), (3_000_000_000, 60)])
def test_enable_pulse_meets_exactly_one_sampling_edge(rate, buf):
    # a rising Dclk edge at r sees an Enable change made at r, so the pulse
    # [t, fall) is sampled by the edges r with t <= r < fall
    cfg = ChannelConfig(serial_rate_hz=rate, buffer_delay_ps=buf, ff_delay_ps=1)
    edges = [stimulus.rising_dclk_time(cfg, k) for k in range(40)]
    for t in range(5000, 5000 + 2 * round(cfg.bit_period)):
        pulse = stimulus.ProtocolSchedule([(t, stimulus.Action.ENABLE_PULSE)])
        _, fall = pulse.changes(cfg).times.tolist()
        sampled = [k for k, r in enumerate(edges) if t <= r < fall]
        assert len(sampled) == 1, (t, fall, sampled)
        assert stimulus.timing_for_enable(cfg, t).first_sel_edge == sampled[0] + 1
        assert abs(fall - t - cfg.bit_period) < 2


@pytest.mark.parametrize("width, hold", [(8, 12), (10, 12), (16, 18)])
def test_reset_hold_covers_the_ring(width, hold):
    cfg = ChannelConfig(word_width=width)
    sched = stimulus.reset_schedule(cfg)
    (t0, _), (t1, _), _ = sched.actions
    assert t1 == round(t0 + hold * cfg.bit_period)


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 60), st.integers(5, 60), st.integers(0, 100))
def test_config_round_trip_random_delays(ffd, bufd, seed):
    cfg = replace(ChannelConfig(), ff_delay_ps=ffd, buffer_delay_ps=bufd,
                  seed=seed)
    assert parse_config(config_to_text(cfg)) == cfg
