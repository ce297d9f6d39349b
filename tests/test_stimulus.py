"""Stimulus generation, PRBS sources and configuration round-trips."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from datachan import ChannelConfig
from datachan.config import (DriverParams, SpikeModel, config_to_text,
                             parse_config)
from datachan.errors import ConfigError, SeedError
from datachan.logic import HIGH, LOW
from datachan import stimulus


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
    for k in ks:
        rise, fall, half = _fraction_grid(cfg, k)
        assert stimulus.clock_rise_time(cfg, k) == rise
        assert stimulus.clock_fall_time(cfg, k) == fall
    timing = stimulus.SlotTiming(cfg, first_sel_edge=3)
    assert timing.slot_mid(2, 4) - timing.slot_start(2, 4) == half


@settings(max_examples=200, deadline=None)
@given(st.integers(10**8, 10**10), st.integers(0, 10**6))
def test_integer_clock_grid_matches_fraction_at_random(rate, k):
    cfg = ChannelConfig(serial_rate_hz=rate)
    rise, fall, _ = _fraction_grid(cfg, k)
    assert (stimulus.clock_rise_time(cfg, k), stimulus.clock_fall_time(cfg, k)) == (rise, fall)


def test_integer_clock_grid_rounds_ties_to_even():
    fast = ChannelConfig(serial_rate_hz=3_200_000_000)  # 312.5 ps
    assert [stimulus.clock_rise_time(fast, k) for k in (1, 3, 5)] == [312, 938, 1562]
    slow = ChannelConfig(serial_rate_hz=1_600_000_000)  # falls at 312.5 + k * 625
    assert [stimulus.clock_fall_time(slow, k) for k in (0, 1, 2)] == [312, 938, 1562]
    assert stimulus.SlotTiming(slow, 1).slot_mid(0, 1) == (
        stimulus.falling_dclk_time(slow, 1) + slow.ff_delay_ps + 312)


@pytest.mark.parametrize("rate", GRID_RATES)
def test_clock_events_match_fraction_grid(rate):
    cfg = ChannelConfig(serial_rate_hz=rate)
    until = 200_000
    want = []
    for k in range(10**6):
        rise, fall, _ = _fraction_grid(cfg, k)
        if rise > until:
            break
        want.append((rise, HIGH))
        if fall <= until:
            want.append((fall, LOW))
    got = [(ev.time_ps, ev.level) for ev in stimulus.clock_events(cfg, until)]
    assert got == want


def test_clock_events_alternate_and_stop_at_horizon(config):
    until = round(10 * config.bit_period)
    events = stimulus.clock_events(config, until)
    assert all(ev.time_ps <= until for ev in events)
    assert [ev.level for ev in events[:4]] == [HIGH, LOW, HIGH, LOW]
    rises = [ev.time_ps for ev in events if ev.level is HIGH]
    assert rises[0] == 0
    assert rises[1] - rises[0] in (606, 607)


def test_enable_pulse_is_one_period_wide(config):
    sched = stimulus.ProtocolSchedule([(5000, stimulus.Action.ENABLE_PULSE)])
    events = sched.to_events(config)
    en = [(ev.time_ps, ev.level) for ev in events if ev.net == "Enable"]
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
    events = stimulus.word_events(words, timing)
    t_update = timing.slot_mid(0, config.word_width)
    assert {ev.time_ps for ev in events} == {0, t_update}
    # the second word only flips the bits that changed
    assert sum(1 for ev in events if ev.time_ps == t_update) == 10


def test_word_events_reject_wrong_width(config):
    timing = stimulus.timing_for_enable(config, 9000)
    with pytest.raises(ValueError):
        stimulus.word_events([(1, 0)], timing)


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


def test_stream_stimulus_without_enable_idles():
    config = ChannelConfig()
    first = stimulus.reset_schedule(config).actions[:1]
    stim = stimulus.stream_stimulus(config, [], stimulus.ProtocolSchedule(first),
                                    tail_periods=200)
    assert stim.timing is None
    assert stim.until_ps == round(200 * config.bit_period)
    assert {ev.net for ev in stim.events} == {"Clock", "Disable", "Enable"}
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


@pytest.mark.parametrize("rate, buf", [(1_650_000_000, 15), (2_215_365_140, 1),
                                       (1_000_000_007, 3), (3_000_000_000, 60)])
def test_enable_pulse_meets_exactly_one_sampling_edge(rate, buf):
    # a rising Dclk edge at r sees an Enable change made at r, so the pulse
    # [t, fall) is sampled by the edges r with t <= r < fall
    cfg = ChannelConfig(serial_rate_hz=rate, buffer_delay_ps=buf, ff_delay_ps=1)
    edges = [stimulus.rising_dclk_time(cfg, k) for k in range(40)]
    for t in range(5000, 5000 + 2 * round(cfg.bit_period)):
        pulse = stimulus.ProtocolSchedule([(t, stimulus.Action.ENABLE_PULSE)])
        _, fall = (ev.time_ps for ev in pulse.to_events(cfg))
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
