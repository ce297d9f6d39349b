"""The paper's claims as exact invariants, and the exit contract of every config."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from datachan import ChannelConfig, advance, build_channel, stimulus
from datachan import driver as drv
from datachan.cli import main


def _supply(config, words, schedule):
    """The line transition times and the supply current of streaming ``words``."""
    stim = stimulus.stream_stimulus(config, words, schedule)
    traces = advance(build_channel(config), stim.events, stim.until_ps)
    times = drv.line_transition_times(traces)
    return times, drv.supply_current(times, config.spike, config.dt_ps, 0.0, stim.until_ps)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_supply_spikes_do_not_depend_on_the_data(data):
    # paper claim 3: every slot switches one line of each pair, whatever its bit
    width = data.draw(st.sampled_from((8, 10, 16)))
    shortest = math.floor(ChannelConfig().bit_period)
    buf = data.draw(st.integers(1, (shortest - 2) // 5))
    ff = data.draw(st.integers(1, shortest - 1 - 5 * buf))
    skew = data.draw(st.integers(0, shortest // 2))
    config = ChannelConfig(word_width=width, ff_delay_ps=ff, buffer_delay_ps=buf, skew_ps=skew)
    config.validate()
    n = data.draw(st.integers(1, 6))
    word = st.tuples(*[st.integers(0, 1)] * width)
    words_a = data.draw(st.lists(word, min_size=n, max_size=n))
    words_b = data.draw(st.lists(word, min_size=n, max_size=n))
    schedule = stimulus.reset_schedule(config)
    disable_at = data.draw(st.none() | st.integers(0, n - 1))
    if disable_at is not None:
        timing = stimulus.timing_for_enable(
            config, schedule.times_of(stimulus.Action.ENABLE_PULSE)[0])
        schedule = stimulus.ProtocolSchedule(schedule.actions + [
            (timing.slot_mid(disable_at, width // 2), stimulus.Action.DISABLE_ASSERT)])
    times_a, current_a = _supply(config, words_a, schedule)
    times_b, current_b = _supply(config, words_b, schedule)
    assert len(times_a) >= 2 * width * (n if disable_at is None else disable_at)
    assert np.array_equal(times_a, times_b)
    assert np.array_equal(current_a.samples, current_b.samples)


# per config key: boundary values that ``validate()`` accepts on their own, and
# values it refuses; dt_ps stays at or above 0.5 ps so that no run needs more
# than a few MB
_FIELDS = {
    "serial_rate_hz": ((1_000_000_000, 1_600_000_000, 1_650_000_000, 3_000_000_000,
                        9_000_000_000), (0, 1)),
    "word_width": ((8, 10, 16), (12,)),
    "dt_ps": ((0.5, 3.4, 10.0, 18.9), (0.0, 19.0)),
    "ff_delay_ps": ((1, 30, 530), (0, 531)),
    "buffer_delay_ps": ((1, 15, 80), (0,)),
    "skew_ps": ((0, 1, 20, 303), (-1, 304)),
    "eye_bins_t": ((64, 128), (63,)),
    "eye_bins_v": ((64, 128), (63,)),
    "horizon_words": ((1, 3), (0,)),
    "driver.i_sink_a": ((-1e-3, 0.0, 9.942e-3), ()),
    "driver.t_rf_ps": ((0.0, 104.0, 5000.0), (-1.0,)),
    "driver.i_standby_a": ((0.0, 20e-6, 2e-4), (2.1e-4,)),
    "spike.q_c": ((0.0, 50e-15), (-1e-15,)),
    "spike.w_ps": ((1.0, 60.0), (0.0,)),
}


@st.composite
def boundary_settings(draw):
    """Config file settings: some keys at accepted boundary values, in one run of
    four also one key at a refused value."""
    chosen = {key: draw(st.sampled_from(good)) for key, (good, _) in _FIELDS.items()
              if draw(st.booleans())}
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from([key for key, (_, bad) in _FIELDS.items() if bad]))
        chosen[key] = draw(st.sampled_from(_FIELDS[key][1]))
    return chosen


@settings(max_examples=40, deadline=None)
@given(boundary_settings(), st.integers(1, 6),
       st.sampled_from(("stream-random", "stream-prbs10", "disable-midword", "standby")),
       st.sampled_from(("report", "run")))
def test_boundary_configs_end_in_a_documented_exit(chosen, words, preset, command):
    # "run" writes every artifact, so each writer meets non-integer timestamps
    # (dt_ps 0.5, 3.4, 18.9) and word widths 8 and 16
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "boundary.cfg"
        path.write_text("".join(f"{key} = {value!r}\n" for key, value in chosen.items()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--scenario", preset,
                         "--words", str(words), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2), (code, err.getvalue())
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert out.getvalue() == ""
        return
    assert err.getvalue() == ""
    if preset != "standby":
        assert "  serial-equivalence: pass\n" in out.getvalue(), out.getvalue()
        assert "  protocol: pass\n" in out.getvalue(), out.getvalue()
