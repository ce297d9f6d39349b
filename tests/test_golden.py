"""Golden serialization model, stream recovery and word-file formats."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from datachan import advance, build_channel
from datachan.errors import FramingError
from datachan.golden import (BitStream, extract_serial, format_bitstream,
                             golden_serialize, parse_word_text)
from datachan.logic import HIGH, LOW
from datachan import stimulus
from reference_analysis import transition_times
from reference_kernel import traces_from_histories

WORD = st.tuples(*[st.integers(0, 1)] * 10)


def test_serialize_single_word_is_d0_first():
    word = (1, 0, 0, 0, 0, 0, 0, 0, 0, 1)  # D0=1 ... D9=1
    assert golden_serialize([word]).bits == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]


def test_serialize_known_pair():
    w1 = (1, 1, 0, 0, 1, 0, 1, 0, 1, 1)
    w2 = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert golden_serialize([w1, w2]).bits == list(w1) + list(w2)


def test_serialize_rejects_bad_words():
    with pytest.raises(ValueError):
        golden_serialize([])
    with pytest.raises(ValueError):
        golden_serialize([(1, 0)])
    with pytest.raises(ValueError):
        golden_serialize([(2,) * 10])


@given(st.lists(WORD, min_size=1, max_size=6), st.lists(WORD, min_size=1, max_size=6))
def test_serialize_concatenation(ws1, ws2):
    joined = golden_serialize(ws1 + ws2)
    assert joined.bits == golden_serialize(ws1).bits + golden_serialize(ws2).bits


def test_transition_times_on_exact_grid():
    period = Fraction(10**12, 1_650_000_000)
    stream = BitStream(bits=[0, 1, 1, 0], start_time_ps=100)
    assert transition_times(stream) == [100 + period, 100 + 3 * period]


def test_extract_serial_round_trip(config, stream40, stream40_bits):
    words, _, _ = stream40
    want = golden_serialize(words, bit_period=config.bit_period)
    assert stream40_bits.bits == want.bits
    assert len(stream40_bits.bits) == 400


def test_extract_serial_empty_without_activity(config):
    width = config.word_width
    events = {f"Sel{k}": [(0, LOW)] for k in range(1, width + 1)}
    events.update({n: [(0, HIGH)] for n in ("Even", "Odd", "nEven", "nOdd")})
    traces = traces_from_histories(events, 1000)
    assert extract_serial(traces, config).bits == []


def test_extract_serial_rejects_undriven_slot(config):
    width = config.word_width
    events = {f"Sel{k}": [(0, LOW)] for k in range(1, width + 1)}
    # a full word of Sel activity but both Odd lines left released
    period = round(config.bit_period)
    for k in range(1, width + 1):
        t = 1000 + (k - 1) * period
        events[f"Sel{k}"] = [(0, LOW), (t, HIGH), (t + period, LOW)]
    events.update({n: [(0, HIGH)] for n in ("Even", "Odd", "nEven", "nOdd")})
    traces = traces_from_histories(events, 1000 + 11 * period)
    with pytest.raises(FramingError, match=r"^slot Sel1 at 1000 ps: Odd=HIGH, nOdd=HIGH$"):
        extract_serial(traces, config)


def _one_word(config, order, released=()):
    """Traces of one word from 1000 ps: ``order[j]`` is the select that rises in
    slot j.  The lines carry a 1 in every slot but those in ``released``, where
    the slot's group line is released too."""
    period = round(config.bit_period)
    events = {f"Sel{k}": [(0, LOW)] for k in range(1, config.word_width + 1)}
    events.update({"Odd": [(0, LOW)], "nOdd": [(0, HIGH)],
                   "Even": [(0, LOW)], "nEven": [(0, HIGH)]})
    for j, k in enumerate(order):
        t = 1000 + j * period
        events[f"Sel{k}"] += [(t, HIGH), (t + period, LOW)]
        if j in released:
            events["Odd" if k % 2 else "Even"] += [(t, HIGH), (t + period, LOW)]
    return traces_from_histories(events, 1000 + (len(order) + 1) * period)


SWAPPED = [1, 2, 4, 3, 5, 6, 7, 8, 9, 10]  # Sel4 rises in slot 3, where Sel3 is due


@pytest.mark.parametrize("order, released, message", [
    (list(range(1, 11)), (), None),
    (SWAPPED, (), "select order broken at 2212 ps: Sel4, expected Sel3"),
    (SWAPPED, (5,), "select order broken at 2212 ps: Sel4, expected Sel3"),
    # the order is checked before the lines of the same slot
    (SWAPPED, (2,), "select order broken at 2212 ps: Sel4, expected Sel3"),
    ([1, 2, 3, 4, 5, 6, 8, 7, 9, 10], (4,), "slot Sel5 at 3424 ps: Odd=HIGH, nOdd=HIGH"),
    (list(range(1, 11)), (5, 7), "slot Sel6 at 4030 ps: Even=HIGH, nEven=HIGH"),
])
def test_extract_serial_names_the_first_failing_slot(config, order, released, message):
    traces = _one_word(config, order, released)
    if message is None:
        stream = extract_serial(traces, config)
        assert stream.bits == [1] * 10 and stream.start_time_ps == 1000
        return
    with pytest.raises(FramingError) as info:
        extract_serial(traces, config)
    assert str(info.value) == message


def test_word_text_leftmost_is_highest_bit():
    words = parse_word_text("1000000001\n")
    assert words == [(1, 0, 0, 0, 0, 0, 0, 0, 0, 1)]
    assert words[0][9] == 1  # leftmost character landed on the top bit


def test_word_text_round_trip():
    words = stimulus.random_words(20, seed=5)
    text = "".join("".join(map(str, reversed(w))) + "\n" for w in words)
    assert parse_word_text(text) == words


def test_word_text_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_word_text("10101\n")
    with pytest.raises(ValueError):
        parse_word_text("10a0101010\n")
    with pytest.raises(ValueError, match="holds no words"):
        parse_word_text("# only a comment\n\n")


def test_format_bitstream_wraps_at_80():
    stream = BitStream(bits=[1] * 100)
    lines = format_bitstream(stream).splitlines()
    assert lines[0] == "1" * 80
    assert lines[1] == "1" * 20
