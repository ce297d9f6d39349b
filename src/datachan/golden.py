"""Functional golden model of the N:1 serializer and serial-stream recovery.

``golden_serialize`` defines the reference bit order (D0 first, matching
the Sel1..SelN to D0..D{N-1} pairing); ``extract_serial`` recovers the
transmitted stream from simulated traces so the two routes can be compared
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .config import ChannelConfig, _read_input
from .errors import FramingError
from .logic import HIGH, LOW, SignalTraces
from .stimulus import Word


def check_word(word: Word, width: int = 10) -> Word:
    if len(word) != width or any(b not in (0, 1) for b in word):
        raise ValueError(f"expected a {width}-bit word of 0/1, got {word!r}")
    return word


@dataclass
class BitStream:
    """Serial bits on the exact rational bit-period grid."""

    bits: list[int]
    start_time_ps: int = 0
    bit_period: Fraction = Fraction(10**12, 1_650_000_000)


def golden_serialize(words: list[Word], width: int = 10,
                     bit_period: Fraction | None = None) -> BitStream:
    """Reference serialization: D0..D{width-1} of each word in order."""
    if not words:
        raise ValueError("need at least one word")
    bits = []
    for w in words:
        bits.extend(check_word(w, width))
    period = bit_period if bit_period is not None else Fraction(10**12, 1_650_000_000)
    return BitStream(bits=bits, bit_period=period)


def extract_serial(traces: SignalTraces, config: ChannelConfig) -> BitStream:
    """Recover the serial stream from select framing and line states.

    Each slot is framed by the rise of its select; the bit is read at
    mid-slot from the slot's group line (Odd for odd selects, Even for
    even) and cross-checked against the complement line.  A slot out of
    select order or with no bit on its lines raises ``FramingError``,
    naming the first such slot.
    """
    width = config.word_width
    half = round(config.bit_period / 2)

    rises = [traces.edges(f"Sel{k}", "rise") for k in range(1, width + 1)]
    t = np.concatenate(rises)
    k = np.repeat(np.arange(1, width + 1), [len(r) for r in rises])
    order = np.lexsort((k, t))  # by time, then select
    t, k = t[order], k[order]
    # frame from the first Sel1 rise onward
    first = np.flatnonzero(k == 1)
    if not len(first):
        return BitStream(bits=[], bit_period=config.bit_period)
    start = int(t[first[0]])
    n_complete = (len(k) - first[0]) // width * width
    t, k = t[first[0]:][:n_complete], k[first[0]:][:n_complete]

    # g, c: the levels of the slot's group line and of its complement at mid-slot
    mid = t + half
    g = np.empty(len(t), dtype=np.int8)
    c = np.empty(len(t), dtype=np.int8)
    odd = k % 2 == 1
    for slots, group, comp in ((odd, "Odd", "nOdd"), (~odd, "Even", "nEven")):
        g[slots] = traces.levels_at(group, mid[slots])
        c[slots] = traces.levels_at(comp, mid[slots])
    one = (g == LOW) & (c == HIGH)
    framed = one | ((g == HIGH) & (c == LOW))
    expected = np.arange(n_complete) % width + 1
    broken = np.flatnonzero((k != expected) | ~framed)
    if len(broken):
        i = broken[0]
        if k[i] != expected[i]:
            raise FramingError(f"select order broken at {t[i]} ps: Sel{k[i]}, "
                               f"expected Sel{expected[i]}")
        group, comp = ("Odd", "nOdd") if odd[i] else ("Even", "nEven")
        raise FramingError(f"slot Sel{k[i]} at {t[i]} ps: {group}="
                           f"{traces.level_at(group, mid[i]).name}, "
                           f"{comp}={traces.level_at(comp, mid[i]).name}")
    return BitStream(bits=one.astype(np.int64).tolist(), start_time_ps=start,
                     bit_period=config.bit_period)


# --------------------------------------------------------------------------
# word-file and bitstream text formats

def parse_word_text(text: str, width: int = 10) -> list[Word]:
    """One binary string per line, leftmost character = highest bit index; at least one."""
    words = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(line) != width or any(c not in "01" for c in line):
            raise ValueError(f"line {lineno}: expected {width} binary digits")
        words.append(tuple(int(c) for c in reversed(line)))
    if not words:
        raise ValueError("holds no words")
    return words


def load_words(path: str | Path, width: int = 10) -> list[Word]:
    return parse_word_text(_read_input(path, "word file"), width)


def format_bitstream(stream: BitStream) -> str:
    """The bits as ``0``/``1`` text, 80 to a line."""
    text = "".join(str(b) for b in stream.bits)
    lines = [text[i:i + 80] for i in range(0, len(text), 80)] or [""]
    return "\n".join(lines) + "\n"
